"""The whole-Gram sampled pairing against the entry-by-entry reference, bit for bit."""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale.errors import BadParameterError
from twoscale.generators import (
    Hat,
    RefinementGenerator,
    SampledGenerator,
    _candidate_knots,
    _segment_fsums,
)
from twoscale.refinement import SampledFunction, preset
from twoscale.wavelet_system import WaveletPoint as P
from twoscale.wavelet_system import WaveletSystem, gram, inner_product

_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1073


def normalized(p, q):
    """(lambda_p, beta_p, r, r beta_p, s) of one pair: p the point of smaller
    dilation (of equal dilations, the one of smaller translation)."""
    if (q.dilation, q.translation) < (p.dilation, p.translation):
        p, q = q, p
    r = q.dilation / p.dilation
    shift = r * p.translation
    return p.dilation, p.translation, r, shift, q.translation - shift


@functools.lru_cache(maxsize=None)
def oracle_breaks(gen):
    """Grid indices where the interpolant bends, in exact rational arithmetic: both
    ends, and every interior node whose neighbours' slopes differ."""
    t = [Fraction(x) for x in gen.grid.tolist()]
    v = [Fraction(x) for x in gen.values.tolist()]
    bends = [
        k
        for k in range(1, len(t) - 1)
        if (v[k] - v[k - 1]) * (t[k + 1] - t[k]) != (v[k + 1] - v[k]) * (t[k] - t[k - 1])
    ]
    return np.array([0, *bends, len(t) - 1])


def window_knots(gen, lp, bp, lq, bq, nodes):
    """Merged knots of phi(lp x - bp) phi(lq x - bq) at the grid indices nodes (sorted,
    both grid ends included), or None for disjoint supports."""
    s_lo, s_hi = gen.time_support()
    lo = max((s_lo + bp) / lp, (s_lo + bq) / lq)
    hi = min((s_hi + bp) / lp, (s_hi + bq) / lq)
    if not (hi > lo):
        return None
    start, step = gen.sampled.start, gen.sampled.step
    last = gen.values.size - 1
    knots = [np.array([lo, hi])]
    for lam, beta in ((lp, bp), (lq, bq)):
        # only the nodes whose knots can fall inside the window
        first, stop = np.clip((np.array([lam * lo, lam * hi]) - beta - start) / step, 0, last)
        k = nodes[(nodes >= math.floor(first)) & (nodes <= math.ceil(stop))]
        x = (start + step * k + beta) / lam
        knots.append(x[(x > lo) & (x < hi)])
    return np.unique(np.concatenate(knots))


def reference_knots(gen, p, q, nodes=None):
    """Merged knots in y of the normalized pair phi(y) phi(r y - s), or None (one pair
    at a time), at the grid indices nodes: by default the oracle's breaks."""
    _, _, r, _, s = normalized(p, q)
    return window_knots(gen, 1.0, 0.0, r, s, oracle_breaks(gen) if nodes is None else nodes)


def reference_pair(gen, p, q, nodes=None):
    """Exact pairing of two dilated translates of a linear interpolant, one pair at a time:
    J(r, s) = int phi(y) phi(r y - s) dy on the normalized pair's knots, over lambda_p.

    The knots come from the grid indices nodes, by default the oracle's breaks, which
    is what gram pairs on bit for bit.  Any superset of the breaks gives the same
    integral up to rounding, and a bound that holds as it stands."""
    xs = reference_knots(gen, p, q, nodes)
    if xs is None:
        return 0.0 + 0.0j, 0.0
    s_lo, s_hi = gen.time_support()
    lp, bp, r, shift, s = normalized(p, q)
    lo, hi = xs[0], xs[-1]
    mid = 0.5 * (xs[:-1] + xs[1:])

    def product(y):
        return np.interp(y, gen.grid, gen.values) * np.interp(r * y - s, gen.grid, gen.values)

    g_knot = product(xs)
    g_mid = product(mid)
    pairing = math.fsum(np.diff(xs) / 6.0 * (g_knot[:-1] + 4.0 * g_mid + g_knot[1:]))
    # the one-pair rounding bound at the points (1, 0) and (r, s)
    reach = max(abs(lo), abs(hi))
    radius = max(abs(s_lo), abs(s_hi))
    slope_term = gen.lipschitz * (3.0 * ((1.0 + r) * reach) + 2.0 * radius)
    edges = 2.0 * reach * float(abs(g_knot[0]) + abs(g_knot[-1]))
    rounding = _UNIT_ROUNDOFF * (
        (hi - lo) * gen.peak * (16.0 * gen.peak + slope_term) + edges + abs(pairing)
    )
    rounding += _TINY * ((xs.size - 1) + (hi - lo))  # underflow
    # the rounding of r and s, exact for dilations a power of two apart
    exact = math.frexp(p.dilation)[0] == math.frexp(q.dilation)[0]
    dr = 0.0 if exact else _UNIT_ROUNDOFF * r
    ds = _UNIT_ROUNDOFF * abs(s) + (0.0 if exact else _UNIT_ROUNDOFF * abs(shift) + dr * abs(bp))
    drift = reach * dr + ds
    moved = drift * gen.peak * (gen.lipschitz * (hi - lo) + 2.0 * gen.peak / r)
    value = pairing / lp
    error = (rounding + moved) / lp + _UNIT_ROUNDOFF * abs(value) + _TINY
    return complex(value, 0.0), error


def grid_reference_pair(gen, p, q):
    """reference_pair on every grid node, the knots of the pairing before breaks."""
    return reference_pair(gen, p, q, np.arange(gen.values.size))


def reference_gram(gen, points):
    """Matrix and quad_error as the entry-by-entry loop filled them."""
    n = len(points)
    matrix = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            value, err = reference_pair(gen, points[i], points[j])
            matrix[i, j] = value
            matrix[j, i] = np.conj(value)
            worst = max(worst, err)
    return matrix, worst


def assert_same_bits(gen, points):
    # the reference pairs on the exact breaks, gram on its own
    assert gen.breaks.tobytes() == oracle_breaks(gen).tobytes()
    matrix, worst = reference_gram(gen, points)
    if not np.linalg.eigvalsh(matrix).max() > 0.0:
        with pytest.raises(ValueError, match="no positive spectrum"):
            gram(WaveletSystem(gen, points))
        return None
    report = gram(WaveletSystem(gen, points))
    assert report.matrix.tobytes() == matrix.tobytes()
    assert np.float64(report.quad_error).tobytes() == np.float64(worst).tobytes()
    return report


def sampled(values, start=0.0, step=1.0, support=None):
    values = np.asarray(values, dtype=np.float64)
    end = start + step * (values.size - 1)
    return SampledGenerator(
        SampledFunction(start=start, step=step, values=values, support=support or (start, end))
    )


DYADIC = sampled(np.sin(np.arange(33) * 0.7) + 0.3, start=-1.0, step=1.0 / 16.0)


@st.composite
def generators(draw):
    count = draw(st.integers(3, 300))
    values = draw(
        st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=count, max_size=count)
    )
    start = draw(st.floats(-3.0, 3.0))
    step = draw(st.sampled_from([1.0, 0.5, 2.0**-6, 0.1, 1.0 / 3.0, 0.0137]))
    end = start + step * (count - 1)
    cut = draw(st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)))
    support = (start + cut[0] * (end - start), end - cut[1] * (end - start))
    return sampled(values, start, step, support)


@st.composite
def systems(draw):
    gen = draw(generators())
    s_lo, s_hi = gen.time_support()
    anchor = draw(st.floats(-5.0, 5.0))
    points = {}
    for _ in range(draw(st.integers(1, 7))):
        lam = 10.0 ** draw(st.floats(-3.0, 3.0))
        if draw(st.booleans()):
            # a support through the anchor, so that most pairs overlap
            beta = lam * anchor - draw(st.floats(s_lo, s_hi))
        else:
            beta = draw(st.floats(-1.0e4, 1.0e4))
        beta = min(max(beta, -1.0e4), 1.0e4)
        points[(lam, beta)] = P(lam, beta)
    return gen, list(points.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=systems())
def test_gram_matches_reference_bitwise(case):
    gen, points = case
    assert_same_bits(gen, points)


EPS_AT_2 = math.ulp(2.0)
HAT_LATTICE_57 = [P(2.0**j, float(k)) for j in range(5) for k in range(2 ** (j + 1) - 1)]
# x-space knots closer together than the float spacing, with both ends of
# the window between the first two points inside runs of them; the third
# point's knots are far apart, so some lie strictly past those ends, where
# the product does not vanish
COLLAPSED_ENDS = sampled(np.cos(np.arange(2000) * 0.01), start=0.0, step=1e-14)
COLLAPSED_PAIR = [P(1.0, 1.0e4), P(1.0, 1.0e4 + 5.0e-12)]
# the same in y: the knots (t_k + s) / r of the key r = 2^50, s = 2^50 1e-11
# collapse into runs of about 180, each end of the window inside one
COLLAPSED_KEY = [P(1.0, 0.0), P(2.0**50, 2.0**50 * 1.0e-11)]


@pytest.mark.parametrize(
    "gen,points",
    [
        pytest.param(Hat(), [P(1, 0), P(1, 5), P(2, 40)], id="disjoint"),
        pytest.param(Hat(), [P(1, 0), P(1, 2), P(0.5, -2)], id="touching"),
        pytest.param(Hat(), [P(1, 0), P(1, 2.0 - 3 * EPS_AT_2)], id="few-ulps-wide"),
        pytest.param(DYADIC, [P(1, 0), P(2, 0), P(4, 1), P(1, 0.5)], id="coincident-knots"),
        pytest.param(Hat(), [P(1.5, 0.25), P(2.0, 0.67)], id="f1-hat"),
        pytest.param(Hat(), HAT_LATTICE_57, id="hat-lattice"),
        # knots closer together than the float spacing at their position
        pytest.param(
            sampled(np.linspace(-1.0, 1.0, 300), start=0.0, step=1e-13),
            [P(1.0, 1.0e4), P(1.0, 1.0e4 + 1.0e-11), P(2.0, 2.0e4)],
            id="collapsed-knots",
        ),
        pytest.param(
            COLLAPSED_ENDS, [*COLLAPSED_PAIR, P(1.0e-3, 10.0)], id="collapsed-window-ends"
        ),
        pytest.param(
            COLLAPSED_ENDS, [*COLLAPSED_KEY, P(2.0**40, 2.0**40 * 1.2e-11)], id="collapsed-key"
        ),
    ],
)
def test_fixed_cases_match_reference_bitwise(gen, points):
    assert_same_bits(gen, points)


def exactly_straight(gen, a, b):
    """Whether every grid node between a and b lies on the chord from node a to node b."""
    t = [Fraction(x) for x in gen.grid[a : b + 1].tolist()]
    v = [Fraction(x) for x in gen.values[a : b + 1].tolist()]
    rise, run = v[-1] - v[0], t[-1] - t[0]
    return all((v[k] - v[0]) * run == rise * (t[k] - t[0]) for k in range(len(t)))


@pytest.mark.parametrize(
    "gen,breaks",
    [
        pytest.param(RefinementGenerator(preset("hat"), 2.0**-10), 43, id="hat-cascade"),
        pytest.param(RefinementGenerator(preset("rham"), 2.0**-8), 513, id="rham"),
        pytest.param(Hat(), 3, id="hat"),
        # 0.1 k is not exactly uniform: the exact breaks are both ends, the
        # corner at node 20 and 16 bends by an ulp of the ramp's slope; 15
        # straight nodes stay breaks, their differences inexact or unequal
        pytest.param(
            sampled(np.concatenate([np.zeros(20), np.arange(30.0)]), start=0.3, step=0.1),
            34,
            id="step-0.1",
        ),
        # differences past the float range: no warning, every node a break
        pytest.param(sampled([0.0, 1.5e308, -1.5e308, 0.0]), 4, id="huge"),
        pytest.param(
            sampled([-1.5e308, -1.5e308, 0.0, 1.5e308, 1.5e308]), 4, id="huge-straight"
        ),
    ],
)
def test_breaks_hold_every_bend_and_skip_only_straight_nodes(gen, breaks):
    got = gen.breaks
    assert got[0] == 0 and got[-1] == gen.values.size - 1 and (np.diff(got) > 0).all()
    assert got.size == breaks
    # every node whose slopes differ is a break
    assert set(oracle_breaks(gen).tolist()) <= set(got.tolist())
    # between consecutive breaks the interpolant is one straight piece
    assert all(exactly_straight(gen, a, b) for a, b in zip(got[:-1], got[1:]) if b > a + 1)


@st.composite
def straight_runs(draw):
    """Dyadic samples of a piecewise-linear function with straight runs, and points."""
    runs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(-8, 8)), min_size=1, max_size=8))
    runs[0] = (max(runs[0][0], 2), runs[0][1])  # one straight node at least
    scale = 2.0 ** -draw(st.integers(0, 6))
    increments = np.repeat([c * scale for _, c in runs], [n for n, _ in runs])
    values = np.concatenate([[0.0], np.cumsum(increments)])
    start = 0.25 * draw(st.integers(-8, 8))
    gen = sampled(values, start, 2.0 ** draw(st.integers(-6, 1)))
    s_lo, s_hi = gen.time_support()
    anchor = draw(st.floats(s_lo, s_hi))
    points = {}
    for _ in range(draw(st.integers(1, 4))):
        lam = 2.0 ** draw(st.floats(-2.0, 2.0))
        beta = lam * anchor - draw(st.floats(s_lo, s_hi))
        points[(lam, beta)] = P(lam, beta)
    return gen, list(points.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=straight_runs())
def test_break_knots_agree_with_every_grid_knot(case):
    gen, points = case
    assert gen.breaks.size < gen.values.size
    for i, p in enumerate(points):
        for q in points[i:]:
            value, error = reference_pair(gen, p, q)
            grid_value, grid_error = grid_reference_pair(gen, p, q)
            assert abs(value - grid_value) <= error + grid_error
            assert inner_product(gen, p, q) == (value, error)


def test_window_few_ulps_wide_is_live():
    xs = reference_knots(Hat(), P(1, 0), P(1, 2.0 - 3 * EPS_AT_2))
    assert xs is not None and xs[-1] - xs[0] == 3 * EPS_AT_2


def test_touching_supports_pair_to_zero():
    assert inner_product(Hat(), P(1, 0), P(1, 2)) == (0.0 + 0.0j, 0.0)


def test_identical_windows_on_the_diagonal():
    points = [P(1, 0), P(3, 1.5), P(0.25, -0.5)]
    report = assert_same_bits(DYADIC, points)
    for i, p in enumerate(points):
        assert inner_product(DYADIC, p, p) == reference_pair(DYADIC, p, p)
        assert report.matrix[i, i].real == reference_pair(DYADIC, p, p)[0].real


def test_inner_product_is_the_one_pair_gram():
    points = [P(1, 0), P(2, 0.5), P(0.75, -0.3), P(3.1, 1.7)]
    report = gram(WaveletSystem(DYADIC, points))
    for i, p in enumerate(points):
        for j, q in enumerate(points[i:], i):
            value, err = inner_product(DYADIC, p, q)
            assert value == report.matrix[i, j]
            assert (value, err) == reference_pair(DYADIC, p, q)


REFINEMENT_LATTICE = [P(2.0**j, float(k)) for j in range(3) for k in range(2 ** (j + 1) - 1)]


def distinct_keys(gen, points):
    """Merged knots of each distinct key (r, s) among the overlapping pairs of a triangle."""
    keys = {}
    for i, p in enumerate(points):
        for q in points[i:]:
            xs = reference_knots(gen, p, q)
            if xs is not None:
                keys[normalized(p, q)[2::2]] = xs
    return keys


@pytest.mark.parametrize("block", [1, 5, 64, 2**10])
@pytest.mark.parametrize(
    "gen,points",
    [(Hat(), HAT_LATTICE_57), (RefinementGenerator(preset("hat"), 2.0**-6), REFINEMENT_LATTICE)],
    ids=["hat57", "refinement"],
)
def test_blocks_leave_bits_unchanged(monkeypatch, block, gen, points):
    expected = gram(WaveletSystem(gen, points))
    distinct = len(distinct_keys(gen, points))
    monkeypatch.setattr("twoscale.generators._KNOT_BLOCK", block)
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda x, *a: calls.append(x.size) or interp(x, *a))
    report = gram(WaveletSystem(gen, points))
    assert report.matrix.tobytes() == expected.matrix.tobytes()
    assert report.quad_error == expected.quad_error
    blocks = len(calls) // 4
    # a block of one knot holds a single key; a key with more knots than
    # the block holds is a block of its own
    assert blocks == distinct if block == 1 else 1 <= blocks <= distinct
    if block == 64 and gen.kind == "hat":
        assert 1 < blocks < distinct


def test_disjoint_pairs_never_reach_interp(monkeypatch):
    gen = Hat()
    overlapping = [
        reference_knots(gen, p, q)
        for i, p in enumerate(HAT_LATTICE_57)
        for q in HAT_LATTICE_57[i:]
    ]
    assert sum(xs is not None for xs in overlapping) < len(overlapping) // 3
    knots = sum(xs.size for xs in distinct_keys(gen, HAT_LATTICE_57).values())
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda x, *a: calls.append(x.size) or interp(x, *a))
    gram(WaveletSystem(gen, HAT_LATTICE_57))
    # one block: each factor at every merged knot of each distinct key and
    # at every midpoint between consecutive knots (the one straddling two
    # keys included)
    assert len(calls) == 4
    assert sum(calls) == 2 * knots + 2 * (knots - 1)


def test_each_distinct_key_is_paired_once(monkeypatch):
    # (1, k) and (3, 3k): r = 3 with s = 3(l - k), and r = 1 with s = l - k,
    # repeat along the lattice
    points = [P(1.0, float(k)) for k in range(8)] + [P(3.0, 3.0 * k) for k in range(8)]
    keys = distinct_keys(DYADIC, points)
    overlapping = sum(
        reference_knots(DYADIC, p, q) is not None for i, p in enumerate(points) for q in points[i:]
    )
    assert len(keys) < overlapping // 3
    knots = sum(xs.size for xs in keys.values())
    assert_same_bits(DYADIC, points)
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda x, *a: calls.append(x.size) or interp(x, *a))
    gram(WaveletSystem(DYADIC, points))
    # one block: each factor at every merged knot of each distinct key and
    # at every midpoint between consecutive knots
    assert len(calls) == 4
    assert sum(calls) == 2 * knots + 2 * (knots - 1)


def test_lattice_entries_scale_the_entries_at_the_origin():
    report = gram(WaveletSystem(Hat(), HAT_LATTICE_57))
    for a, p in enumerate(HAT_LATTICE_57):
        for b, q in enumerate(HAT_LATTICE_57[a:], a):
            # p = (2^i, k), q = (2^j, l) with i <= j
            i, j = (int(math.log2(x.dilation)) for x in (p, q))
            k, l = p.translation, q.translation
            unit, _ = inner_product(Hat(), P(1.0, 0.0), P(2.0 ** (j - i), l - 2.0 ** (j - i) * k))
            assert report.matrix[a, b].real.tobytes() == np.float64(2.0**-i * unit.real).tobytes()


def test_candidates_past_the_window_ends_reach_interp_once(monkeypatch):
    p, q = COLLAPSED_KEY
    xs = reference_knots(COLLAPSED_ENDS, p, q)
    expected = reference_pair(COLLAPSED_ENDS, p, q)
    _, _, r, _, s = normalized(p, q)
    first, count = _candidate_knots(
        COLLAPSED_ENDS, np.array([r]), np.array([s]), xs[:1], xs[-1:]
    )
    a, n = first[1, 0], count[1, 0]
    x = (COLLAPSED_ENDS.grid[COLLAPSED_ENDS.breaks[a : a + n]] + s) / r
    # long runs of candidates of phi(r y - s) on or past both ends of the window
    assert (x <= xs[0]).sum() > 50 and (x >= xs[-1]).sum() > 50
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda x, *a: calls.append(x.size) or interp(x, *a))
    assert inner_product(COLLAPSED_ENDS, p, q) == expected
    # each factor at the merged knots and their midpoints only, the
    # candidates clipped onto an end dropped as repeats
    assert len(calls) == 4
    assert sum(calls) == 2 * xs.size + 2 * (xs.size - 1)


magnitudes = st.sampled_from([1e-310, 1e-200, 1e-20, 1e-3, 1.0, 1e3, 1e150, 1e300])


@st.composite
def segments(draw):
    out = []
    for _ in range(draw(st.integers(1, 5))):
        scale = draw(magnitudes)
        spread = draw(st.integers(0, 120))
        n = draw(st.integers(1, 300))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * scale * 2.0 ** rng.integers(-spread, 1, n)
        if draw(st.booleans()):
            v = np.concatenate([v, -v[: n // 2]])  # cancellation
        if draw(st.booleans()):
            v[rng.integers(0, v.size, 3)] = draw(st.sampled_from([0.0, -0.0, 5e-324]))
        out.append(v)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(segs=segments())
def test_segment_fsums_match_fsum_bitwise(segs):
    pieces = np.concatenate(segs)
    starts = np.cumsum([0] + [v.size for v in segs[:-1]])
    expected = [math.fsum(v.tolist()) for v in segs]
    got = _segment_fsums(pieces, starts)
    assert np.array(expected).tobytes() == got.tobytes()


def test_segment_fsums_round_the_exact_total():
    # 1 + 2^-53 + 2^-106 lies just above a tie: each pass keeps one term, and
    # only a correctly rounded sum of the pass sums rounds up
    pieces = np.array([1.0, 2.0**-53, 2.0**-106])
    assert _segment_fsums(pieces, np.array([0]))[0] == 1.0 + 2.0**-52


def test_segment_fsums_pass_zeros_and_non_finite_pieces_through():
    pieces = np.array([-0.0, -0.0, 1.0, -1.0, 0.5, math.inf, 1.0])
    assert _segment_fsums(pieces[:4], np.array([0, 2])).tolist() == [0.0, 0.0]
    got = _segment_fsums(pieces, np.array([0, 2, 5]))
    assert got.tolist() == [0.0, 0.5, math.inf]


@pytest.mark.parametrize(
    "gen,p,q,what",
    (
        (Hat(), P(1e300, 0), P(1e-300, 0), "normalize to a key"),
        (Hat(), P(1e-300, 0), P(1e300, 0), "normalize to a key"),
        (sampled([0.0, 1e200, 0.0]), P(2, 0), P(1, 0), "overlap where products"),
        (sampled([0.0, 1e200, 0.0]), P(1, 0), P(2, 0), "overlap where products"),
    ),
    ids=("key-larger-first", "key-smaller-first", "overlap-larger-first", "overlap-smaller-first"),
)
def test_refusals_name_the_points_in_the_callers_order(gen, p, q, what):
    # the pairing swaps each pair to smaller dilation first, the message does not
    named = f"points ({p.dilation:g}, {p.translation:g}) and ({q.dilation:g}, {q.translation:g})"
    with pytest.raises(BadParameterError, match=f"^{re.escape(named)} {what}"):
        inner_product(gen, p, q)


@pytest.mark.parametrize("dilation", (6e307, 1e308, 1.7e308))
def test_bound_of_a_factor_near_the_float_maximum_is_finite_and_covers_the_entry(dilation):
    # r = dilation: 3 (1 + r) overflows, but (1 + r) times the window's
    # reach, 2 / r, is about 2
    exact = 1 / Fraction(dilation) ** 2  # int x phi(d x) dx = d^-2 int t phi(t) dt
    for p, q in ((P(dilation, 0), P(1, 0)), (P(1, 0), P(dilation, 0))):
        value, error = inner_product(Hat(), p, q)
        assert (value, error) == reference_pair(Hat(), p, q)
        assert math.isfinite(error) and value.imag == 0.0
        assert abs(Fraction(value.real) - exact) <= Fraction(error)
