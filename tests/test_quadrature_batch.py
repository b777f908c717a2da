"""Batched quadrature of unbounded generators against the entry-by-entry reference, bit for bit.

gram pairs most of these generators in closed form now; the quadrature
kernel (wavelet_system._quadrature_pairs) still pairs sech, log_exp_ratio
and rationals with clustered poles, and it is tested here on every family.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import generators, numerics, wavelet_system
from twoscale.errors import BadParameterError, NonConvergenceError
from twoscale.generators import CatalogGenerator, Gaussian, RationalL2, TwoSidedExp, catalog_ids
from twoscale.numerics import integrate_adaptive
from twoscale.wavelet_system import WaveletPoint as P
from twoscale.wavelet_system import WaveletSystem, gram

_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = 2.0**-53

# The quadrature, windows and pairing as they ran one entry at a time, each
# integral with its own integrand calls.


def reference_panels(f, lo, hi):
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * numerics._NODES
    fx = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"non-finite integrand value near x={x[~np.isfinite(fx)][0]!r}")
    value = h * (fx * numerics._WK).sum(axis=1)
    err = np.abs(value - h * (fx * numerics._WG).sum(axis=1))
    resabs = np.abs(h) * (np.abs(fx) * numerics._WK).sum(axis=1)
    resasc = np.abs(h) * (np.abs(fx - (value / (hi - lo))[:, None]) * numerics._WK).sum(axis=1)
    small = 200.0 * err < resasc
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=small)
    err = np.where(resasc != 0.0, resasc * ratio**1.5, err)
    return value, np.maximum(err, 4.0 * _EPS * resabs), resabs


def reference_integrate(f, a, b, tol, max_evals=10**6, breakpoints=()):
    """(value, error, integral of |f|, evaluations) of one integral."""
    if not (a < b):
        raise ValueError("integration bounds must satisfy a < b")
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    edges = [a]
    for x in sorted({float(x) for x in breakpoints if a < x < b}):
        if min(x - edges[-1], b - x) > 8.0 * _EPS * max(abs(x), 1.0):
            edges.append(x)
    edges.append(b)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    value, err, resabs = reference_panels(f, lo, hi)
    evaluations = 15 * lo.size
    while (total := math.fsum(err)) > tol:
        splittable = hi - lo > 8.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        split = splittable & (err > tol * (hi - lo) / (b - a))
        if not split.any():
            split = splittable & (err > 0.0)
        if not split.any():
            raise NonConvergenceError(f"quadrature stalled at error {total:.3e} > tol {tol:.3e}")
        if evaluations + 30 * int(split.sum()) > max_evals:
            raise NonConvergenceError(
                f"evaluation budget {max_evals} exhausted at error {total:.3e} > tol {tol:.3e}"
            )
        keep, mid = ~split, 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_value, new_err, new_resabs = reference_panels(f, new_lo, new_hi)
        evaluations += 15 * new_lo.size
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])
        resabs = np.concatenate([resabs[keep], new_resabs])
    value = complex(math.fsum(value.real), math.fsum(value.imag))
    return value, total, math.fsum(resabs), evaluations


def reference_tail_window(lo, hi, radius, tail, tol):
    while (bound := tail(radius)) > 0.25 * tol:
        radius *= 2.0
    return lo - radius, hi + radius, bound


def reference_window(gen, p, q, tol):
    lp, bp, lq, bq = p.dilation, p.translation, q.dilation, q.translation
    if isinstance(gen, Gaussian):
        rate = lp * lp + lq * lq
        center = (lp * bp + lq * bq) / rate
        try:
            cross = (lp * bq - lq * bp) ** 2 / rate
        except OverflowError:
            cross = math.inf
        peak = math.exp(-cross)
        start = max(1.0, 1.0 / math.sqrt(rate))
        return reference_tail_window(
            center, center, start, lambda r: peak * math.exp(-rate * r * r) / (rate * r), tol
        )
    if isinstance(gen, TwoSidedExp):
        lo, hi = sorted((bp / lp, bq / lq))
        rate = gen.n * (lp + lq)

        def tail(r):
            x = np.array([lo - r, hi + r])
            return float(np.sum(np.abs(gen(lp * x - bp) * gen(lq * x - bq)))) / rate

        return reference_tail_window(lo, hi, 1.0, tail, tol)
    if isinstance(gen, RationalL2):
        m, u0 = gen._envelope_constants()
        power = gen.decay_power
        radius = max(1.0, 2.0 * abs(bp) / lp, 2.0 * abs(bq) / lq, 2.0 * u0 / lp, 2.0 * u0 / lq)
        prefactor = m * m * (4.0 / (lp * lq)) ** power
        return reference_tail_window(
            0.0, 0.0, radius, lambda r: 2.0 * prefactor * r ** (1 - 2 * power) / (2 * power - 1),
            tol,
        )
    entry = gen._entry
    if entry.ft_support is not None:
        reach = max(abs(entry.ft_support[0]), abs(entry.ft_support[1])) * min(lp, lq)
        return -reach, reach, 0.0
    k, rate, start = entry.ft_envelope
    pair_rate = rate * (1.0 / lp + 1.0 / lq)
    prefactor = 2.0 * k * k / (lp * lq)
    return reference_tail_window(
        0.0, 0.0, max(1.0, start * max(lp, lq)),
        lambda r: prefactor * math.exp(-pair_rate * r) / pair_rate, tol,
    )


def reference_geometric_edges(origins, unit, lo, hi):
    edges = []
    for a in origins:
        reach = max(a - lo, hi - a)
        count = math.ceil(math.log2(reach) - math.log2(unit)) if reach > unit else 0
        steps = unit * 2.0 ** np.arange(count)
        edges.extend([a, *(a - steps), *(a + steps)])
    return edges


def reference_pair(gen, p, q, tol, calls=None):
    """inner_product of an unbounded generator, one entry at a time."""
    lp, bp, lq, bq = p.dilation, p.translation, q.dilation, q.translation
    lo, hi, tail = reference_window(gen, p, q, tol)
    if isinstance(gen, CatalogGenerator):
        shift, scale, ft = bp / lp - bq / lq, 1.0 / (lp * lq), gen.ft

        def integrand(g):
            return scale * ft(g / lp) * np.conj(ft(g / lq)) * np.exp(-2.0j * np.pi * shift * g)

        edges = [k * pt.dilation for k in gen.kinks for pt in (p, q)]
        edges += reference_geometric_edges((0.0,), min(lp, lq), lo, hi)
        rounding = 0.0
    else:

        def integrand(x):
            return gen(lp * x - bp) * np.conj(gen(lq * x - bq))

        edges = [(k + pt.translation) / pt.dilation for k in gen.kinks for pt in (p, q)]
        edges += reference_geometric_edges((bp / lp, bq / lq), 1.0 / max(lp, lq), lo, hi)
        rounding = 8.0 * _UNIT_ROUNDOFF * (1.0 + abs(bp) + abs(bq))

    def counted(x):
        if calls is not None:
            calls.append(x.size)
        return integrand(x)

    value, err, abs_integral, _ = reference_integrate(counted, lo, hi, 0.5 * tol, breakpoints=edges)
    return value, err + rounding * abs_integral + tail


def reference_gram(gen, points, tol):
    """Matrix, quad_error and the upper triangle's error bounds (row by row)
    as the entry-by-entry loop filled them."""
    n = len(points)
    matrix = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    errors = []
    for i in range(n):
        for j in range(i, n):
            value, err = reference_pair(gen, points[i], points[j], tol)
            matrix[i, j] = value
            matrix[j, i] = np.conj(value)
            worst = max(worst, err)
            errors.append(err)
    return matrix, worst, np.array(errors)


def quadrature_triangle(gen, points, tol=1e-10):
    """Values and error bounds of the quadrature kernel on the upper triangle, in one batch."""
    rows, cols = np.triu_indices(len(points))
    lam = np.array([p.dilation for p in points])
    beta = np.array([p.translation for p in points])
    return wavelet_system._quadrature_pairs(gen, lam[rows], beta[rows], lam[cols], beta[cols], tol)


def triangle_matrix(values, n):
    """The Hermitian matrix whose upper triangle is values, as gram mirrors it."""
    rows, cols = np.triu_indices(n)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[rows, cols] = values
    matrix[cols, rows] = np.conjugate(values)
    return matrix


def assert_same_bits(gen, points, tol=1e-10):
    matrix, worst, reference_errors = reference_gram(gen, points, tol)
    values, errors = quadrature_triangle(gen, points, tol)
    assert triangle_matrix(values, len(points)).tobytes() == matrix.tobytes()
    assert errors.tobytes() == reference_errors.tobytes()
    quad_error = np.fmax.reduce(errors, initial=0.0)
    assert np.float64(quad_error).tobytes() == np.float64(worst).tobytes()


GENERATORS = (
    Gaussian(),
    TwoSidedExp(1),
    TwoSidedExp(2),
    RationalL2([1.0], [1.0, 0.0, 1.0]),
    RationalL2([0.0, 1.0], [1.0, 0.0, 1.0]),
    *(CatalogGenerator(cid) for cid in catalog_ids()),
)
GENERATOR_IDS = ("gaussian", "exp1", "exp2", "lorentz", "odd", *catalog_ids())
DECAY_POINTS_8 = tuple(
    P(*pt)
    for pt in ((1, 0), (2, 1), (3, -1), (1, 1), (2, 0), (2, 3), (4, 2), (0.5, 1))
)


@st.composite
def systems(draw):
    gen = draw(st.sampled_from(GENERATORS))
    count = draw(st.integers(2, 6))
    dilations = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) | st.floats(0.25, 4.0)
    translations = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)
    points = draw(
        st.lists(st.tuples(dilations, translations), min_size=count, max_size=count, unique=True)
    )
    tol = draw(st.sampled_from([1e-10, 1e-8]))
    return gen, [P(lam, beta) for lam, beta in points], tol


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=systems())
def test_gram_matches_entry_by_entry_bitwise(case):
    gen, points, tol = case
    assert_same_bits(gen, points, tol)


@pytest.mark.parametrize(
    "gen,points",
    (
        # F1: the kink of exp(-|x|) at beta/lambda between the nodes of a panel
        (TwoSidedExp(1), (P(1.0, -0.9), P(1.5, 0.2))),
        # F2: the annulus tents overlap on 1.99 <= |gamma| <= 2 only
        (CatalogGenerator("ft_annulus_tent"), (P(1.0, 0.0), P(1.99, 0.0))),
        # F4: products far narrower than the truncation window
        (RationalL2([0.0, 1.0], [1.0, 0.0, 1.0]), (P(1, 0), P(2, 0))),
        (RationalL2([1.0], [1.0, 0.0, 1.0]), (P(1000, 3e6), P(1000, 3e6 + 0.5))),
        *((gen, DECAY_POINTS_8) for gen in GENERATORS),
    ),
    ids=("F1", "F2", "F4-odd", "F4-far", *(f"{name}-8" for name in GENERATOR_IDS)),
)
def test_fixed_systems_match_bitwise(gen, points):
    assert_same_bits(gen, list(points))


@pytest.mark.parametrize("block", (1, 7, 10**6))
@pytest.mark.parametrize(
    "gen,points",
    (
        (RationalL2([1.0], [1.0, 0.0, 1.0]), DECAY_POINTS_8[:5]),
        (TwoSidedExp(1), DECAY_POINTS_8[:4]),
        (CatalogGenerator("log_exp_ratio"), DECAY_POINTS_8[:3]),
    ),
    ids=("lorentz", "exp1", "log_exp_ratio"),
)
def test_panel_block_leaves_bytes_unchanged(monkeypatch, block, gen, points):
    before = quadrature_triangle(gen, points)
    monkeypatch.setattr(numerics, "_PANEL_BLOCK", block)
    after = quadrature_triangle(gen, points)
    assert after[0].tobytes() == before[0].tobytes()
    assert after[1].tobytes() == before[1].tobytes()


@pytest.mark.parametrize(
    "gen",
    (
        CatalogGenerator("sech"),
        CatalogGenerator("log_exp_ratio"),
        # double poles at +-i: too close together to pair by residues
        RationalL2([1.0], [1.0, 0.0, 2.0, 0.0, 1.0]),
    ),
    ids=("sech", "log_exp_ratio", "double-pole"),
)
def test_gram_pairs_generators_without_closed_form_by_quadrature(gen):
    points = list(DECAY_POINTS_8[:5])
    values, errors = quadrature_triangle(gen, points)
    report = gram(WaveletSystem(gen, points))
    assert report.matrix.tobytes() == triangle_matrix(values, len(points)).tobytes()
    assert report.quad_error == np.fmax.reduce(errors, initial=0.0)


def record_quadrature_calls(monkeypatch):
    """Node counts of the integrand calls made by quadrature (windows make none here)."""
    sizes = []
    factory = generators.GeneratorSpec.pair_integrand

    def recording(self, *params):
        integrand = factory(self, *params)

        def wrapped(x, pair):
            sizes.append(x.size)
            return integrand(x, pair)

        return wrapped

    monkeypatch.setattr(generators.GeneratorSpec, "pair_integrand", recording)
    return sizes


def test_one_integrand_call_per_round(monkeypatch):
    gen = RationalL2([1.0], [1.0, 0.0, 1.0])
    points = list(DECAY_POINTS_8)
    # alone, entry k makes one call per round
    rounds = []
    for i in range(len(points)):
        for j in range(i, len(points)):
            calls = []
            reference_pair(gen, points[i], points[j], 1e-10, calls)
            rounds.append(calls)
    per_round = [
        sum(calls[r] for calls in rounds if r < len(calls))
        for r in range(max(len(calls) for calls in rounds))
    ]
    sizes = record_quadrature_calls(monkeypatch)
    monkeypatch.setattr(numerics, "_PANEL_BLOCK", 10**6)
    quadrature_triangle(gen, points, 1e-10)
    assert sizes == per_round
    # in blocks, each round's nodes come in calls of at most one block each
    sizes.clear()
    monkeypatch.setattr(numerics, "_PANEL_BLOCK", 256)
    quadrature_triangle(gen, points, 1e-10)
    block = 15 * 256
    expected = []
    for nodes in per_round:
        expected += [block] * (nodes // block) + [nodes % block] * (nodes % block > 0)
    assert max(per_round) > block and sizes == expected


def batch_of(fs, a, b, tol, max_evals=10**6):
    """integrate_adaptive on the integrals fs[k] over [a[k], b[k]] as one batch."""

    def f(x, owner):
        out = np.empty(x.size, dtype=np.complex128)
        for k, fk in enumerate(fs):
            mine = owner == k
            out[mine] = fk(x[mine])
        return out

    return integrate_adaptive(f, np.array(a), np.array(b), np.array(tol), max_evals=max_evals)


def nan_above_half(x):
    return np.where(x > 0.5, np.nan, 1.0)


def nan_in_two_gaps(x):
    # first met in the second round, in a left half and in a right half
    gaps = (np.abs(x - 0.15) < 0.002) | (np.abs(x - 0.65) < 0.002)
    return np.where(gaps, np.nan, np.abs(x - 0.37))


def kink(x):
    return np.abs(x - 1.0 / 3.0)


FAILING = (
    # stalls: the rounding estimate stays above tol down to the bisection floor
    (np.ones_like, 1.0, 1.0 + 64.0 * _EPS, 1e-40, 400, NonConvergenceError),
    # one panel splits per round, until the budget of 100 evaluations is spent
    (kink, 0.0, 1.0, 1e-15, 100, NonConvergenceError),
    (nan_above_half, 0.0, 1.0, 1e-10, 400, ValueError),
    (nan_in_two_gaps, 0.0, 1.0, 1e-12, 400, ValueError),
)


@pytest.mark.parametrize("position", (0, 1, 2))
@pytest.mark.parametrize(
    "failing", FAILING, ids=("stall", "budget", "non-finite", "non-finite-later")
)
def test_failing_integral_raises_its_own_error(position, failing):
    f, a, b, tol, max_evals, error = failing
    with pytest.raises(error) as alone:
        reference_integrate(f, a, b, tol, max_evals=max_evals)
    fs, lo, hi, tols = [np.cos, np.exp], [0.0, -1.0], [2.0, 1.0], [1e-12, 1e-12]
    fs.insert(position, f)
    lo.insert(position, a)
    hi.insert(position, b)
    tols.insert(position, tol)
    with pytest.raises(error) as batch:
        batch_of(fs, lo, hi, tols, max_evals=max_evals)
    assert str(batch.value) == str(alone.value)


def test_lowest_failing_integral_is_reported():
    # the budget runs out in a later round than the non-finite value shows
    fs = [np.cos, kink, nan_above_half]
    with pytest.raises(NonConvergenceError, match="budget") as batch:
        batch_of(fs, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1e-12, 1e-15, 1e-10], max_evals=100)
    with pytest.raises(NonConvergenceError) as alone:
        reference_integrate(kink, 0.0, 1.0, 1e-15, max_evals=100)
    assert str(batch.value) == str(alone.value)


def test_batch_values_are_those_of_each_integral_alone():
    fs = [np.cos, lambda x: np.abs(x - 0.3), lambda x: np.exp(1j * x)]
    a, b, tol = [0.0, -1.0, 0.0], [2.0, 1.0, 3.0], [1e-12, 1e-9, 1e-11]
    batch = batch_of(fs, a, b, tol)
    evaluations = 0
    for k, f in enumerate(fs):
        alone = integrate_adaptive(f, a[k], b[k], tol[k])
        value, error, abs_integral, count = reference_integrate(f, a[k], b[k], tol[k])
        assert batch.value[k] == alone.value == value
        assert batch.error_estimate[k] == alone.error_estimate == error
        assert batch.abs_integral[k] == alone.abs_integral == abs_integral
        assert alone.evaluations == count
        evaluations += count
    assert batch.evaluations == evaluations


def test_gaussian_window_collapse_names_both_points():
    # the window's radius vanishes in rounding next to a centre near 2e299;
    # gram pairs these points in closed form (test_closed_form_pairing)
    with pytest.raises(BadParameterError, match=r"points \(2\.47, 1\.1\) and \(3\.11, 1e\+300\)"):
        quadrature_triangle(Gaussian(), [P(2.47, 1.1), P(3.11, 1e300)])
    pair = (np.array([v]) for v in (2.47, 1.1, 3.11, 1e300))
    with pytest.raises(BadParameterError, match="pairing window"):
        wavelet_system._quadrature_pairs(Gaussian(), *pair, 1e-10)


def test_breakpoints_within_the_floor_seed_as_alone():
    # 0.5 + 4e-16 and 0.5 + 8e-16 fall within the bisection floor of 0.5 and
    # are dropped; 0.5 + 2.2e-15 is then measured from 0.5, not from them
    cluster = [0.5, 0.5 + 4e-16, 0.5 + 8e-16, 0.5 + 2.2e-15, 0.9, 1.0 - 1e-16]
    fs = [lambda x: np.abs(x - 0.5), np.cos]
    points = np.array(cluster + [0.25, 0.5])
    owner = np.array([0] * len(cluster) + [1, 1])
    batch = integrate_adaptive(
        lambda x, k: np.where(k == 0, fs[0](x), fs[1](x)), np.zeros(2), np.ones(2), 1e-12,
        breakpoints=(points, owner),
    )
    for k, edges in enumerate((cluster, [0.25, 0.5])):
        value, error, _, count = reference_integrate(fs[k], 0.0, 1.0, 1e-12, breakpoints=edges)
        assert (batch.value[k], batch.error_estimate[k]) == (value, error)
    first = reference_integrate(fs[0], 0.0, 1.0, 1e-12, breakpoints=cluster)[3]
    assert batch.evaluations == first + count
