"""Quadrature and fixed-step pairings of unbounded generators, against references.

gram pairs every generator with a time-domain form in closed form.
Adaptive quadrature in time, one integral per entry
(tests/conftest.py::reference_pairs), is the reference for those closed
forms (tests/test_closed_form_pairing.py); here it is checked against gram
on a double pole, and it refuses a window that collapses in rounding.

sech and log_exp_ratio pair by fixed-step rules (CatalogGenerator.pair):
the trapezoidal rule and the SE-Sinc rule on the real cosine integral
2 / (lp lq) int_0^inf ft(g / lp) ft(g / lq) cos(omega g) dg,
with steps and truncations from a priori bounds.  Their oracles: the same
rule at half the step over twice the range of nodes lies within each
entry's bound; gram gives the bits of the entries paired one at a time,
whatever the blocks; and the old full-line complex integral, by adaptive
quadrature, agrees within both bounds (this oracle also checks the fold,
which rests on every catalog transform being real and even or odd, and the
closed forms of the band-limited entries).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forbid_adaptive_quadrature, geometric_edges, reference_pairs
from twoscale import generators
from twoscale.errors import BadParameterError, BudgetExceededError
from twoscale.generators import CatalogGenerator, Gaussian, RationalL2, TwoSidedExp, catalog_ids
from twoscale.numerics import integrate_adaptive
from twoscale.wavelet_system import WaveletPoint as P
from twoscale.wavelet_system import WaveletSystem, gram, inner_product

# The Fourier-side windows as they ran one entry at a time.


def reference_tail_window(lo, hi, radius, tail, tol):
    while (bound := tail(radius)) > 0.25 * tol:
        radius *= 2.0
    return lo - radius, hi + radius, bound


def reference_window(gen, p, q, tol):
    """The Fourier-side window (-R, R, tail) of a catalog generator."""
    lp, bp, lq, bq = p.dilation, p.translation, q.dilation, q.translation
    entry = gen._entry
    if entry.ft_envelope is None:  # band-limited: the transform vanishes past its last kink
        reach = max(FT_KINKS[gen.catalog_id]) * min(lp, lq)
        return -reach, reach, 0.0
    k, rate, start = entry.ft_envelope
    pair_rate = rate * (1.0 / lp + 1.0 / lq)
    prefactor = 2.0 * k * k / (lp * lq)
    return reference_tail_window(
        0.0, 0.0, max(1.0, start * max(lp, lq)),
        lambda r: prefactor * math.exp(-pair_rate * r) / pair_rate, tol,
    )


def triangle_params(points):
    """Arrays (lp, bp, lq, bq) of the upper triangle of a list of points."""
    rows, cols = np.triu_indices(len(points))
    lam = np.array([p.dilation for p in points])
    beta = np.array([p.translation for p in points])
    return lam[rows], beta[rows], lam[cols], beta[cols]


def quadrature_triangle(gen, points, tol=1e-10):
    """Values and error bounds on the upper triangle, as arrays: by adaptive
    quadrature in time for a generator with a time-domain form
    (reference_pairs), and for a catalog generator by the Fourier-side
    pairing that gram uses (a fixed-step rule, or the closed form of a
    band-limited entry)."""
    if isinstance(gen, CatalogGenerator):
        return gen.pair(*triangle_params(points), tol)
    return reference_pairs(gen, *triangle_params(points), tol)


def triangle_matrix(values, n):
    """The Hermitian matrix whose upper triangle is values, as gram mirrors it."""
    rows, cols = np.triu_indices(n)
    values = np.asarray(values, dtype=np.complex128)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[rows, cols] = values
    matrix[cols, rows] = np.conjugate(values)
    return matrix


# double poles at +-i, which np.roots returns about 1e-8 apart
DOUBLE_POLE = RationalL2([1.0], [1.0, 0.0, 2.0, 0.0, 1.0])
FIXED_RULE_IDS = ("sech", "log_exp_ratio")
DECAY_POINTS_8 = tuple(
    P(*pt)
    for pt in ((1, 0), (2, 1), (3, -1), (1, 1), (2, 0), (2, 3), (4, 2), (0.5, 1))
)


@pytest.mark.parametrize("gen", (DOUBLE_POLE,), ids=("double-pole",))
def test_gram_agrees_with_quadrature(gen):
    points = list(DECAY_POINTS_8[:5])
    values, errors = quadrature_triangle(gen, points)
    report = gram(WaveletSystem(gen, points))
    rows, cols = np.triu_indices(len(points))
    miss = np.abs(report.matrix[rows, cols] - values)
    assert np.all(miss <= report.quad_error + errors)


@pytest.mark.parametrize(
    "gen",
    (
        Gaussian(),
        TwoSidedExp(1),
        TwoSidedExp(2),
        RationalL2([1.0], [1.0, 0.0, 1.0]),
        RationalL2([0.0, 1.0], [1.0, 0.0, 1.0]),
        DOUBLE_POLE,
    ),
    ids=("gaussian", "exp1", "exp2", "lorentz", "odd", "double-pole"),
)
def test_gram_agrees_with_quadrature_on_decay_8(gen):
    # every entry of the whole 8-point system, the reference running on each
    # family with a time-domain form
    points = list(DECAY_POINTS_8)
    values, errors = quadrature_triangle(gen, points)
    report = gram(WaveletSystem(gen, points))
    rows, cols = np.triu_indices(len(points))
    assert np.all(np.abs(values.imag) <= errors)
    miss = np.abs(report.matrix[rows, cols] - values)
    assert np.all(miss <= report.quad_error + errors), (miss, report.quad_error, errors)


def half_step_entries(gen, points, tol=1e-10):
    """Each entry by the same fixed-step rule at half the step, over twice the
    range of nodes: twice the reach of the trapezoidal rule of sech, twice the
    span in t of the SE-Sinc rule (half of it beyond each end); one entry at a
    time, summed by math.fsum."""
    params = triangle_params(points)
    integrand, h, first, count, exponential, _, _ = gen.pair_fixed_rule(*params, tol)
    values = []
    for k in range(h.size):
        last = first[k] + count[k] - 1
        if exponential:
            span = last - first[k]
            index = np.arange(2 * first[k] - span, 2 * last + span + 1)
        else:
            index = np.arange(4 * last + 1)
        step = 0.5 * h[k]
        nodes = index * step
        weight = np.full(index.size, step)
        if exponential:
            nodes = np.exp(nodes)
            weight *= nodes
        else:
            weight[0] *= 0.5
        values.append(math.fsum(weight * integrand(nodes, np.full(index.size, k))))
    return np.array(values)


FIXED_RULE_POINTS = (
    DECAY_POINTS_8,
    # wide and narrow factors, and origins 7.5 apart
    (P(0.05, 0.0), P(0.1, 0.01), P(20.0, 1.0), P(1.0, 7.5), P(1.0, 0.0)),
)


@pytest.mark.parametrize("points", FIXED_RULE_POINTS, ids=("decay-8", "spread"))
@pytest.mark.parametrize("catalog_id", FIXED_RULE_IDS)
def test_fixed_rule_at_half_the_step_agrees_within_the_bound(monkeypatch, catalog_id, points):
    gen = CatalogGenerator(catalog_id)
    forbid_adaptive_quadrature(monkeypatch)
    values, errors = quadrature_triangle(gen, list(points))
    oracle = half_step_entries(gen, list(points))
    assert np.all(np.abs(values - oracle) <= errors)
    assert np.all(errors <= 1e-10)


def halving_lower_truncation(lp, lq, scale, log_target):
    """delta and its log bound by plain halving, the reference for
    _lower_truncation: halve delta from min(lp, lq) / e, one numpy pass at a
    time, until each entry's bound is within the target."""
    log_lp, log_lq = np.log(lp), np.log(lq)
    delta = np.minimum(lp, lq) / math.e
    log_lower = np.empty(lp.size)
    i = np.arange(lp.size)
    while i.size:
        log_delta = np.log(delta[i])
        root = 0.5 * (log_lp[i] + log_lq[i]) - log_delta
        log_lower[i] = (
            np.log(scale[i] / 12.0) - log_lp[i] - log_lq[i] + 3.0 * log_delta
            + np.log(root * root + 2.0 * root / 3.0 + 2.0 / 9.0)
        )
        i = i[log_lower[i] > log_target]
        delta[i] *= 0.5
    return delta, log_lower


@pytest.mark.parametrize("tol", (1e-2, 1e-10, 1e-12, 1e-300))
@pytest.mark.parametrize(
    "dilations",
    (
        triangle_params(DECAY_POINTS_8)[::2],
        (np.geomspace(1e-6, 1e6, 61), 0.7 * np.geomspace(1e-6, 1e6, 61)[::-1]),
    ),
    ids=("decay-8", "spread"),
)
def test_lower_truncation_starts_near_its_halving_count(dilations, tol):
    lp, lq = dilations
    scale = 2.0 / (lp * lq)
    log_target = math.log(0.125 * tol)
    delta, log_lower = generators._lower_truncation(lp, lq, scale, log_target)
    reference = halving_lower_truncation(lp, lq, scale, log_target)
    assert delta.tobytes() == reference[0].tobytes()
    assert log_lower.tobytes() == reference[1].tobytes()


@pytest.mark.parametrize(
    "limit,block",
    (("_NODE_BLOCK", 1), ("_NODE_BLOCK", 7), ("_NODE_BLOCK", 10**6),
     ("_RULE_ENTRIES", 1), ("_RULE_ENTRIES", 5)),
    ids=("1", "7", "1000000", "entries-1", "entries-5"),
)
@pytest.mark.parametrize("catalog_id", FIXED_RULE_IDS)
def test_fixed_rule_node_blocks_leave_bits_unchanged(monkeypatch, catalog_id, limit, block):
    gen, points = CatalogGenerator(catalog_id), list(DECAY_POINTS_8)
    rows, cols = np.triu_indices(len(points))
    alone = [inner_product(gen, points[i], points[j]) for i, j in zip(rows, cols)]
    monkeypatch.setattr(generators, limit, block)
    report = gram(WaveletSystem(gen, points))
    values = [value for value, _ in alone]
    assert report.matrix.tobytes() == triangle_matrix(values, len(points)).tobytes()
    assert report.quad_error == max(error for _, error in alone)


def test_fixed_rule_set_up_memory_stays_bounded_in_the_entries():
    # 200 points, 20,100 entries: the rule set up for all entries at once
    # held about 0.85 kB an entry and peaked at 18 MiB here
    rng = np.random.default_rng(0)
    dilations, translations = rng.choice([1.0, 2.0, 4.0], 200), rng.uniform(-3.0, 3.0, 200)
    points = dict.fromkeys(zip(dilations.tolist(), translations.tolist()))
    system = WaveletSystem(CatalogGenerator("log_exp_ratio"), [P(*p) for p in points])
    tracemalloc.start()
    try:
        gram(system, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@st.composite
def fixed_rule_systems(draw):
    gen = CatalogGenerator(draw(st.sampled_from(FIXED_RULE_IDS)))
    count = draw(st.integers(2, 4))
    dilations = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) | st.floats(0.25, 4.0)
    translations = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)
    points = draw(
        st.lists(st.tuples(dilations, translations), min_size=count, max_size=count, unique=True)
    )
    tol = draw(st.sampled_from([1e-10, 1e-8]))
    return gen, [P(lam, beta) for lam, beta in points], tol


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=fixed_rule_systems())
def test_fixed_rule_entries_lie_within_their_bounds(case):
    gen, points, tol = case
    values, errors = quadrature_triangle(gen, points, tol)
    report = gram(WaveletSystem(gen, points), tol)
    assert report.matrix.tobytes() == triangle_matrix(values, len(points)).tobytes()
    assert np.all(np.abs(values - half_step_entries(gen, points, tol)) <= errors)
    assert report.quad_error <= tol


@pytest.mark.parametrize("catalog_id", FIXED_RULE_IDS)
def test_node_budget_is_checked_before_any_node_is_formed(monkeypatch, catalog_id):
    # origins 2e300 apart: a step of about 2 pi / |omega| = 5e-301
    sizes = record_fourier_calls(monkeypatch)
    system = WaveletSystem(CatalogGenerator(catalog_id), [P(1.0, 1e300), P(1.0, -1e300)])
    tracemalloc.start()
    try:
        with pytest.raises(
            BudgetExceededError, match=r"points \(1, 1e\+300\) and \(1, -1e\+300\) need .* budget"
        ):
            gram(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [] and peak < 2**20


# The parity of each catalog transform, which the Fourier-side fold rests on,
# and the points where it is not smooth.
FT_PARITY = {"ft_annulus_tent": 1.0, "ft_box": 1.0, "log_exp_ratio": -1.0, "sech": 1.0}
FT_KINKS = {
    "ft_annulus_tent": (-2.0, -1.5, -1.0, 1.0, 1.5, 2.0),
    "ft_box": (-0.5, 0.5),
    "log_exp_ratio": (0.0,),
    "sech": (),
}


@pytest.mark.parametrize("catalog_id", catalog_ids())
def test_catalog_transforms_are_real_and_even_or_odd(catalog_id):
    ft = generators._CATALOG[catalog_id].ft
    half = np.concatenate(
        [[0.0], np.linspace(1e-3, 40.0, 4001), [226.5, 708.9, 709.8, 710.0, 750.0, 1e3, 1e5]]
    )
    grid = np.concatenate([-half[::-1], half])
    values = ft(grid)
    assert values.dtype == np.float64
    # equal value for value (a zero may change its sign)
    assert np.array_equal(ft(-grid), FT_PARITY[catalog_id] * values)


def full_line_pair(gen, p, q, tol):
    """The Fourier-side pairing as it was integrated before the fold: the
    complex product over the whole window [-R, R], with no rounding term.
    Returns the value, its error bound and the evaluations."""
    lp, bp, lq, bq = p.dilation, p.translation, q.dilation, q.translation
    lo, hi, tail = reference_window(gen, p, q, tol)
    shift, scale, ft = bp / lp - bq / lq, 1.0 / (lp * lq), gen.ft

    def integrand(g):
        return scale * ft(g / lp) * np.conj(ft(g / lq)) * np.exp(-2.0j * np.pi * shift * g)

    edges = [k * pt.dilation for k in FT_KINKS[gen.catalog_id] for pt in (p, q)]
    edges += geometric_edges((0.0,), min(lp, lq), lo, hi)
    result = integrate_adaptive(integrand, lo, hi, 0.5 * tol, breakpoints=edges)
    return result.value, result.error_estimate + tail, result.evaluations


@pytest.mark.parametrize("catalog_id", catalog_ids())
def test_folded_pairings_agree_with_the_full_line_integral(catalog_id):
    gen = CatalogGenerator(catalog_id)
    points = list(DECAY_POINTS_8)
    values, errors = quadrature_triangle(gen, points)
    assert values.dtype == np.float64
    rows, cols = np.triu_indices(len(points))
    for value, error, i, j in zip(values, errors, rows, cols):
        oracle, oracle_error, _ = full_line_pair(gen, points[i], points[j], 1e-10)
        assert abs(value - oracle) <= error + oracle_error
        assert abs(oracle.imag) <= oracle_error


@pytest.mark.parametrize(
    "catalog_id,full_line_evaluations", (("sech", 16_440), ("log_exp_ratio", 66_360))
)
def test_folded_gram_is_real_at_half_the_evaluations(
    monkeypatch, catalog_id, full_line_evaluations
):
    # the fixed-step rules take at most a quarter of the evaluations of the
    # full-line adaptive quadrature, and no quadrature at all
    gen, points = CatalogGenerator(catalog_id), list(DECAY_POINTS_8)
    rows, cols = np.triu_indices(len(points))
    oracle = sum(full_line_pair(gen, points[i], points[j], 1e-10)[2] for i, j in zip(rows, cols))
    assert oracle == full_line_evaluations
    sizes = record_fourier_calls(monkeypatch)
    forbid_adaptive_quadrature(monkeypatch)
    report = gram(WaveletSystem(gen, points))
    assert np.all(report.matrix.imag == 0.0)
    assert 0 < sum(sizes) <= full_line_evaluations // 4


def record_fourier_calls(monkeypatch):
    """Node counts of the calls of the folded Fourier-side products."""
    sizes = []
    factory = CatalogGenerator.ft_pair_integrand

    def recording(self, *params):
        integrand = factory(self, *params)

        def wrapped(g, pair):
            sizes.append(g.size)
            return integrand(g, pair)

        return wrapped

    monkeypatch.setattr(CatalogGenerator, "ft_pair_integrand", recording)
    return sizes


def test_gaussian_window_collapse_names_both_points():
    # the window's radius vanishes in rounding next to a centre near 2e299;
    # gram pairs these points in closed form (test_closed_form_pairing)
    with pytest.raises(BadParameterError, match=r"points \(2\.47, 1\.1\) and \(3\.11, 1e\+300\)"):
        quadrature_triangle(Gaussian(), [P(2.47, 1.1), P(3.11, 1e300)])
    pair = (np.array([v]) for v in (2.47, 1.1, 3.11, 1e300))
    with pytest.raises(BadParameterError, match="pairing window"):
        reference_pairs(Gaussian(), *pair, 1e-10)
