"""Gram matrices, numeric verdicts and the certificate engine."""

import ast
import bisect
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    forbid_adaptive_quadrature,
    gaussian_gram_closed_form,
    hat_gram_closed_form,
    smooth_bump_generator,
)
from twoscale import numerics, wavelet_system
from twoscale.errors import BadParameterError, DuplicatePointError
from twoscale.generators import (
    CatalogGenerator,
    Gaussian,
    GeneratorSpec,
    Hat,
    RationalL2,
    RefinementGenerator,
    SampledGenerator,
    TwoSidedExp,
)
from twoscale.refinement import SampledFunction, preset
from twoscale.wavelet_system import (
    WaveletPoint,
    WaveletSystem,
    analyze,
    certify,
    gram,
    gram_report_from_matrix,
    inner_product,
    numeric_verdict,
)

P = WaveletPoint

HAT_LATTICE = (P(1, 0), P(2, 0), P(2, 1), P(2, 2))
HAT_NULL = np.array([1.0, -0.5, -1.0, -0.5]) / math.sqrt(2.5)


def aligned(vec, target):
    """Distance up to global sign/phase, for eigenvector comparisons."""
    v = np.asarray(vec, dtype=complex)
    pivot = v[np.argmax(np.abs(v))]
    v = v * (abs(pivot) / pivot)
    d1 = np.max(np.abs(v - target))
    d2 = np.max(np.abs(v + target))
    return min(d1, d2)


def two_sided_exp_pair(n, p, q):
    """Closed form of int exp(-n|lp x - bp|) exp(-n|lq x - bq|) dx.

    The exponent is linear on each side of and between the two kinks.
    """
    k1, k2 = sorted((p.translation / p.dilation, q.translation / q.dilation))

    def exponent(x):
        return -n * (abs(p.dilation * x - p.translation) + abs(q.dilation * x - q.translation))

    tails = (math.exp(exponent(k1)) + math.exp(exponent(k2))) / (n * (p.dilation + q.dilation))
    if k2 == k1:
        return tails
    slope = (exponent(k2) - exponent(k1)) / (k2 - k1)
    if slope == 0.0:
        return tails + (k2 - k1) * math.exp(exponent(k1))
    return tails + (math.exp(exponent(k2)) - math.exp(exponent(k1))) / slope


def cauchy_pair(p, q):
    """Closed form of int dx / ((1 + (lp x - bp)^2)(1 + (lq x - bq)^2)).

    Each factor is (pi / l) times a Cauchy density centred at b / l with
    scale 1 / l; the product of two such densities integrates to a Cauchy
    density with the summed scale s, evaluated at the distance d of the
    centres.
    """
    s = 1.0 / p.dilation + 1.0 / q.dilation
    d = p.translation / p.dilation - q.translation / q.dilation
    return (math.pi / p.dilation) * (math.pi / q.dilation) * s / (math.pi * (s * s + d * d))


def gaussian_pair(p, q):
    return gaussian_gram_closed_form([p, q])[0, 1]


def exact_sampled_pair(gen, p, q):
    """<f(lp x - bp), f(lq x - bq)> in rational arithmetic, f the interpolant.

    The product is quadratic between merged knots, so Simpson's rule on each
    piece, evaluated exactly, is the exact integral of the float inputs.
    """
    t = [Fraction(float(x)) for x in gen.grid]
    v = [Fraction(float(y)) for y in gen.values]
    s_lo, s_hi = (Fraction(x) for x in gen.time_support())
    lp, bp, lq, bq = (Fraction(x) for x in (p.dilation, p.translation, q.dilation, q.translation))

    def f(u):
        if u < s_lo or u > s_hi:
            return Fraction(0)
        i = min(max(bisect.bisect_right(t, u) - 1, 0), len(t) - 2)
        return v[i] + (v[i + 1] - v[i]) * (u - t[i]) / (t[i + 1] - t[i])

    def g(x):
        return f(lp * x - bp) * f(lq * x - bq)

    lo = max((s_lo + bp) / lp, (s_lo + bq) / lq)
    hi = min((s_hi + bp) / lp, (s_hi + bq) / lq)
    if hi <= lo:
        return Fraction(0)
    inner = {(ti + b) / lam for ti in t for lam, b in ((lp, bp), (lq, bq))}
    xs = sorted({lo, hi} | {x for x in inner if lo < x < hi})
    return sum((b - a) / 6 * (g(a) + 4 * g((a + b) / 2) + g(b)) for a, b in zip(xs, xs[1:]))


def autocorrelation_oracle(eq):
    """a(k) = int phi(x) phi(x - k) dx at integers k, for integer data.

    Dahmen & Micchelli (SIAM J. Numer. Anal. 30, 1993): a is the eigenvalue-1
    eigenvector of T[k, m] = (1/lambda) sum c_j c_l over the pairs with
    beta_l - beta_j = m - lambda k, normalized so that sum a = 1.  a vanishes
    for |k| at least the support length.
    """
    length = int(round((eq.offsets[-1] - eq.offsets[0]) / (eq.lam - 1.0)))
    ks = list(range(1 - length, length))
    t = np.zeros((len(ks), len(ks)))
    for row, k in enumerate(ks):
        for cj, bj in eq.terms:
            for cl, bl in eq.terms:
                m = eq.lam * k + bl - bj
                if abs(m) < length:
                    t[row, ks.index(int(m))] += (cj * cl).real / eq.lam
    w, v = np.linalg.eig(t)
    a = v[:, np.argmin(np.abs(w - 1.0))].real
    return dict(zip(ks, a / a.sum()))


class TestSystemConstruction:
    def test_positive_dilation_required(self):
        with pytest.raises(ValueError):
            P(0.0, 1.0)

    @pytest.mark.parametrize(
        "dilation,translation", [(1.0, math.nan), (math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_non_finite_point_rejected(self, dilation, translation):
        with pytest.raises(ValueError, match="finite"):
            P(dilation, translation)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointError):
            WaveletSystem(Gaussian(), [P(1, 0), P(1, 0)])

    def test_nonempty(self):
        with pytest.raises(ValueError):
            WaveletSystem(Gaussian(), [])


class TestInnerProduct:
    def test_gaussian_self(self):
        value, err = inner_product(Gaussian(), P(1, 0), P(1, 0))
        assert abs(value - math.sqrt(math.pi / 2.0)) <= max(err, 1e-10)

    def test_gaussian_cross_dilation(self):
        value, err = inner_product(Gaussian(), P(1, 0), P(2, 0))
        assert abs(value - math.sqrt(math.pi / 5.0)) <= max(err, 1e-10)

    def test_hat_disjoint_supports(self):
        value, err = inner_product(Hat(), P(1, 0), P(1, 10))
        assert value == 0.0 and err == 0.0

    def test_two_sided_exp_closed_form(self):
        # (1, 0) with itself: int exp(-2|x|) dx = 1; the others have a kink
        # of one factor inside a panel unless the kinks are breakpoints
        pairs = ((P(1, 0), P(1, 0)), (P(1, -0.9), P(1.5, 0.2)), (P(2, 1), P(0.5, -1)))
        for n in (1, 2):
            for p, q in pairs:
                value, err = inner_product(TwoSidedExp(n), p, q, 1e-10)
                assert abs(value - two_sided_exp_pair(n, p, q)) <= max(err, 1e-12), (n, p, q)

    def test_rational_against_closed_form(self):
        lorentz = RationalL2([1.0], [1.0, 0.0, 1.0])
        odd = RationalL2([0.0, 1.0], [1.0, 0.0, 1.0])  # x / (1 + x^2)
        quartic = RationalL2([1.0], [1.0, 0.0, 0.0, 0.0, 1.0])  # 1 / (1 + x^4)
        # int dx / (1 + x^4)^2; and int dx / ((1 + a x^4)(1 + x^4)) by partial
        # fractions, for a = 100^4
        quartic_norm = 3.0 * math.pi / (4.0 * math.sqrt(2.0))
        quartic_cross = (1e6 - 1.0) / (1e8 - 1.0) * math.pi / math.sqrt(2.0)
        far, near = P(1000, 3e6), P(1000, 3e6 + 0.5)
        cases = (
            (lorentz, P(1, 0), P(1, 0), math.pi / 2.0),
            # products far narrower than the truncation window, or vanishing
            # at its centre, fall between the nodes of one panel spanning it
            (odd, P(1, 0), P(1, 0), math.pi / 2.0),
            (odd, P(1, 0), P(2, 0), math.pi / 3.0),
            (odd, P(2, 0), P(2, 0), math.pi / 4.0),
            (lorentz, far, far, math.pi / 2000.0),
            (lorentz, far, near, cauchy_pair(far, near)),
            (quartic, P(100, 1e4), P(100, 1e4), quartic_norm / 100.0),
            (quartic, P(1, 100), P(1, 100), quartic_norm),
            (quartic, P(100, 1e4), P(1, 100), quartic_cross),
        )
        for gen, p, q, exact in cases:
            value, err = inner_product(gen, p, q, 1e-10)
            assert abs(value - exact) <= err, (gen.numerator, p, q)

    def test_catalog_norms(self):
        for cid, expected in (("ft_box", 1.0), ("sech", 2.0 / math.pi), ("ft_annulus_tent", 2.0 / 3.0)):
            value, err = inner_product(CatalogGenerator(cid), P(1, 0), P(1, 0))
            assert abs(value - expected) <= max(err, 1e-9), cid

    def test_annulus_tent_thin_overlap(self):
        # the dilated tents overlap only on 1.99 <= |g| <= 2, where both are
        # linear, so Simpson's rule on that piece (both signs) is exact
        def product(g):
            return (1.0 - 2.0 * abs(g - 1.5)) * (1.0 - 2.0 * abs(g / 1.99 - 1.5))

        exact = 2.0 / 1.99 * 0.01 / 6.0 * (product(1.99) + 4.0 * product(1.995) + product(2.0))
        value, err = inner_product(CatalogGenerator("ft_annulus_tent"), P(1, 0), P(1.99, 0), 1e-10)
        assert abs(exact - 3.3669e-7) <= 1e-11
        assert abs(value - exact) <= max(err, 1e-19)

    def test_catalog_hermitian_pair(self):
        c = CatalogGenerator("sech")
        v_pq, _ = inner_product(c, P(1, 0), P(2, 1))
        v_qp, _ = inner_product(c, P(2, 1), P(1, 0))
        assert abs(v_pq - np.conj(v_qp)) <= 1e-9


@st.composite
def spread_pairs(draw):
    """Two points, dilations log-uniform in [1e-2, 1e3], centres beta/lambda
    within 1e4 of the origin; half the time the centres are close."""
    centre = draw(st.floats(-1e4, 1e4))
    offset = draw(st.one_of(st.floats(-1e4, 1e4), st.floats(-2.0, 2.0)))
    points = []
    for c in (centre, min(1e4, max(-1e4, centre + offset))):
        dilation = 10.0 ** draw(st.floats(-2.0, 3.0))
        points.append(P(dilation, c * dilation))
    return points


@pytest.mark.parametrize(
    "gen,closed_form",
    ((Gaussian(), gaussian_pair), (RationalL2([1.0], [1.0, 0.0, 1.0]), cauchy_pair)),
    ids=("gaussian", "lorentzian"),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=spread_pairs())
# a narrow factor near a wide one, far from the origin
@example(pair=[P(3.2006707544472355, -29250.58262727902), P(897.1029611149319, -8197322.685750166)])
def test_unbounded_pairing_within_reported_error(gen, closed_form, pair):
    p, q = pair
    exact = closed_form(p, q)
    value, err = inner_product(gen, p, q)
    assert abs(value - exact) <= err


class TestClosedFormGrams:
    def test_gaussian_single_point(self):
        g = gaussian_gram_closed_form([P(1, 0)])
        assert abs(g[0, 0] - math.sqrt(math.pi / 2.0)) <= 1e-15

    def test_gaussian_translation_pair(self):
        beta = 1.3
        g = gaussian_gram_closed_form([P(1, 0), P(1, beta)])
        expected = math.sqrt(math.pi / 2.0) * math.exp(-beta * beta / 2.0)
        assert abs(g[0, 1] - expected) <= 1e-15

    def test_gaussian_dilation_triple(self):
        g = gaussian_gram_closed_form([P(1, 0), P(2, 0), P(4, 0)])
        assert abs(g[0, 2] - math.sqrt(math.pi / 17.0)) <= 1e-15

    def test_gaussian_closed_form_vs_quadrature(self):
        # the second system is a thousand times narrower, far from the origin
        for pts in ([P(1, 0), P(2, 1), P(0.5, -1)], [P(1000, 3e6), P(1000, 3e6 + 0.5)]):
            g = gaussian_gram_closed_form(pts)
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    value, err = inner_product(Gaussian(), p, q)
                    assert abs(value - g[i, j]) <= err, (p, q)

    def test_gaussian_positive_definite(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            pts = [
                P(float(d), float(b))
                for d, b in zip(rng.uniform(0.5, 4.0, n), rng.uniform(-3.0, 3.0, n))
            ]
            try:
                system = WaveletSystem(Gaussian(), pts)
            except DuplicatePointError:
                continue
            g = gaussian_gram_closed_form(system.points)
            assert np.linalg.eigvalsh(g).min() > 0.0

    def test_hat_diagonal(self):
        g = hat_gram_closed_form([P(1, 0)])
        assert abs(g[0, 0] - 2.0 / 3.0) <= 1e-15

    def test_hat_touching_supports(self):
        g = hat_gram_closed_form([P(1, 0), P(1, 2)])
        assert g[0, 1] == 0.0

    def test_hat_lattice_null_vector(self):
        g = hat_gram_closed_form(HAT_LATTICE)
        v = np.array([1.0, -0.5, -1.0, -0.5])
        assert np.max(np.abs(g @ v)) <= 1e-14

    def test_hat_closed_form_vs_quadrature(self):
        pairs = (
            (P(1, 0), P(2, 1)),
            (P(1, 0), P(1, 0.5)),
            (P(3, 1), P(2, 0)),
            (P(1.5, 0.25), P(2, 0.67)),
        )
        for p, q in pairs:
            value, err = inner_product(Hat(), p, q)
            expected = hat_gram_closed_form([p, q])[0, 1]
            assert abs(value - expected) <= err


DYADIC_SAMPLED = SampledGenerator(
    SampledFunction(
        start=-1.0, step=0.25, values=np.array([0.0, 0.5, 1.75, -0.25, 3.0, 1.0, 0.0, 2.5, 0.125]),
        support=(-1.0, 1.0),
    )
)


class TestExactPairing:
    @pytest.mark.parametrize(
        "gen,p,q",
        [
            (Hat(), P(1.5, 0.25), P(2, 0.67)),
            (DYADIC_SAMPLED, P(1, 0), P(2, 0.5)),
            (DYADIC_SAMPLED, P(0.75, -0.3), P(3.1, 1.7)),
            (DYADIC_SAMPLED, P(1.3, 0.1), P(1.3, 0.1)),
        ],
    )
    def test_error_bounds_rational_value(self, gen, p, q):
        value, err = inner_product(gen, p, q)
        exact = exact_sampled_pair(gen, p, q)
        assert value.imag == 0.0
        assert exact != 0
        assert abs(Fraction(value.real) - exact) <= Fraction(err)
        assert err <= 1e-13

    def test_hat_reproducer_against_closed_form(self):
        value, _ = inner_product(Hat(), P(1.5, 0.25), P(2, 0.67), 1e-10)
        assert abs(value - 0.374995837962963) <= 1e-15

    @pytest.mark.parametrize(
        "name,resolution,tolerance", [("hat", 2.0**-10, 1e-14), ("rham", 2.0**-12, 2e-5)]
    )
    def test_refinement_gram_matches_autocorrelation(self, name, resolution, tolerance):
        eq = preset(name)
        a = autocorrelation_oracle(eq)
        pts = [P(1.0, float(k)) for k in range(len(a))]
        report = gram(WaveletSystem(RefinementGenerator(eq, resolution), pts))
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert abs(report.matrix[i, j] - a.get(j - i, 0.0)) <= tolerance, (i, j)

    def test_no_quadrature_for_piecewise_linear_generators(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_adaptive called")

        monkeypatch.setattr(wavelet_system, "integrate_adaptive", forbidden)
        pts = [P(1, 0), P(2, 0.5), P(1, 0.25)]
        for gen in (Hat(), DYADIC_SAMPLED, RefinementGenerator(preset("hat"), 2.0**-6)):
            report = gram(WaveletSystem(gen, pts), 1e-10)
            assert report.quad_error <= 1e-13 * report.sigma_max


NON_DYADIC_DILATIONS = (3.0, 1.5, 0.1, 1.0 / 3.0)
TENTHS_SAMPLED = SampledGenerator(
    SampledFunction(
        start=-0.3, step=0.1, values=np.array([0.0, 0.7, -1.3, 2.2, 0.9, 0.4, 0.0]),
        support=(-0.3, 0.3),
    )
)


@st.composite
def non_dyadic_systems(draw):
    gen = draw(st.sampled_from([Hat(), DYADIC_SAMPLED, TENTHS_SAMPLED]))
    s_lo, s_hi = gen.time_support()
    # supports through one anchor far from the origin: most pairs overlap,
    # and r beta_p is large, so the rounding of the key shows
    anchor = draw(st.floats(-2.0e3, 2.0e3))
    points = {}
    for _ in range(draw(st.integers(2, 4))):
        lam = draw(st.sampled_from(NON_DYADIC_DILATIONS))
        beta = lam * anchor - draw(st.floats(s_lo, s_hi))
        points[(lam, beta)] = P(lam, beta)
    return gen, list(points.values())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=non_dyadic_systems())
def test_sampled_entries_lie_within_their_bound_of_the_exact_value(case):
    gen, points = case
    report = gram(WaveletSystem(gen, points))
    for i, p in enumerate(points):
        for j, q in enumerate(points[i:], i):
            exact = exact_sampled_pair(gen, p, q)
            value, err = inner_product(gen, p, q)
            assert abs(Fraction(value.real) - exact) <= Fraction(err)
            assert abs(Fraction(report.matrix[i, j].real) - exact) <= Fraction(report.quad_error)


def test_sampled_bounds_charge_underflow():
    # samples near 1e-160: products and Simpson pieces are subnormal and
    # round by up to 2^-1075 each, far above u times the values
    values = np.sin(np.arange(40) * 0.9) * 1e-160
    gen = SampledGenerator(
        SampledFunction(start=-1.0, step=2.0 / 39.0, values=values, support=(-1.0, 1.0))
    )
    rng = random.Random(3)
    checked = 0
    while checked < 120:
        p = P(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        q = P(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        exact = exact_sampled_pair(gen, p, q)
        if exact == 0:
            continue
        checked += 1
        value, err = inner_product(gen, p, q)
        assert abs(Fraction(value.real) - exact) <= Fraction(err), (p, q)


class TestGram:
    def test_matches_gaussian_oracle(self):
        pts = [P(1, 0), P(1, 1), P(2, 0), P(2, 1), P(3, -1)]
        report = gram(WaveletSystem(Gaussian(), pts), 1e-10)
        closed = gaussian_gram_closed_form(pts)
        rel = np.max(np.abs(report.matrix.real - closed) / np.abs(closed))
        assert rel <= 1e-8
        assert report.sigma_min > 0.0

    def test_single_point(self):
        report = gram(WaveletSystem(Gaussian(), [P(1, 0)]), 1e-10)
        assert report.sigma_min == report.sigma_max
        assert abs(report.sigma_max - math.sqrt(math.pi / 2.0)) <= 1e-9

    def test_psd_up_to_quadrature(self):
        pts = [P(1, 0), P(1.5, 0.5), P(2.5, -1)]
        report = gram(WaveletSystem(Gaussian(), pts), 1e-9)
        n = len(pts)
        assert report.eigenvalues.min() >= -n * report.quad_error


class TestNumericVerdict:
    def test_synthetic_bands(self):
        dependent = gram_report_from_matrix(np.diag([1e-12, 1.0]), quad_error=0.0)
        assert numeric_verdict(dependent).outcome == "Dependent"
        inconclusive = gram_report_from_matrix(np.diag([5e-8, 1.0]), quad_error=0.0)
        assert numeric_verdict(inconclusive).outcome == "Inconclusive"
        independent = gram_report_from_matrix(np.eye(3), quad_error=0.0)
        assert numeric_verdict(independent).outcome == "IndependentNumeric"

    def test_quadrature_budget_blocks_dependence(self):
        noisy = gram_report_from_matrix(np.diag([1e-12, 1.0]), quad_error=1e-3)
        assert numeric_verdict(noisy).outcome == "Inconclusive"

    def test_hat_lattice_exact_path(self):
        report = gram_report_from_matrix(hat_gram_closed_form(HAT_LATTICE))
        assert report.relative_gap <= 1e-10
        verdict = numeric_verdict(report)
        assert verdict.outcome == "Dependent"
        assert aligned(verdict.null_vector, HAT_NULL) <= 1e-6

    def test_hat_lattice_quadrature_path(self):
        report = gram(WaveletSystem(Hat(), HAT_LATTICE), 1e-10)
        assert report.relative_gap <= 1e-10
        assert report.quad_error < 1e-14
        verdict = numeric_verdict(report)
        assert verdict.outcome == "Dependent"
        assert aligned(verdict.null_vector, HAT_NULL) <= 1e-6


class TestCertify:
    def test_gaussian_any_points(self):
        cert = certify(WaveletSystem(Gaussian(), [P(0.7, -2), P(1, 0), P(2, 1), P(3, 3), P(5, 0)]))
        assert cert.rule_id == "ExpDecay_L31a"
        assert all(ok for _, ok in cert.hypothesis_checklist)

    def test_poly_decay_needs_unique_max(self):
        gen = TwoSidedExp(1)
        with_max = certify(WaveletSystem(gen, [P(1, 0), P(2, 1), P(3, 0)]))
        assert with_max.rule_id == "PolyDecayMaxDilation_L31b"
        tied = certify(WaveletSystem(gen, [P(3, 0), P(3, 1), P(1, 0)]))
        assert tied.rule_id == "LECombination_T42"  # falls through to the FT rule

    def test_smooth_min_dilation(self):
        gen = RationalL2([1.0], [1.0, 0.0, 1.0])
        cert = certify(WaveletSystem(gen, [P(1, 0), P(2, 1), P(2, -1)]))
        assert cert.rule_id == "SmoothMinDilation_L31c"
        tied = certify(WaveletSystem(gen, [P(1, 0), P(1, 1), P(2, 0)]))
        assert tied.rule_id == "LECombination_T42"

    def test_three_point_schwartz(self):
        bump = smooth_bump_generator()
        cert = certify(WaveletSystem(bump, [P(1, 0), P(1, 1), P(2, 0)]))
        assert cert.rule_id == "ThreePointSchwartz_C32"
        assert certify(WaveletSystem(bump, [P(1, 0), P(1, 1), P(2, 0), P(2, 1)])) is None

    def test_single_point_schwartz_trivial(self):
        bump = smooth_bump_generator()
        cert = certify(WaveletSystem(bump, [P(1, 0)]))
        assert cert.rule_id == "ThreePointSchwartz_C32"

    def test_ft_rules(self):
        pts = [P(1, 0), P(2, 1)]
        assert certify(WaveletSystem(CatalogGenerator("ft_annulus_tent"), pts)).rule_id == "FTVanishNearZero_L33i"
        assert certify(WaveletSystem(CatalogGenerator("ft_box"), pts)).rule_id == "FTCompact_L33ii"
        assert certify(WaveletSystem(CatalogGenerator("log_exp_ratio"), pts)).rule_id == "LECombination_T42"

    def test_ultimately_decreasing_needs_tied_extrema(self):
        sech = CatalogGenerator("sech")
        tied = certify(WaveletSystem(sech, [P(1, 0), P(1, 1), P(2, 0), P(2, 1)]))
        assert tied.rule_id == "UltimatelyDecreasingFT_T34"
        unique_max = certify(WaveletSystem(sech, [P(1, 0), P(1, 1), P(2, 0)]))
        assert unique_max.rule_id == "PolyDecayMaxDilation_L31b"

    def test_hat_has_no_certificate(self):
        assert certify(WaveletSystem(Hat(), list(HAT_LATTICE))) is None

    def test_citation_strings_nonempty(self):
        cert = certify(WaveletSystem(Gaussian(), [P(1, 0)]))
        assert cert.citation and isinstance(cert.citation, str)


class TestAnalyze:
    def test_certified_skips_quadrature(self):
        verdict = analyze(WaveletSystem(Gaussian(), [P(1, 0), P(2, 1), P(3, -1), P(4, 2), P(5, 0)]))
        assert verdict.outcome == "IndependentCertified"
        assert verdict.certificate.rule_id == "ExpDecay_L31a"
        assert verdict.evidence is None

    def test_hat_lattice_dependent(self):
        verdict = analyze(WaveletSystem(Hat(), HAT_LATTICE))
        assert verdict.outcome == "Dependent"
        assert aligned(verdict.null_vector, HAT_NULL) <= 1e-6

    def test_untagged_sampled_generic_points(self):
        bump = smooth_bump_generator(tags=())
        verdict = analyze(WaveletSystem(bump, [P(1, 0), P(1.7, 0.3)]), 1e-9)
        assert verdict.outcome in ("IndependentNumeric", "Inconclusive")
        assert verdict.evidence is not None


class TestInvariants:
    def test_generator_rescaling_leaves_gap_invariant(self):
        xs = np.linspace(-6.0, 6.0, 4097)
        base = np.exp(-xs * xs)
        pts = [P(1, 0), P(2, 0), P(3, 1)]
        reports = []
        for scale in (1.0, 3.0):
            sf = SampledFunction(start=-6.0, step=12.0 / 4096, values=scale * base, support=(-6.0, 6.0))
            system = WaveletSystem(SampledGenerator(sf), pts)
            reports.append(gram(system, 1e-10))
        r1, r3 = reports
        ratio = r3.matrix.real / r1.matrix.real
        assert np.max(np.abs(ratio - 9.0)) <= 1e-6
        assert abs(r1.relative_gap - r3.relative_gap) <= 1e-8
        assert numeric_verdict(r1).outcome == numeric_verdict(r3).outcome

    def test_dilation_covariance(self):
        pts = [P(1, 0), P(2, 1), P(3, -1)]
        scaled_pts = [P(2 * p.dilation, p.translation) for p in pts]
        g = gaussian_gram_closed_form(pts)

        # phi(s x) system equals diag(s^-1/2) G diag(s^-1/2) by substitution
        report_scaled = gram(WaveletSystem(Gaussian(), scaled_pts), 1e-11)
        d = np.full(3, 2.0**-0.5)
        transported = (d[:, None] * g * d[None, :])
        assert np.max(np.abs(report_scaled.matrix.real - transported)) <= 1e-9
        gap_direct = gram_report_from_matrix(transported).relative_gap
        assert abs(report_scaled.relative_gap - gap_direct) <= 1e-8

    def test_refinement_system_reproduces_dependence(self):
        # the only preset whose solution has a catalog time-domain form
        verdict = analyze(WaveletSystem(Hat(), HAT_LATTICE))
        assert verdict.outcome == "Dependent"


RULE_EXAMPLES = [
    ("ExpDecay_L31a", lambda: Gaussian(), "any"),
    ("PolyDecayMaxDilation_L31b", lambda: TwoSidedExp(1), "unique_max"),
    ("SmoothMinDilation_L31c", lambda: RationalL2([1.0], [1.0, 0.0, 1.0]), "unique_min"),
    ("ThreePointSchwartz_C32", lambda: smooth_bump_generator(), "three"),
    ("FTVanishNearZero_L33i", lambda: CatalogGenerator("ft_annulus_tent"), "any"),
    ("FTCompact_L33ii", lambda: CatalogGenerator("ft_box"), "any"),
    ("UltimatelyDecreasingFT_T34", lambda: CatalogGenerator("sech"), "tied"),
    ("LECombination_T42", lambda: CatalogGenerator("log_exp_ratio"), "any"),
]


def draw_points(rng, shape):
    """Well-separated random points shaped for one rule's geometry."""
    dil_grid = np.arange(0.6, 3.61, 0.3)
    beta_grid = np.arange(-2.0, 2.01, 0.5)
    if shape == "three":
        n = 3
    elif shape == "tied":
        n = 4
    else:
        n = int(rng.integers(3, 5))
    dils = rng.choice(dil_grid, size=n, replace=False)
    betas = rng.choice(beta_grid, size=n, replace=False)
    if shape == "unique_max":
        dils[0] = dils.max() + 0.5
    if shape == "unique_min":
        dils[0] = max(0.2, dils.min() - 0.3)
    if shape == "tied":
        dils = np.array([dils[0], dils[0], dils[1], dils[1]])
        betas = rng.choice(beta_grid, size=4, replace=False)
    return [P(float(d), float(b)) for d, b in zip(dils, betas)]


@pytest.mark.parametrize("rule_id,make_gen,shape", RULE_EXAMPLES)
def test_certificate_soundness_harness(rule_id, make_gen, shape):
    """Each rule's catalog example stays numerically far from singular."""
    gen = make_gen()
    rng = np.random.default_rng(abs(hash(rule_id)) % 2**32)
    for _ in range(20):
        system = WaveletSystem(gen, draw_points(rng, shape))
        cert = certify(system)
        assert cert is not None and cert.rule_id == rule_id
        report = gram(system, 1e-6)
        assert report.relative_gap >= 1e-4, (rule_id, report.relative_gap)


# Every generator kind: the eight of the benchmark's decay systems, the
# compactly supported kinds, and rationals with repeated or clustered poles
NO_QUADRATURE = (
    Gaussian(),
    TwoSidedExp(1),
    TwoSidedExp(2),
    RationalL2([1.0], [1.0, 0.0, 1.0]),
    CatalogGenerator("sech"),
    CatalogGenerator("log_exp_ratio"),
    CatalogGenerator("ft_box"),
    CatalogGenerator("ft_annulus_tent"),
    Hat(),
    RefinementGenerator(preset("hat"), 2.0**-6, 20),
    smooth_bump_generator(count=257),
    RationalL2([1.0], [1.0, 0.0, 2.0, 0.0, 1.0]),
    RationalL2([1.0], [1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0]),
    RationalL2([1.0], [1.0201, 0.0, 2.0201, 0.0, 1.0]),
    RationalL2([1.0], np.real(np.poly([1j, -1j, 1.0001j, -1.0001j]))[::-1].tolist()),
)
NO_QUADRATURE_IDS = (
    "gaussian", "exp1", "exp2", "rational", "sech", "log_exp_ratio", "ft_box", "ft_annulus_tent",
    "hat", "refinement", "sampled", "double-pole", "triple-pole", "gap-1e-2", "gap-1e-4",
)


DECAY_POINTS_8 = [P(*pt) for pt in ((1, 0), (2, 1), (3, -1), (1, 1), (2, 0), (2, 3), (4, 2), (0.5, 1))]


@pytest.mark.parametrize("gen", NO_QUADRATURE, ids=NO_QUADRATURE_IDS)
def test_no_generator_reaches_adaptive_quadrature(monkeypatch, gen):
    forbid_adaptive_quadrature(monkeypatch)
    report = gram(WaveletSystem(gen, DECAY_POINTS_8), 1e-10)
    assert report.quad_error <= 1e-10


# one generator of every kind, and a rational with a double pole
EVERY_KIND_IDS = (
    "hat", "refinement", "sampled", "gaussian", "exp1", "rational", "double-pole",
    "sech", "log_exp_ratio", "ft_box", "ft_annulus_tent",
)
EVERY_KIND = tuple(NO_QUADRATURE[NO_QUADRATURE_IDS.index(name)] for name in EVERY_KIND_IDS)


@pytest.mark.parametrize("chunk", (1, 7, None), ids=("chunk-1", "chunk-7", "default"))
@pytest.mark.parametrize("gen", EVERY_KIND, ids=EVERY_KIND_IDS)
def test_gram_is_inner_product_bit_for_bit(monkeypatch, gen, chunk):
    # every entry depends on its own two points only, whatever else gram
    # pairs in the same pass
    n = len(DECAY_POINTS_8)
    rows, cols = np.triu_indices(n)
    alone = [inner_product(gen, DECAY_POINTS_8[i], DECAY_POINTS_8[j]) for i, j in zip(rows, cols)]
    if chunk is not None:
        monkeypatch.setattr(wavelet_system, "_PAIR_CHUNK", chunk)
    report = gram(WaveletSystem(gen, DECAY_POINTS_8))
    values = np.array([value for value, _ in alone])
    expected = np.zeros((n, n), dtype=np.complex128)
    expected[rows, cols] = values
    expected[cols, rows] = np.conjugate(values)
    assert report.matrix.tobytes() == expected.tobytes()
    assert report.quad_error == max(error for _, error in alone)


@pytest.mark.parametrize("tol", (0.0, -1.0, math.nan), ids=("zero", "negative", "nan"))
@pytest.mark.parametrize("gen", EVERY_KIND, ids=EVERY_KIND_IDS)
def test_tol_that_is_not_positive_is_refused_before_any_pairing(monkeypatch, gen, tol):
    # a negative tol once kept the fixed-step rules' window search doubling
    # forever; no pairing may run, so a missing check fails here at once
    def forbidden(*args, **kwargs):
        raise AssertionError("a pairing ran")

    monkeypatch.setattr(type(gen), "pair", forbidden)
    message = f"^tol must be a positive number, not {tol!r}$"
    with pytest.raises(BadParameterError, match=message):
        gram(WaveletSystem(gen, [P(1, 0), P(2, 1)]), tol)
    with pytest.raises(BadParameterError, match=message):
        inner_product(gen, P(1, 0), P(2, 1), tol)


def test_gram_layer_reads_nothing_of_the_sampled_format():
    # every kind pairs through its own pair: wavelet_system imports no
    # private name and no SampledGenerator from generators, and reads none
    # of a sampled generator's own data
    tree = ast.parse(Path(wavelet_system.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "generators"
        for alias in node.names
    ]
    assert imported and not [n for n in imported if n.startswith("_") or n == "SampledGenerator"]
    own = set(vars(Hat())) - set(GeneratorSpec.__annotations__)
    assert {"breaks", "grid", "values", "peak", "lipschitz", "sampled"} <= own
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not own & read


SPIKE = SampledGenerator(
    SampledFunction(start=0.0, step=1.0, values=np.array([0.0, 1e153, 0.0]), support=(0.0, 2.0))
)


@pytest.mark.parametrize(
    "via,gen,p,q,named,bound",
    (
        # gram meets the diagonal entry of the first point first
        ("gram", Gaussian(), P(5e-324, 0), P(1, 0), (P(5e-324, 0), P(5e-324, 0)), "nan"),
        ("gram", SPIKE, P(1, 0), P(1e-5, 0), (P(1e-5, 0), P(1e-5, 0)), "inf"),
        # the two points in the caller's order
        ("inner_product", Gaussian(), P(1e-323, 0), P(5e-324, 0), (P(1e-323, 0), P(5e-324, 0)), "nan"),
        ("inner_product", SPIKE, P(2e-5, 0), P(1e-5, 0), (P(2e-5, 0), P(1e-5, 0)), "inf"),
    ),
    ids=("gaussian-gram", "sampled-gram", "gaussian-pair", "sampled-pair"),
)
def test_entry_past_the_float_range_is_refused_naming_both_points(via, gen, p, q, named, bound):
    a, b = named
    message = (
        f"points ({a.dilation:g}, {a.translation:g}) and ({b.dilation:g}, {b.translation:g}) "
        f"give a Gram entry out of float range: inf with error bound {bound}"
    )
    with pytest.raises(BadParameterError) as refused:
        if via == "gram":
            gram(WaveletSystem(gen, [p, q]))
        else:
            inner_product(gen, p, q)
    assert str(refused.value) == message
