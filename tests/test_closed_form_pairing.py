"""Closed-form pairings of the analytic generators against quadrature and exact formulas.

Every closed form must agree with adaptive quadrature within the sum of the
two error bounds (in time, one integral per entry, tests/conftest.py::
reference_pairs; for the catalog entries, the folded Fourier-side integral
that their quadrature path took before they paired in closed form), and with
exact references within its own bound (plus the reference's rounding), at
ordinary, huge and tiny dilations and translations.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forbid_adaptive_quadrature, geometric_edges, reference_pairs
from twoscale import generators
from twoscale.generators import CatalogGenerator, Gaussian, RationalL2, TwoSidedExp
from twoscale.numerics import integrate_adaptive
from twoscale.wavelet_system import WaveletPoint as P
from twoscale.wavelet_system import WaveletSystem, gram, inner_product

U = 2.0**-53

# (1 + x^2)^-2 and ^-3, and poles +-i with +-1.01 i or +-1.0001 i: repeated
# and clustered poles, which np.roots returns as clusters about eps^(1/k) wide
DOUBLE = ([1.0], [1.0, 0.0, 2.0, 0.0, 1.0])
TRIPLE = ([1.0], [1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0])
GAP_2 = ([1.0], [1.0201, 0.0, 2.0201, 0.0, 1.0])
GAP_4 = ([1.0], np.real(np.poly([1j, -1j, 1.0001j, -1.0001j]))[::-1].tolist())
RATIONALS = (
    ([1.0], [1.0, 0.0, 1.0]),
    ([0.0, 1.0], [1.0, 0.0, 1.0]),
    ([1.0], [1.0, 0.0, 0.0, 0.0, 1.0]),
    ([1.0, 2.0], [3.0, 1.0, 0.0, 1.0, 1.0]),
    DOUBLE,
    TRIPLE,
    GAP_2,
    GAP_4,
)
RATIONAL_IDS = ("lorentz", "odd", "quartic", "mixed", "double", "triple", "gap-1e-2", "gap-1e-4")

CLOSED_FORM = (
    Gaussian(),
    TwoSidedExp(1),
    TwoSidedExp(3),
    *(RationalL2(*r) for r in RATIONALS),
    CatalogGenerator("ft_box"),
    CatalogGenerator("ft_annulus_tent"),
)
CLOSED_FORM_IDS = ("gaussian", "exp1", "exp3", *RATIONAL_IDS, "ft_box", "ft_annulus_tent")


def pairs(points):
    """Arrays (lp, bp, lq, bq) of the upper triangle of a list of points."""
    rows, cols = np.triu_indices(len(points))
    lam = np.array([p.dilation for p in points])
    beta = np.array([p.translation for p in points])
    return lam[rows], beta[rows], lam[cols], beta[cols]


# the kinks of the band-limited transforms on gamma >= 0, panel edges of the
# folded integral; each transform vanishes past its last kink
FT_KINKS = {"ft_box": (0.5,), "ft_annulus_tent": (1.0, 1.5, 2.0)}


def folded_quadrature(gen, lp, bp, lq, bq, tol):
    """The catalog pairing 2 / (lp lq) int_0^R ft(g / lp) ft(g / lq) cos(omega g) dg
    by adaptive quadrature, R the last kink times min(lp, lq): panels break
    at the kinks of both factors and at geometric edges right of 0 on the
    narrower factor's scale, and the error covers the rounding of the phase."""
    kinks = FT_KINKS[gen.catalog_id]
    hi = max(kinks) * np.minimum(lp, lq)
    integrand = gen.ft_pair_integrand(lp, bp, lq, bq)
    _, shift_rounding = generators._relative_shift(lp, bp, lq, bq)
    omega = 2.0 * math.pi * (bp / lp - bq / lq)
    rounding = (2.0 * math.pi * shift_rounding + 4.0 * U * np.abs(omega)) * hi + 2.0 * U
    values, errors = [], []
    for k in range(lp.size):
        edges = [c * lam for c in kinks for lam in (lp[k], lq[k])]
        edges += geometric_edges((0.0,), min(lp[k], lq[k]), 0.0, hi[k])
        result = integrate_adaptive(
            lambda g, k=k: integrand(g, k), 0.0, hi[k], 0.5 * tol, breakpoints=edges
        )
        values.append(result.value)
        errors.append(result.error_estimate + rounding[k] * result.abs_integral)
    return np.array(values), np.array(errors)


def assert_agree_with_quadrature(gen, points, tol=1e-12):
    params = pairs(points)
    values, errors = gen.pair(*params, tol)
    if isinstance(gen, CatalogGenerator):
        quad, quad_errors = folded_quadrature(gen, *params, tol)
    else:
        quad, quad_errors = reference_pairs(gen, *params, tol)
    assert np.all(np.abs(quad.imag) <= quad_errors)
    miss = np.abs(values - quad.real)
    assert np.all(miss <= errors + quad_errors), (miss, errors, quad_errors)


@st.composite
def systems(draw):
    gen = draw(st.sampled_from(CLOSED_FORM))
    count = draw(st.integers(2, 4))
    dilations = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) | st.floats(0.25, 4.0)
    translations = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0)
    points = draw(
        st.lists(st.tuples(dilations, translations), min_size=count, max_size=count, unique=True)
    )
    return gen, [P(lam, beta) for lam, beta in points]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=systems())
def test_closed_forms_agree_with_quadrature(case):
    gen, points = case
    assert_agree_with_quadrature(gen, points)


FAR_AND_NEAR = (
    # huge translations, half a unit apart
    (P(1000.0, 3.0e6), P(1000.0, 3.0e6 + 0.5), P(999.0, 3.0e6)),
    # tiny dilations: wide factors
    (P(1.0e-3, 0.0), P(2.0e-3, 1.0e-3), P(1.0e-3, 5.0e-3)),
    # huge dilations: narrow factors
    (P(1.0e3, 0.0), P(2.0e3, 1.0), P(1.0e3, 3.0)),
    # dilations far apart
    (P(0.01, 0.0), P(100.0, 1.0), P(1.0, -2.0)),
)


@pytest.mark.parametrize("points", FAR_AND_NEAR, ids=("far-beta", "tiny-lambda", "huge-lambda", "spread"))
@pytest.mark.parametrize("gen", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_closed_forms_agree_with_quadrature_far_out(gen, points):
    assert_agree_with_quadrature(gen, list(points), tol=1e-10)


@pytest.mark.parametrize(
    "gen,points",
    (
        # F1: the kink of exp(-|x|) at beta/lambda between the nodes of a panel
        (TwoSidedExp(1), (P(1.0, -0.9), P(1.5, 0.2))),
        # F4: products far narrower than the truncation window
        (RationalL2([0.0, 1.0], [1.0, 0.0, 1.0]), (P(1, 0), P(2, 0))),
        (RationalL2([1.0], [1.0, 0.0, 1.0]), (P(1000, 3e6), P(1000, 3e6 + 0.5))),
    ),
    ids=("F1", "F4-odd", "F4-far"),
)
def test_closed_forms_agree_with_quadrature_on_old_failures(gen, points):
    assert_agree_with_quadrature(gen, list(points), tol=1e-10)


def gaussian_pairing(lp, lq, d):
    rate = lp * lp + lq * lq
    return math.sqrt(math.pi / rate) * math.exp(-((lp * lq * d) ** 2) / rate)


def two_sided_exp_pairing(n, lp, lq, d):
    """<exp(-n|lp x - bp|), exp(-n|lq x - bq|)>, piece by piece in plain floats."""
    a, b, dist = n * lp, n * lq, abs(d)
    if a == b:
        return (1.0 / a + dist) * math.exp(-a * dist)
    return (math.exp(-a * dist) + math.exp(-b * dist)) / (a + b) + (
        math.exp(-b * dist) - math.exp(-a * dist)
    ) / (a - b)


def lorentz_pairing(lp, lq, d):
    """<R(lp x - bp), R(lq x - bq)> for R = 1/(1+x^2): Cauchy densities convolve."""
    g = 1.0 / lp + 1.0 / lq
    return math.pi * g / (lp * lq * (d * d + g * g))


def double_pole_pairing(lp, lq, d):
    """<R(lp x - bp), R(lq x - bq)> for R = 1/(1+x^2)^2.

    With c1 = lp^-2 and c2 = lq^-2, R(lp (x - a)) = -lp^-4 d/dc1 1/(c1 + (x -
    a)^2), and the Cauchy densities convolve: the integral of 1/(a^2 + y^2)
    1/(g^2 + (y - t)^2) is pi (a + g) / (a g ((a + g)^2 + t^2)) with a^2 =
    c1, g^2 = c2.  The pairing is lp^-4 lq^-4 times its mixed derivative in
    c1 and c2.
    """
    g2 = (lp * lq * d) ** 2
    s = lp + lq
    top = (
        g2 * (lp * lp - lp * lq + lq * lq)
        + lp**4 + 5.0 * lp**3 * lq + 8.0 * (lp * lq) ** 2 + 5.0 * lp * lq**3 + lq**4
    )
    return math.pi * s * top / (2.0 * (g2 + s * s) ** 3)


def box_pairing(lp, lq, d):
    m = min(lp, lq)
    return m * float(np.sinc(d * m)) / (lp * lq)


EXACT_POINTS = (
    P(1.0, 0.0), P(2.0, 1.0), P(3.0, -1.0), P(0.5, 1.0), P(1.0, 1.0), P(4.0, 2.0), P(1.5, 0.25),
    # origins near 1e12 whose shifts round by about 1e-4 in floats
    P(3.0, 3.0e12 + 1.0), P(7.0, 7.0e12), P(3.0, 3.0e12 + 2.5),
)


@pytest.mark.parametrize(
    "gen,exact",
    (
        (Gaussian(), gaussian_pairing),
        (TwoSidedExp(2), lambda *args: two_sided_exp_pairing(2, *args)),
        (RationalL2([1.0], [1.0, 0.0, 1.0]), lorentz_pairing),
        (RationalL2(*DOUBLE), double_pole_pairing),
        (CatalogGenerator("ft_box"), box_pairing),
    ),
    ids=("gaussian", "exp2", "lorentz", "double", "ft_box"),
)
def test_bounds_hold_against_exact_formulas(gen, exact):
    params = pairs(list(EXACT_POINTS))
    values, errors = gen.pair(*params, 1e-10)
    for k, (lp, bp, lq, bq) in enumerate(zip(*(v.tolist() for v in params))):
        # the shift, correctly rounded from its exact value
        d = float(Fraction(bp) / Fraction(lp) - Fraction(bq) / Fraction(lq))
        reference = exact(lp, lq, d)
        # the plain formulas round too; allow them 64 u of the entry
        assert abs(values[k] - reference) <= errors[k] + 64.0 * U * abs(reference)
        if max(abs(bp), abs(bq)) < 1e3:
            assert errors[k] <= 1e-12


def test_backward_bound_covers_inexact_poles(monkeypatch):
    # np.roots returning the poles of 1/(1+x^2) 1e-6 off: the formula then
    # pairs 1/(x^2 + (1 + 1e-6)^2), and only the backward term of the bound,
    # from the exact expansion of the computed denominator, covers the
    # difference, about 2e-6 of each entry
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: roots(p) * (1.0 + 1e-6))
    gen = RationalL2([1.0], [1.0, 0.0, 1.0])
    params = pairs(list(EXACT_POINTS))
    values, errors = gen.pair(*params, 1e-10)
    misses = []
    for k, (lp, bp, lq, bq) in enumerate(zip(*(v.tolist() for v in params))):
        d = float(Fraction(bp) / Fraction(lp) - Fraction(bq) / Fraction(lq))
        reference = lorentz_pairing(lp, lq, d)
        misses.append(abs(values[k] - reference))
        assert misses[-1] <= errors[k] + 64.0 * U * abs(reference)
    assert max(misses) > 1e-7


DECAY_POINTS_8 = tuple(
    P(*pt) for pt in ((1, 0), (2, 1), (3, -1), (1, 1), (2, 0), (2, 3), (4, 2), (0.5, 1))
)


@pytest.mark.parametrize("rational", RATIONALS, ids=RATIONAL_IDS)
def test_every_rational_pairs_in_closed_form(monkeypatch, rational):
    # one formula whatever the pole multiplicities and gaps (the residue
    # pairing it replaces reported a bound of 8.9e-5 on the gap-1e-2 rational),
    # with a bound that does not depend on tol and no adaptive quadrature
    gen = RationalL2(*rational)
    with monkeypatch.context() as patch:
        forbid_adaptive_quadrature(patch)
        coarse = gram(WaveletSystem(gen, DECAY_POINTS_8), 1e-2)
        fine = gram(WaveletSystem(gen, DECAY_POINTS_8), 1e-12)
    assert coarse.matrix.tobytes() == fine.matrix.tobytes()
    assert coarse.quad_error == fine.quad_error <= 1e-11
    assert_agree_with_quadrature(gen, list(DECAY_POINTS_8))


@pytest.mark.parametrize("entries", (1, 3, 7), ids=("alone", "3-per-block", "7-per-block"))
@pytest.mark.parametrize("rational", (RATIONALS[3], TRIPLE), ids=("mixed", "triple"))
def test_rational_blocks_leave_bits_unchanged(monkeypatch, rational, entries):
    # a block holds _NODE_ENTRIES / poles^2 entries, and at least one
    gen, points = RationalL2(*rational), list(DECAY_POINTS_8)
    rows, cols = np.triu_indices(len(points))
    alone = [inner_product(gen, points[i], points[j]) for i, j in zip(rows, cols)]
    monkeypatch.setattr(generators, "_NODE_ENTRIES", entries * gen._poles.size**2)
    report = gram(WaveletSystem(gen, points))
    assert report.matrix[rows, cols].real.tobytes() == np.array([v.real for v, _ in alone]).tobytes()
    assert report.quad_error == max(error for _, error in alone)


def test_closed_form_bound_does_not_depend_on_tol():
    points = [P(1, 0), P(1, 0.1), P(1, 0.2), P(1.1, 0), P(2, 0), P(2, 0.3)]
    gen = RationalL2([1.0], [1.0, 0.0, 0.0, 0.0, 1.0])
    coarse = gram(WaveletSystem(gen, points), 1e-2)
    fine = gram(WaveletSystem(gen, points), 1e-12)
    assert coarse.matrix.tobytes() == fine.matrix.tobytes()
    assert coarse.quad_error == fine.quad_error <= 1e-12
    # the spectrum's smallest eigenvalue (about 1e-5) is far above the entry errors
    assert coarse.sigma_min > len(points) * coarse.quad_error


@pytest.mark.parametrize("gen", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_gram_takes_the_closed_form_whatever_tol(monkeypatch, gen):
    forbid_adaptive_quadrature(monkeypatch)
    points = [P(1.0, 0.0), P(2.0, 1.0), P(0.5, -1.0)]
    coarse = gram(WaveletSystem(gen, points), 1e-2)
    fine = gram(WaveletSystem(gen, points), 1e-12)
    values, errors = gen.pair(*pairs(points), 1e-12)
    assert coarse.matrix.tobytes() == fine.matrix.tobytes()
    assert coarse.quad_error == fine.quad_error == errors.max()
    rows, cols = np.triu_indices(len(points))
    assert coarse.matrix[rows, cols].real.tobytes() == values.tobytes()
    assert not coarse.matrix.imag.any()


def test_far_gaussian_origins_pair_in_relative_coordinates():
    # origins 0.45 and 3.2e299: the shift between them is exact enough, and
    # the off-diagonal entry underflows to 0 with a 0 bound
    report = gram(WaveletSystem(Gaussian(), [P(2.47, 1.1), P(3.11, 1e300)]))
    assert report.matrix[0, 1] == 0.0
    for k, lam in enumerate((2.47, 3.11)):
        assert abs(report.matrix[k, k] - math.sqrt(math.pi / 2.0) / lam) <= report.quad_error
    value, error = inner_product(Gaussian(), P(2.47, 1.1), P(3.11, 1e300))
    assert value == 0.0 and error <= 1e-300
