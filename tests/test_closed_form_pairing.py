"""Closed-form pairings of the analytic generators against quadrature and exact formulas.

Every closed form must agree with the batched quadrature kernel within the
sum of the two error bounds, and with exact references within its own bound
(plus the reference's rounding), at ordinary, huge and tiny dilations and
translations.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import wavelet_system
from twoscale.generators import CatalogGenerator, Gaussian, RationalL2, TwoSidedExp
from twoscale.wavelet_system import WaveletPoint as P
from twoscale.wavelet_system import WaveletSystem, gram, inner_product

U = 2.0**-53

CLOSED_FORM = (
    Gaussian(),
    TwoSidedExp(1),
    TwoSidedExp(3),
    RationalL2([1.0], [1.0, 0.0, 1.0]),
    RationalL2([0.0, 1.0], [1.0, 0.0, 1.0]),
    RationalL2([1.0], [1.0, 0.0, 0.0, 0.0, 1.0]),
    RationalL2([1.0, 2.0], [3.0, 1.0, 0.0, 1.0, 1.0]),
    CatalogGenerator("ft_box"),
    CatalogGenerator("ft_annulus_tent"),
)
CLOSED_FORM_IDS = (
    "gaussian", "exp1", "exp3", "lorentz", "odd", "quartic", "mixed", "ft_box", "ft_annulus_tent",
)


def pairs(points):
    """Arrays (lp, bp, lq, bq) of the upper triangle of a list of points."""
    rows, cols = np.triu_indices(len(points))
    lam = np.array([p.dilation for p in points])
    beta = np.array([p.translation for p in points])
    return lam[rows], beta[rows], lam[cols], beta[cols]


def assert_agree_with_quadrature(gen, points, tol=1e-12):
    params = pairs(points)
    values, errors = gen.pair_closed_form(*params)
    quad, quad_errors = wavelet_system._quadrature_pairs(gen, *params, tol)
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
        (CatalogGenerator("ft_box"), box_pairing),
    ),
    ids=("gaussian", "exp2", "lorentz", "ft_box"),
)
def test_bounds_hold_against_exact_formulas(gen, exact):
    params = pairs(list(EXACT_POINTS))
    values, errors = gen.pair_closed_form(*params)
    for k, (lp, bp, lq, bq) in enumerate(zip(*(v.tolist() for v in params))):
        # the shift, correctly rounded from its exact value
        d = float(Fraction(bp) / Fraction(lp) - Fraction(bq) / Fraction(lq))
        reference = exact(lp, lq, d)
        # the plain formulas round too; allow them 64 u of the entry
        assert abs(values[k] - reference) <= errors[k] + 64.0 * U * abs(reference)
        if max(abs(bp), abs(bq)) < 1e3:
            assert errors[k] <= 1e-12


def test_rational_pole_separation_rule():
    # simple poles: residues
    for num, den in (([1.0], [1.0, 0.0, 1.0]), ([1.0], [1.0, 0.0, 0.0, 0.0, 1.0]),
                     ([1.0, 2.0], [3.0, 1.0, 0.0, 1.0, 1.0])):
        assert RationalL2(num, den).closed_form
    # double poles at +-i, and two poles 1e-4 apart: quadrature
    assert not RationalL2([1.0], [1.0, 0.0, 2.0, 0.0, 1.0]).closed_form
    close = np.real(np.poly([1j, -1j, 1.0001j, -1.0001j]))[::-1]
    assert not RationalL2([1.0], close.tolist()).closed_form


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
def test_gram_and_inner_product_use_the_closed_form(gen):
    assert wavelet_system._pairing(gen)[0] is wavelet_system._closed_form_pairs
    points = [P(1.0, 0.0), P(2.0, 1.0), P(0.5, -1.0)]
    report = gram(WaveletSystem(gen, points))
    values, errors = gen.pair_closed_form(*pairs(points))
    assert report.quad_error == errors.max()
    rows, cols = np.triu_indices(len(points))
    for k, (i, j) in enumerate(zip(rows, cols)):
        value, error = inner_product(gen, points[i], points[j])
        assert value == report.matrix[i, j] == complex(values[k], 0.0)
        assert error == errors[k]


def test_far_gaussian_origins_pair_in_relative_coordinates():
    # origins 0.45 and 3.2e299: the shift between them is exact enough, and
    # the off-diagonal entry underflows to 0 with a 0 bound
    report = gram(WaveletSystem(Gaussian(), [P(2.47, 1.1), P(3.11, 1e300)]))
    assert report.matrix[0, 1] == 0.0
    for k, lam in enumerate((2.47, 3.11)):
        assert abs(report.matrix[k, k] - math.sqrt(math.pi / 2.0) / lam) <= report.quad_error
    value, error = inner_product(Gaussian(), P(2.47, 1.1), P(3.11, 1e300))
    assert value == 0.0 and error <= 1e-300
