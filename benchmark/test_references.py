"""Each reference against a second method.

Run with: python3 -m pytest benchmark/test_references.py
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

import checks
import references as ref
import workloads

POINTS = [(1.0, 0.0), (2.0, 1.0), (0.5, -1.0), (3.0, -1.0), (1.5, 0.2)]
PAIRS = list(itertools.combinations_with_replacement(POINTS, 2))


def _line_quad(f) -> float:
    return integrate.quad(f, -math.inf, math.inf, epsabs=1.0e-13, epsrel=0.0, limit=500)[0]


def _gauss_legendre(f, edges, nodes=64) -> float:
    """Composite Gauss-Legendre: exact enough for smooth pieces."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += 0.5 * (b - a) * float(np.dot(w, f(0.5 * (b - a) * x + 0.5 * (a + b))))
    return total


@pytest.mark.parametrize("p,q", PAIRS)
def test_gaussian_closed_form_matches_quadrature(p, q):
    (lp, bp), (lq, bq) = p, q
    value = _line_quad(lambda x: math.exp(-((lp * x - bp) ** 2) - (lq * x - bq) ** 2))
    assert ref.gaussian_entry(p, q) == pytest.approx(value, abs=1.0e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p,q", PAIRS)
def test_two_sided_exp_closed_form_matches_quadrature(n, p, q):
    (lp, bp), (lq, bq) = p, q
    kinks = sorted({bp / lp, bq / lq})
    edges = [-math.inf, *kinks, math.inf]
    value = sum(
        integrate.quad(
            lambda x: math.exp(-n * abs(lp * x - bp) - n * abs(lq * x - bq)),
            a, b, epsabs=1.0e-13, epsrel=0.0, limit=500,
        )[0]
        for a, b in zip(edges, edges[1:])
    )
    assert ref.two_sided_exp_entry(n, p, q) == pytest.approx(value, abs=1.0e-12)


def test_two_sided_exp_fault_f1_value():
    # closed form quoted for the F1 reproducer
    assert ref.two_sided_exp_entry(1, (1.0, -0.9), (1.5, 0.2)) == pytest.approx(0.5143686464, abs=1e-10)


@pytest.mark.parametrize("p,q", PAIRS)
def test_rational_quadrature_matches_cauchy_closed_form(p, q):
    value, err = ref.time_quad_entry(ref.rational_inverse_square, p, q, 1.0e-10)
    assert err <= 1.0e-12
    assert value.real == pytest.approx(ref.cauchy_entry(p, q), abs=1.0e-12)


@pytest.mark.parametrize("lam,bp,bq", [(1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (2.0, 1.0, 3.0), (0.5, -1.0, 2.0)])
def test_sech_quadrature_matches_closed_form(lam, bp, bq):
    value, _ = ref.time_quad_entry(ref.sech_pi, (lam, bp), (lam, bq), 1.0e-10)
    assert value.real == pytest.approx(ref.sech_equal_dilation_entry(lam, bp, bq), abs=1.0e-12)


@pytest.mark.parametrize("p,q", PAIRS)
def test_sech_time_side_matches_fourier_side(p, q):
    # sech(pi x) is its own Fourier transform
    time_side, _ = ref.time_quad_entry(ref.sech_pi, p, q, 1.0e-10)
    fourier_side, _ = ref.fourier_quad_entry(ref.sech_pi, p, q, 1.0e-10, 40.0 * max(p[0], q[0]))
    assert time_side == pytest.approx(fourier_side, abs=1.0e-11)


@pytest.mark.parametrize("p,q", PAIRS)
def test_ft_box_closed_form_matches_fourier_quadrature(p, q):
    value, _ = ref.fourier_quad_entry(ref.ft_box, p, q, 1.0e-10, 0.5 * min(p[0], q[0]), kinks=(0.5,))
    assert complex(ref.ft_box_entry(p, q)) == pytest.approx(value, abs=1.0e-12)


@pytest.mark.parametrize("p,q", PAIRS + [((1.0, 0.0), (1.99, 0.0))])
def test_annulus_quadrature_matches_gauss_legendre(p, q):
    (lp, bp), (lq, bq) = p, q
    s = bp / lp - bq / lq
    reach = 2.0 * min(lp, lq)
    edges = sorted({c for k in (1.0, 1.5, 2.0) for l in (lp, lq) for c in (k * l, -k * l) if abs(c) <= reach}
                   | {-reach, 0.0, reach})

    def part(trig):
        return lambda g: ref.ft_annulus_tent(g / lp) * ref.ft_annulus_tent(g / lq) * trig(2 * np.pi * s * g) / (lp * lq)

    expected = complex(_gauss_legendre(part(np.cos), edges), -_gauss_legendre(part(np.sin), edges))
    value, _ = ref.fourier_quad_entry(ref.ft_annulus_tent, p, q, 1.0e-10, reach, kinks=(1.0, 1.5, 2.0))
    assert value == pytest.approx(expected, abs=1.0e-12)


def test_annulus_fault_f2_value():
    value, _ = ref.fourier_quad_entry(ref.ft_annulus_tent, (1.0, 0.0), (1.99, 0.0), 1.0e-10, 2.0, kinks=(1.0, 1.5, 2.0))
    assert value.real == pytest.approx(3.3669e-7, rel=1.0e-4)


@pytest.mark.parametrize("p,q", PAIRS)
def test_log_exp_ratio_quadrature_matches_gauss_legendre(p, q):
    (lp, bp), (lq, bq) = p, q
    s = bp / lp - bq / lq
    reach = ref.log_exp_ratio_reach(p, q, 1.0e-10)
    # the log kink at 0 is resolved by grading the pieces towards it
    inner = [2.0**-k for k in range(40, -1, -1)]
    outer = list(np.arange(2.0, reach, 1.0)) + [reach]
    right = inner + outer
    edges = [-x for x in reversed(right)] + [0.0] + right

    def part(trig):
        return lambda g: ref.ft_log_exp_ratio(g / lp) * ref.ft_log_exp_ratio(g / lq) * trig(2 * np.pi * s * g) / (lp * lq)

    expected = complex(_gauss_legendre(part(np.cos), edges, 32), -_gauss_legendre(part(np.sin), edges, 32))
    value, _ = ref.fourier_quad_entry(ref.ft_log_exp_ratio, p, q, 1.0e-10, reach)
    assert value == pytest.approx(expected, abs=1.0e-11)


def test_log_exp_ratio_matches_its_definition():
    g = np.array([-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(g == 0.0, 0.0, g * np.log(np.abs(g)) / (np.exp(g) + np.exp(-g)))
    assert np.allclose(ref.ft_log_exp_ratio(g), direct, rtol=1.0e-14, atol=0.0)


@pytest.mark.parametrize("p,q", PAIRS)
def test_simpson_hat_matches_quadrature(p, q):
    (lp, bp), (lq, bq) = p, q
    xs, ys = ref.HAT_KNOTS
    kinks = sorted({(x + b) / l for x in xs for l, b in (p, q)})

    def f(x):
        return float(np.interp(lp * x - bp, xs, ys, 0, 0) * np.interp(lq * x - bq, xs, ys, 0, 0))

    expected = sum(integrate.quad(f, a, b, epsabs=1.0e-13, epsrel=0.0)[0] for a, b in zip(kinks, kinks[1:]))
    assert ref.piecewise_linear_entry(xs, ys, p, q) == pytest.approx(expected, abs=1.0e-13)


def test_simpson_hat_known_values():
    xs, ys = ref.HAT_KNOTS
    assert ref.piecewise_linear_entry(xs, ys, (1.0, 0.0), (1.0, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ref.piecewise_linear_entry(xs, ys, (1.0, 0.0), (1.0, 1.0)) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ref.piecewise_linear_entry(xs, ys, (1.0, 0.0), (1.0, 2.0)) == 0.0
    # fault F1's entry
    assert ref.piecewise_linear_entry(xs, ys, (1.5, 0.25), (2.0, 0.67)) == pytest.approx(0.374995837962963, abs=1e-15)


def test_simpson_sampled_gaussian_matches_gaussian():
    gen = workloads.gaussian_samples()
    xs, ys = ref.generator_knots(gen)
    for p, q in PAIRS:
        # the interpolant is within h^2/4 of exp(-x^2) in sup norm
        assert ref.piecewise_linear_entry(xs, ys, p, q) == pytest.approx(ref.gaussian_entry(p, q), abs=1.0e-5)


def test_cascade_of_the_hat_equation_is_the_hat():
    xs, values = ref.cascade_samples(workloads.HAT, 2.0**-6, 40)
    assert np.allclose(values, np.maximum(0.0, 1.0 - np.abs(xs - 1.0)), rtol=0.0, atol=1.0e-9)


def test_cascade_of_rham_satisfies_its_equation():
    xs, values = ref.cascade_samples(workloads.RHAM, 2.0**-8, 60)
    rebuilt = sum(
        t["c"][0] * np.interp(3.0 * xs - t["beta"], xs, values, left=0.0, right=0.0)
        for t in workloads.RHAM["terms"]
    )
    assert np.max(np.abs(rebuilt - values)) <= 1.0e-9
    assert 2.0**-8 * (values.sum() - 0.5 * (values[0] + values[-1])) == pytest.approx(1.0, abs=1e-14)


def test_gram_reference_of_the_dyadic_hat_lattice_has_the_expected_nullity():
    system = {"generator": {"kind": "hat"},
              "points": [{"lambda": l, "beta": b} for l, b in workloads.dyadic_lattice(5)]}
    matrix, _ = ref.gram_reference(system, 1.0e-10)
    eig = np.linalg.eigvalsh(matrix)
    assert int(np.sum(eig < 1.0e-8 * eig[-1])) == 26


def test_mask_product_matches_the_hat_profile():
    gamma = np.arange(-16.0, 16.0, 1.0 / 64.0)
    assert np.allclose(ref.mask_product(workloads.HAT, gamma), ref.hat_profile(gamma), rtol=0.0, atol=1.0e-13)


def test_cosine_product_matches_sinc_at_one_half():
    gamma = np.arange(-16.0, 16.0, 1.0 / 64.0) + 1.0 / 128.0
    assert np.allclose(ref.cosine_product(0.5, gamma), np.sinc(2.0 * gamma), rtol=0.0, atol=1.0e-13)


def test_cosine_product_is_the_bernoulli_mask_product():
    gamma = np.arange(-16.0, 16.0, 1.0 / 64.0)
    alpha = 0.6
    equation = {"lambda": 1.0 / alpha, "terms": [{"c": [0.5 / alpha, 0.0], "beta": -1.0},
                                                 {"c": [0.5 / alpha, 0.0], "beta": 1.0}]}
    assert np.allclose(ref.cosine_product(alpha, gamma), ref.mask_product(equation, gamma), rtol=0.0, atol=1.0e-13)


def test_masses_match_itertools_enumeration():
    alpha, depth, bins = 0.6, 10, 16
    radius = alpha / (1.0 - alpha)
    edges = np.linspace(-radius, radius, bins + 1)
    atoms = [sum(s * alpha**j for j, s in enumerate(signs, 1))
             for signs in itertools.product((-1.0, 1.0), repeat=depth)]
    expected = np.histogram(atoms, bins=edges)[0] / 2.0**depth
    assert np.array_equal(ref.bernoulli_masses(alpha, depth, edges), expected)


def test_masses_are_uniform_at_one_half():
    bins = 8
    edges = np.linspace(-1.0, 1.0, bins + 1)
    assert np.array_equal(ref.bernoulli_masses(0.5, 12, edges), np.full(bins, 1.0 / bins))


def test_paper_table_judges_rules():
    gaussian = {"generator": {"kind": "gaussian"}, "points": [{"lambda": 1.0, "beta": 0.0}] * 2}
    assert checks.rule_holds("ExpDecay_L31a", gaussian)
    exp_tied = {"generator": {"kind": "two_sided_exp", "n": 1},
                "points": [{"lambda": 2.0, "beta": 0.0}, {"lambda": 2.0, "beta": 1.0}]}
    assert not checks.rule_holds("PolyDecayMaxDilation_L31b", exp_tied)
    assert not checks.rule_holds("ExpDecay_L31a", exp_tied)
    assert checks.rule_holds("LECombination_T42", exp_tied)
    hat = {"generator": {"kind": "hat"}, "points": [{"lambda": 1.0, "beta": 0.0}]}
    assert not checks.paper_proves_independent(hat)
