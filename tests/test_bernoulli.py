"""Bernoulli convolution approximants and smoothness thresholds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale.bernoulli import (
    BernoulliModel,
    SmoothnessVerdict,
    _count_below,
    density,
    fourier,
    smoothness_verdict,
    threshold,
)
from twoscale.errors import BadParameterError, BudgetExceededError
from twoscale.refinement import GRID_BUDGET, preset, validate_equation


def enumerated_masses(alpha, depth, edges):
    """Reference: every atom formed and binned by np.histogram, one prefix at a time.

    The deepest 20 terms are summed into a tail in sign-bit order; each
    prefix offset adds +-alpha^j for j = 1.. in bit order, starting at 0.0.
    """
    tail_bits = min(depth, 20)
    prefix_bits = depth - tail_bits
    tail = np.zeros(1)
    for j in range(prefix_bits + 1, depth + 1):
        tail = np.concatenate([tail - alpha**j, tail + alpha**j])
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    terms = [alpha**j for j in range(1, prefix_bits + 1)]
    for prefix in range(1 << prefix_bits):
        offset = 0.0
        for bit, term in enumerate(terms):
            offset += term if (prefix >> bit) & 1 else -term
        counts += np.histogram(offset + tail, bins=edges)[0]
    return counts * 2.0**-depth


def scalar_fourier(alpha, gamma, tol):
    """Reference: the characteristic function one point at a time, in libm.

    The depth is the least J >= 1 whose neglected levels have
    sum_{j>J} (2 pi gamma lambda^-j)^2 / 2 <= log1p(tol/2), lambda = 1/alpha,
    found by stepping J up; the levels divide gamma by lambda in turn.
    """
    if gamma == 0.0:
        return 1.0
    lam = 1.0 / alpha
    depth = 1
    while (2.0 * math.pi * abs(gamma) * lam**-depth) ** 2 / (2.0 * (lam * lam - 1.0)) > math.log1p(0.5 * tol):
        depth += 1
    product = 1.0
    scaled = gamma
    for _ in range(depth):
        scaled /= lam
        product *= math.cos(2.0 * math.pi * scaled)
    return product


class TestModel:
    def test_alpha_bounds(self):
        assert BernoulliModel(0.5).lam == 2.0
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(BadParameterError):
                BernoulliModel(bad)

    def test_support_radius(self):
        assert BernoulliModel(0.5).support_radius() == 1.0
        assert abs(BernoulliModel(1 / 3).support_radius() - 0.5) <= 1e-15


class TestThreshold:
    def test_known_values(self):
        assert threshold(0) == 0.5
        assert threshold(1) == 0.7071067811865476
        assert abs(threshold(1) - 1.0 / math.sqrt(2.0)) <= 1e-15
        assert abs(threshold(3) - 2.0 ** (-0.25)) <= 1e-16

    def test_monotone_increasing(self):
        values = [threshold(n) for n in range(8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(BadParameterError):
            threshold(-1)


class TestVerdict:
    def test_examples(self):
        assert smoothness_verdict(0.6, 1) is SmoothnessVerdict.RULED_OUT
        assert smoothness_verdict(0.9, 1) is SmoothnessVerdict.UNKNOWN
        assert smoothness_verdict(0.49, 0) is SmoothnessVerdict.RULED_OUT

    def test_equality_is_unknown(self):
        # the cutoff inequality is strict
        assert smoothness_verdict(threshold(2), 2) is SmoothnessVerdict.UNKNOWN

    def test_cross_module_cap_identity(self):
        # alpha < 2^(-1/(n+1)) iff the two-term Hoelder cap is below n
        for n in range(4):
            for alpha in (0.3, 0.45, 0.6, 0.7, 0.8, 0.9):
                cap = 1.0 / math.log2(1.0 / alpha) - 1.0
                ruled_out = smoothness_verdict(alpha, n) is SmoothnessVerdict.RULED_OUT
                assert ruled_out == (alpha < threshold(n))
                if ruled_out:
                    assert cap < n


class TestFourier:
    def test_zero_is_one(self):
        assert fourier(BernoulliModel(0.77), 0.0, 1e-10) == 1.0

    def test_half_alpha_sinc_identity(self):
        model = BernoulliModel(0.5)
        assert abs(fourier(model, 0.25, 1e-12) - 2.0 / math.pi) <= 1e-11
        assert abs(fourier(model, 0.5, 1e-12)) <= 1e-11
        for g in np.linspace(-10.0, 10.0, 401):
            g = float(g)
            exact = 1.0 if g == 0.0 else math.sin(2 * math.pi * g) / (2 * math.pi * g)
            assert abs(fourier(model, g, 1e-12) - exact) <= 1e-10

    def test_tolerance_required(self):
        with pytest.raises(ValueError):
            fourier(BernoulliModel(0.5), 1.0, 0.0)

    @pytest.mark.parametrize(
        "alpha,gamma_max,step,tol",
        ((0.6, 16.0, 2.0**-7, 1e-8), (2.0**-0.5, 8.0, 2.0**-6, 1e-10), (0.9, 4.0, 2.0**-5, 1e-12)),
    )
    def test_array_matches_scalar_loop(self, alpha, gamma_max, step, tol):
        half = int(gamma_max / step)
        grid = step * np.arange(-half, half + 1)
        values = fourier(BernoulliModel(alpha), grid, tol)
        expected = [scalar_fourier(alpha, float(g), tol) for g in grid]
        assert values.tolist() == expected
        assert fourier(BernoulliModel(alpha), float(grid[-1]), tol) == expected[-1]

    def test_depth_budget(self):
        # depth about 1.8e8 at 5 points
        with pytest.raises(BudgetExceededError, match="levels"):
            fourier(BernoulliModel(0.9999999), np.array([-1.0, -0.5, 0.0, 0.5, 1.0]), 1e-8)
        # (2 pi gamma)^2 overflows, but its log does not: about 680 levels
        value = fourier(BernoulliModel(0.5), 1e200, 1e-8)
        assert math.isfinite(value) and abs(value) <= 1.0
        with pytest.raises(BadParameterError, match="phase"):
            fourier(BernoulliModel(0.5), 1e308, 1e-8)


class TestDensity:
    def test_single_flip(self):
        hist = density(BernoulliModel(0.3), 1, 2)
        assert np.array_equal(hist.masses, [0.5, 0.5])

    def test_uniform_law_exact_bins(self):
        hist = density(BernoulliModel(0.5), 20, 64)
        assert float(np.sum(hist.masses)) == 1.0
        assert np.max(np.abs(hist.masses - 1.0 / 64.0)) == 0.0

    def test_symmetry_exact(self):
        for alpha, depth in ((0.5, 16), (1 / 3, 12), (0.7, 14)):
            hist = density(BernoulliModel(alpha), depth, 63)
            assert np.array_equal(hist.masses, hist.masses[::-1])

    @pytest.mark.parametrize(
        "alpha,depth,bins",
        (
            (0.6, 24, 256),
            (0.5, 22, 64),
            (2.0**-0.5, 26, 256),
            (0.618034, 25, 100),
            (1 / 3, 21, 12),
            # more edges than one block of searches holds
            (0.6, 20, 2**20 + 7),
        ),
    )
    def test_counts_match_enumeration(self, alpha, depth, bins):
        hist = density(BernoulliModel(alpha), depth, bins)
        assert np.array_equal(hist.masses, enumerated_masses(alpha, depth, hist.bin_edges))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.one_of(
            st.sampled_from([0.5, 0.25, 0.75, 1 / 3, 2.0**-0.5, (math.sqrt(5) - 1) / 2]),
            st.floats(0.01, 0.99),
        ),
        depth=st.integers(1, 22),
        bins=st.integers(1, 700),
    )
    def test_counts_match_enumeration_property(self, alpha, depth, bins):
        hist = density(BernoulliModel(alpha), depth, bins)
        assert np.array_equal(hist.masses, enumerated_masses(alpha, depth, hist.bin_edges))

    def test_count_below_corrects_rounding(self):
        # 1 + t rounds down to 1 for t <= 2^-53 and up otherwise, so a search
        # for e - o = 2^-52 overcounts; -1 + 1 = 0 lies below 2^-60 although
        # 2^-60 + 1 rounds to 1, where a search undercounts
        tail = np.sort(np.concatenate([2.0**-55 * np.arange(12), [1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]]))
        offsets = np.array([1.0, -1.0, 0.75, 3.0, -3.0])[:, None]
        targets = np.concatenate([1.0 + tail, -1.0 + tail, [2.0**-60, 2.0**-52, -2.0**-60]])
        targets = np.concatenate([targets, np.nextafter(targets, np.inf), np.nextafter(targets, -np.inf)])
        targets = targets[None, :]
        searched = tail.searchsorted(targets - offsets)
        counted = _count_below(tail, offsets, targets)
        exact = (offsets[..., None] + tail < targets[..., None]).sum(axis=-1)
        assert np.array_equal(counted, exact)
        assert np.any(searched > exact) and np.any(searched < exact)

    def test_matches_brute_force_enumeration(self):
        alpha, depth, bins = 0.6, 10, 17
        hist = density(BernoulliModel(alpha), depth, bins)
        atoms = [
            sum(sign * alpha**j for sign, j in zip(signs, range(1, depth + 1)))
            for signs in itertools.product((-1.0, 1.0), repeat=depth)
        ]
        oracle, _ = np.histogram(atoms, bins=hist.bin_edges)
        assert np.array_equal(hist.masses, oracle / 2.0**depth)

    def test_cantor_gap(self):
        # largest attainable tail sum_{j>=2} 3^-j = 1/6 < 1/3, so the
        # interval (-1/6, 1/6) carries no atoms
        hist = density(BernoulliModel(1 / 3), 12, 12)
        middle = (hist.bin_edges[:-1] >= -1 / 6) & (hist.bin_edges[1:] <= 1 / 6)
        assert middle.any()
        assert np.all(hist.masses[middle] == 0.0)

    def test_fourier_consistency(self):
        model = BernoulliModel(0.5)
        hist = density(model, 18, 512)
        centers = hist.centers
        for g in (0.5, 1.0, 2.5, 4.0):
            empirical = float(np.sum(hist.masses * np.cos(2 * np.pi * g * centers)))
            exact = fourier(model, g, 1e-12)
            bin_half = 0.5 * (hist.bin_edges[1] - hist.bin_edges[0])
            budget = 2 * np.pi * g * (bin_half + hist.positional_error) + 1e-10
            assert abs(empirical - exact) <= budget

    def test_second_moment(self):
        hist = density(BernoulliModel(0.5), 24, 1024)
        second = float(np.sum(hist.masses * hist.centers**2))
        assert abs(second - 1.0 / 3.0) <= 1e-6

    def test_positional_error_formula(self):
        alpha, depth = 0.7, 12
        hist = density(BernoulliModel(alpha), depth, 8)
        assert hist.positional_error == alpha ** (depth + 1) / (1 - alpha)

    def test_budget(self):
        # 2^(depth - 20) prefixes x (bins + 1) edges searches, at most GRID_BUDGET
        hist = density(BernoulliModel(0.5), 27, 8)
        assert float(np.sum(hist.masses)) == 1.0
        hist = density(BernoulliModel(0.5), 22, GRID_BUDGET // 4 - 1)
        assert float(np.sum(hist.masses)) == 1.0
        for depth, bins in ((22, GRID_BUDGET // 4), (30, 4096), (42, 1), (4, GRID_BUDGET), (10**12, 4)):
            with pytest.raises(BudgetExceededError):
                density(BernoulliModel(0.5), depth, bins)
        with pytest.raises(BadParameterError):
            density(BernoulliModel(0.5), 0, 8)

    def test_edges_span_full_support(self):
        hist = density(BernoulliModel(0.6), 10, 10)
        radius = 0.6 / 0.4
        assert hist.bin_edges[0] == -radius
        assert hist.bin_edges[-1] == radius


def as_equation(model):
    """The two-term refinement equation with dilation 1/alpha, as the CLI builds it."""
    return preset("bernoulli", model.lam)


class TestAsEquation:
    def test_half(self):
        eq = as_equation(BernoulliModel(0.5))
        assert eq.lam == 2.0
        assert eq.coefficients == (1 + 0j, 1 + 0j)

    def test_third(self):
        eq = as_equation(BernoulliModel(1 / 3))
        assert eq.lam == pytest.approx(3.0)
        assert eq.coefficients[0] == pytest.approx(1.5)

    def test_round_trips_with_preset(self):
        eq = as_equation(BernoulliModel(0.25))
        other = preset("bernoulli", lam=4.0)
        assert eq.lam == other.lam
        assert eq.terms == other.terms

    def test_always_passes_endpoint_lemma(self):
        for alpha in (0.2, 0.5, 0.9):
            report = validate_equation(as_equation(BernoulliModel(alpha)))
            assert report.lemma_endpoint_pass
