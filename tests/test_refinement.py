"""Two-scale equation validation, solvers and regularity estimates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoscale.bernoulli import BernoulliModel
from twoscale.bernoulli import fourier as bernoulli_fourier
from twoscale.errors import (
    BadParameterError,
    BudgetExceededError,
    DivergingError,
    InsufficientDecadesError,
    InvalidEquationError,
    NotNormalizedError,
)
from twoscale.refinement import (
    GRID_BUDGET,
    FourierProfile,
    TwoScaleEquation,
    _FoldedMask,
    _fourier_product,
    _Stencil,
    cascade_solve,
    check_grid_budget,
    estimate_regularity,
    mask,
    normalized_support,
    preset,
    regularity_upper_bound,
    solve_fourier,
    validate_equation,
)

RHAM_BOUND = 0.36907024642  # ln(3/2)/ln(3)


def exact_hat(x):
    return np.maximum(0.0, 1.0 - np.abs(x - 1.0))


def exp_per_term_mask(eq, gamma):
    """Oracle: (1/lambda) sum_k c_k exp(-2 pi i beta_k gamma), one exp per term."""
    total = np.zeros(np.shape(gamma), dtype=np.complex128)
    for c, beta in eq.terms:
        total += c * np.exp(-2.0j * np.pi * beta * gamma)
    return total / eq.lam


# nonzero reals, so no drawn term is dropped as a zero coefficient
_REALS = st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)), st.floats(0.125, 2.0))


@st.composite
def mask_equations(draw):
    """A kind of equation and one of that kind, with up to 6 terms."""
    kind = draw(st.sampled_from(("real_symmetric", "real_asymmetric", "complex", "non_integer")))
    lam = draw(st.floats(1.0625, 4.0))
    if kind == "real_symmetric":
        terms = []
        for d in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
            c = draw(_REALS)
            terms += [(c, float(d)), (c, -float(d))] if d else [(c, 0.0)]
    elif kind == "non_integer":
        offsets = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6, unique=True))
        terms = [(complex(draw(_REALS), draw(st.floats(-2.0, 2.0))), b) for b in offsets]
    else:
        offsets = draw(st.sets(st.integers(-4, 4), min_size=1, max_size=6))
        imag = st.just(0.0) if kind == "real_asymmetric" else _REALS
        terms = [(complex(draw(_REALS), draw(imag)), float(b)) for b in offsets]
    return kind, TwoScaleEquation(lam, terms)


class TestConstruction:
    def test_merges_duplicate_offsets(self):
        eq = TwoScaleEquation(2.0, [(0.5, 0.0), (0.25, 1.0), (0.25, 1.0), (0.5, 2.0)])
        assert eq.terms == ((0.5 + 0j, 0.0), (0.5 + 0j, 1.0), (0.5 + 0j, 2.0))

    def test_drops_zero_coefficients(self):
        eq = TwoScaleEquation(2.0, [(1.0, 0.0), (0.0, 5.0), (1.0, 1.0)])
        assert eq.offsets == (0.0, 1.0)

    def test_rejects_bad_dilation(self):
        with pytest.raises(InvalidEquationError):
            TwoScaleEquation(1.0, [(1.0, 0.0)])

    def test_rejects_fully_cancelled(self):
        with pytest.raises(InvalidEquationError):
            TwoScaleEquation(2.0, [(1.0, 0.0), (-1.0, 0.0)])

    def test_sorts_by_offset(self):
        eq = TwoScaleEquation(3.0, [(1.0, 2.0), (2.0, -2.0), (0.5, 0.0)])
        assert eq.offsets == (-2.0, 0.0, 2.0)


class TestPresets:
    def test_rham(self):
        eq = preset("rham")
        assert eq.lam == 3.0
        assert eq.coefficients == (2 / 3 + 0j, 1 / 3 + 0j, 1 + 0j, 1 / 3 + 0j, 2 / 3 + 0j)
        assert eq.offsets == (-2.0, -1.0, 0.0, 1.0, 2.0)

    def test_hat(self):
        eq = preset("hat")
        assert eq.lam == 2.0
        assert eq.coefficients == (0.5 + 0j, 1 + 0j, 0.5 + 0j)
        assert eq.offsets == (0.0, 1.0, 2.0)

    def test_bernoulli(self):
        eq = preset("bernoulli", lam=2.0)
        assert eq.coefficients == (1 + 0j, 1 + 0j)
        assert eq.offsets == (-1.0, 1.0)
        inline = preset("bernoulli(2)")
        assert inline.lam == eq.lam and inline.terms == eq.terms

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            preset("nope")
        with pytest.raises(BadParameterError):
            preset("bernoulli")
        with pytest.raises(BadParameterError):
            preset("bernoulli", lam=0.9)


class TestValidation:
    def test_hat_passes(self):
        report = validate_equation(preset("hat"))
        assert report.lemma_endpoint_pass
        assert report.coefficient_sum == 2.0 + 0j
        assert report.normalized
        assert report.two_term_class is None

    def test_large_endpoint_fails(self):
        report = validate_equation(TwoScaleEquation(2.0, [(3.0, 0.0), (-1.0, 1.0)]))
        assert not report.lemma_endpoint_pass
        assert any("leading coefficient" in m for m in report.messages)

    def test_two_term_lambda_two(self):
        report = validate_equation(preset("bernoulli(2)"))
        assert report.two_term_class is not None
        assert report.two_term_class.kind == "bounded_forces_unit_coeffs"
        assert report.two_term_class.unit_coeffs is True

    def test_two_term_large_lambda(self):
        report = validate_equation(preset("bernoulli(2.5)"))
        assert report.two_term_class.kind == "unbounded_only"

    def test_two_term_small_lambda_cap(self):
        lam = 2.0 ** (2.0 / 3.0)
        report = validate_equation(preset("bernoulli", lam=lam))
        assert report.two_term_class.kind == "hoelder_capped"
        assert abs(report.two_term_class.cap - 0.5) <= 1e-12

    def test_single_term_noted(self):
        report = validate_equation(TwoScaleEquation(2.0, [(0.5, 0.0)]))
        assert any("single-term" in m for m in report.messages)

    def test_never_smooth_note_present(self):
        report = validate_equation(preset("rham"))
        assert any("C-infinity" in m for m in report.messages)


class TestRegularityBound:
    def test_rham_golden_value(self):
        bound = regularity_upper_bound(preset("rham"))
        assert abs(bound.mu_upper - math.log(1.5) / math.log(3.0)) <= 1e-15
        assert abs(bound.mu_upper - RHAM_BOUND) <= 1e-9
        assert not bound.discontinuous

    def test_hat_is_one(self):
        bound = regularity_upper_bound(preset("hat"))
        assert abs(bound.mu_upper - 1.0) <= 1e-15

    def test_two_term_cap_consistency(self):
        lam = 2.0 ** (2.0 / 3.0)
        bound = regularity_upper_bound(preset("bernoulli", lam=lam))
        cap = 1.0 / math.log2(lam) - 1.0
        assert abs(bound.mu_upper - 0.5) <= 1e-12
        assert abs(bound.mu_upper - cap) <= 1e-12

    def test_unit_coefficient_flags_discontinuity(self):
        bound = regularity_upper_bound(preset("bernoulli(2)"))
        assert bound.mu_upper == 0.0
        assert bound.discontinuous

    def test_monotone_in_endpoint_magnitude(self):
        previous = math.inf
        for c0 in (0.25, 0.5, 0.75, 1.0, 1.25):
            eq = TwoScaleEquation(2.0, [(c0, 0.0), (1.0, 1.0), (0.5, 2.0)])
            mu = regularity_upper_bound(eq).mu_upper
            assert mu <= previous + 1e-15
            previous = mu


class TestSupportAndMask:
    def test_supports(self):
        assert normalized_support(preset("hat")) == (0.0, 2.0)
        assert normalized_support(preset("bernoulli(2)")) == (-1.0, 1.0)
        assert normalized_support(preset("rham")) == (-1.0, 1.0)

    def test_translation_covariance(self):
        eq = preset("rham")
        lo, hi = normalized_support(eq)
        shift = 0.7
        moved = TwoScaleEquation(
            eq.lam, [(c, b + (eq.lam - 1.0) * shift) for c, b in eq.terms]
        )
        lo2, hi2 = normalized_support(moved)
        assert abs(lo2 - (lo + shift)) <= 1e-12
        assert abs(hi2 - (hi + shift)) <= 1e-12

    def test_bernoulli_mask_is_cosine(self):
        eq = preset("bernoulli(2)")
        for g in (0.0, 0.1, 0.25, 0.4, 1.3):
            assert abs(mask(eq, g) - math.cos(2.0 * math.pi * g)) <= 1e-14
        assert abs(mask(eq, 0.25)) <= 1e-14

    def test_hat_mask_closed_form(self):
        eq = preset("hat")
        for g in (0.05, 0.3, 0.5, 0.9):
            expected = np.exp(-2j * np.pi * g) * math.cos(math.pi * g) ** 2
            assert abs(mask(eq, g) - expected) <= 1e-14
        assert abs(mask(eq, 0.5)) <= 1e-14

    def test_normalized_mask_at_zero(self):
        for name in ("rham", "hat", "bernoulli(2)"):
            assert abs(mask(preset(name), 0.0) - 1.0) <= 1e-14

    def test_mask_bounded_by_coefficient_mass(self):
        rng = np.random.default_rng(5)
        eq = preset("rham")
        bound = sum(abs(c) for c in eq.coefficients) / eq.lam
        for g in rng.uniform(-20, 20, size=32):
            assert abs(mask(eq, float(g))) <= bound + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mask_equations(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_folded_mask_matches_exp_per_term(self, drawn, gammas):
        kind, eq = drawn
        gamma = np.array(gammas)
        folded = mask(eq, gamma)
        assert folded.dtype == np.complex128
        # the phases 2 pi beta gamma are rounded differently by the two forms
        mass = sum(abs(c) for c in eq.coefficients) / eq.lam
        phase = 2.0 * math.pi * max(abs(b) for b in eq.offsets) * np.abs(gamma)
        bound = 8.0 * np.finfo(float).eps * mass * (1.0 + phase)
        assert np.all(np.abs(folded - exp_per_term_mask(eq, gamma)) <= bound)
        if kind == "real_symmetric":
            assert np.all(folded.imag == 0.0)

    @pytest.mark.parametrize(
        "eq",
        [
            preset("bernoulli(2)"),  # a0 = 0, one unit cosine
            preset("rham"),
            preset("hat"),
            TwoScaleEquation(2.0, [(1j, 1.0), (-1j, -1.0)]),  # a bare unit sine
            TwoScaleEquation(2.0, [(1.0, -1.0), (1.0, 1.0), (1j, 2.0)]),  # complex, unit cosine
            TwoScaleEquation(2.0, [(-1e-320, -1.0), (-1e-320, 1.0)]),  # products underflow to -0
            TwoScaleEquation(3.0, [(0.5, -2.0), (-1.5, 0.0), (0.5, 2.0), (1.0, 1.0)]),
        ],
    )
    def test_folded_mask_skips_zero_and_unit_terms_bit_for_bit(self, eq):
        folded = _FoldedMask(eq)
        s = np.array([-0.0, 0.0, 0.25, -0.25, 5e-324, -5e-324, 0.1, 1.7, -3.3, 1e5])
        expected = np.full(s.shape, folded.a0)
        for w, p, q in folded.rows:
            if p:
                expected += p * np.cos(w * s)
            if q:
                expected += q * np.sin(w * s)
        got = folded(s)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_mask_vectorized(self):
        eq = preset("hat")
        grid = np.array([0.0, 0.25, 0.5])
        vals = mask(eq, grid)
        assert vals.shape == grid.shape
        assert abs(vals[2] - mask(eq, 0.5)) == 0.0


class TestSolveFourier:
    def test_rejects_unnormalized(self):
        eq = TwoScaleEquation(2.0, [(1.0, 0.0), (0.5, 1.0)])
        with pytest.raises(NotNormalizedError):
            solve_fourier(eq, [0.0, 1.0], 1e-8)

    def test_zero_is_exactly_one(self):
        prof = solve_fourier(preset("rham"), [-1.0, 0.0, 1.0], 1e-10)
        assert prof.values[1] == 1.0 + 0.0j

    def test_bernoulli_sinc_value(self):
        prof = solve_fourier(preset("bernoulli(2)"), [0.25], 1e-12)
        assert abs(prof.values[0] - 2.0 / math.pi) <= 1e-11

    def test_hat_transform_magnitude(self):
        prof = solve_fourier(preset("hat"), [0.5], 1e-12)
        assert abs(abs(prof.values[0]) - (2.0 / math.pi) ** 2) <= 1e-11

    def test_functional_equation_residual(self):
        rng = np.random.default_rng(17)
        for name in ("rham", "hat", "bernoulli(2)"):
            eq = preset(name)
            gammas = rng.uniform(-8.0, 8.0, size=25)
            grid = np.unique(np.concatenate([gammas, gammas / eq.lam]))
            prof = solve_fourier(eq, grid, 1e-12)
            lookup = dict(zip(prof.grid, prof.values))
            for g in gammas:
                lhs = lookup[g]
                rhs = mask(eq, g / eq.lam) * lookup[g / eq.lam]
                assert abs(lhs - rhs) <= 2.0 * prof.tail_bound + 1e-13

    def test_bernoulli_mask_magnitude_bound(self):
        grid = np.linspace(-6.0, 6.0, 241)
        prof = solve_fourier(preset("bernoulli(2)"), grid, 1e-10)
        assert np.max(np.abs(prof.values)) <= 1.0 + 1e-9

    def test_depth_rule_continues_past_float_range(self):
        # W |gamma| is formed as a logarithm, so the depth keeps growing by
        # log2(100) from 1e298 to 1e300
        eq = preset("hat")
        below = solve_fourier(eq, [1e298], 1e-8).truncation_depth
        above = solve_fourier(eq, [1e300], 1e-8).truncation_depth
        assert above - below in (6, 7)
        assert solve_fourier(eq, [1e300], 1e-8).tail_bound <= 0.5e-8

    @pytest.mark.parametrize("name", ("rham", "hat", "bernoulli(2)", "bernoulli(1.6)"))
    @pytest.mark.parametrize("tol", (1e-4, 1e-8, 1e-12))
    def test_depth_is_least_level_meeting_the_second_order_bound(self, name, tol):
        # past level J the deviations |m - 1| sum to at most b1 u + b2 u^2,
        # u = |gamma| lambda^-J, from the folded rows (2 pi d, P_d, Q_d)
        eq = preset(name)
        lam = eq.lam
        coefficient = {beta: c for c, beta in eq.terms}
        a1 = a2 = 0.0
        for d in {abs(beta) for beta in eq.offsets if beta}:
            plus, minus = coefficient.get(d, 0.0), coefficient.get(-d, 0.0)
            w = 2.0 * math.pi * d
            a1 += abs(minus - plus) / lam * w
            a2 += abs(plus + minus) / lam * w * w / 2.0

        def tail_sum(gamma, depth):
            u = abs(gamma) * lam**-depth
            return a1 * u / (lam - 1.0) + a2 * u * u / (lam * lam - 1.0)

        cap = math.log1p(0.5 * tol)
        gammas = np.concatenate([-np.geomspace(1e-6, 1e6, 40), [0.0], np.geomspace(1e-6, 1e6, 40)])
        values, depths, tails = _fourier_product(eq, gammas, tol)
        tails = tails()
        for gamma, depth in zip(gammas, depths):
            assert depth >= 1 and depth == int(depth)
            assert gamma == 0.0 or tail_sum(gamma, depth) <= cap * (1.0 + 1e-12)
            assert depth == 1 or tail_sum(gamma, depth - 1) > cap * (1.0 - 1e-12)
        assert np.all(tails <= 0.5 * tol * np.abs(values) * (1.0 + 1e-9))
        assert values[40] == 1.0 and depths[40] == 1.0 and tails[40] == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mask_equations(),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12, unique=True),
        st.sampled_from((1e-3, 1e-6, 1e-9)),
    )
    def test_tail_bound_holds_forty_levels_deeper(self, drawn, gammas, tol):
        eq = drawn[1]
        total = eq.coefficient_sum()
        assume(abs(total) >= sum(abs(c) for c in eq.coefficients) / 8.0)
        eq = TwoScaleEquation(eq.lam, [(c * (eq.lam / total), beta) for c, beta in eq.terms])
        mass = sum(abs(c) for c in eq.coefficients) / eq.lam
        grid = np.sort(gammas)
        prof = solve_fourier(eq, grid, tol)
        depths = _fourier_product(eq, grid, tol)[1]
        deeper = np.ones(grid.size, dtype=np.complex128)
        scaled = grid.copy()
        for j in range(1, int(np.max(depths)) + 41):
            scaled /= eq.lam
            deeper *= np.where(j <= depths + 40, mask(eq, scaled), 1.0)
        deeper[grid == 0.0] = 1.0
        # 40 more factors, each within a few eps times the mass of its exact value
        rounding = 256.0 * np.finfo(float).eps * mass * np.abs(deeper)
        assert np.all(np.abs(prof.values - deeper) <= prof.tail_bound + rounding)
        assert prof.tail_bound <= 0.5 * tol * max(1.0, float(np.max(np.abs(prof.values))))

    def test_real_symmetric_masks_get_second_order_depths(self):
        # a first-order rule needs 23 levels for rham on this grid
        prof = solve_fourier(preset("rham"), np.linspace(-64.0, 64.0, 4097), 1e-8)
        assert prof.truncation_depth == 14

    @pytest.mark.parametrize("name", ("rham", "hat", "bernoulli(2)"))
    def test_infinite_tolerance_takes_one_level(self, name):
        eq = preset(name)
        grid = np.linspace(-8.0, 8.0, 33)
        prof = solve_fourier(eq, grid, math.inf)
        assert prof.truncation_depth == 1
        expected = mask(eq, grid / eq.lam)
        expected[16] = 1.0
        assert np.array_equal(prof.values, expected)

    @pytest.mark.parametrize("name", ("rham", "bernoulli(2)"))
    def test_real_symmetric_equation_has_exactly_real_transform(self, name):
        prof = solve_fourier(preset(name), np.linspace(-64.0, 64.0, 4097), 1e-8)
        assert prof.values.dtype == np.complex128
        assert np.all(prof.values.imag == 0.0)

    @pytest.mark.parametrize("alpha", (0.5, 0.6, 0.75))
    def test_agrees_with_bernoulli_characteristic_function(self, alpha):
        # one product under one depth rule
        grid = np.linspace(-16.0, 16.0, 2049)
        model = BernoulliModel(alpha)
        prof = solve_fourier(preset("bernoulli", model.lam), grid, 1e-8)
        assert np.array_equal(bernoulli_fourier(model, grid, 1e-8), prof.values.real)

    def test_overflowing_folded_coefficient_is_refused(self):
        # normalized, but i (c(-d) - c(d))/lambda passes the float range; the
        # terms at +-0.01 nearly cancel, so the depth rule stays finite
        big = 1.7e308
        eq = TwoScaleEquation(1.0625, [(-big, -0.01), (big, 0.01), (1.0625, 3.0)])
        with pytest.raises(BadParameterError):
            solve_fourier(eq, np.linspace(-0.01, 0.01, 9), 1e-8)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            solve_fourier(preset("hat"), [], 1e-8)
        with pytest.raises(ValueError):
            solve_fourier(preset("hat"), [0.0, 0.0], 1e-8)

    # NaN passes the increasing-grid check, since nan <= 0 is false
    @pytest.mark.parametrize("grid", ([0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]))
    def test_nonfinite_frequencies_are_refused(self, grid):
        with pytest.raises(BadParameterError, match="^frequencies must be finite$"):
            solve_fourier(preset("rham"), grid, 1e-8)


# the even masks (no sine rows) are formed once per |gamma|; hat has sine rows
PRODUCT_MASKS = {
    "rham": preset("rham"),
    **{f"bernoulli({lam:.6g})": preset("bernoulli", lam) for lam in (2.0, 1 / 0.6, 2**0.5, 1 / 0.9)},
    "complex even": TwoScaleEquation(2.0, [(0.5 + 0.25j, -1.0), (1.0 - 0.5j, 0.0), (0.5 + 0.25j, 1.0)]),
    "hat": preset("hat"),
}


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestFourierProduct:
    @pytest.mark.parametrize("name", PRODUCT_MASKS)
    def test_each_point_gets_the_bits_it_gets_alone(self, name):
        eq = PRODUCT_MASKS[name]
        rng = np.random.default_rng(34)
        base = np.concatenate(
            [rng.uniform(-20.0, 20.0, 40), [0.0, -0.0, 1e-6, -1e-6, 3.0, -3.0, 1e3, -1e3]]
        )
        points = np.concatenate([base, base[::3]])  # repeated points
        rng.shuffle(points)
        values, depths, tails = _fourier_product(eq, points, 1e-8)
        tails = tails()
        for k in range(points.size):
            alone, depth, tail = _fourier_product(eq, points[k : k + 1], 1e-8)
            assert bits(values[k]) == bits(alone[0])
            assert bits(depths[k]) == bits(depth[0])
            assert bits(tails[k]) == bits(tail()[0])

    @pytest.mark.parametrize("name", [name for name in PRODUCT_MASKS if name != "hat"])
    def test_even_mask_has_the_bits_of_the_product_formed_at_minus_gamma(self, name):
        eq = PRODUCT_MASKS[name]
        folded = _FoldedMask(eq)
        assert not any(q for _, _, q in folded.rows)
        gammas = np.geomspace(1e-6, 1e6, 121)
        values, depths, _ = _fourier_product(eq, np.concatenate([gammas, -gammas]), 1e-8)
        assert bits(values[:121]) == bits(values[121:])
        assert bits(depths[:121]) == bits(depths[121:])
        # the factors formed at -gamma itself, level by level: cos(-x) == cos(x)
        scaled = -gammas
        product = np.ones(gammas.size, dtype=values.dtype)
        for j in range(1, int(depths.max()) + 1):
            active = depths[121:] >= j
            scaled[active] /= eq.lam
            product[active] *= folded(scaled[active])
        assert bits(values[121:]) == bits(product)


class TestCascade:
    @pytest.mark.parametrize("resolution", (0.0, float("inf"), float("nan")))
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError):
            cascade_solve(preset("hat"), resolution, 5)

    def test_grid_budget(self):
        check_grid_budget(GRID_BUDGET)
        check_grid_budget(GRID_BUDGET // 4, 4)
        for points, iterations in ((GRID_BUDGET + 1, 1), (GRID_BUDGET // 4 + 1, 4), (2.0, 10**400)):
            with pytest.raises(BudgetExceededError):
                check_grid_budget(points, iterations)
        # the hat's support [0, 2] holds 2^22 + 1 points at step 2^-21
        for resolution, iterations in ((2.0**-21, 0), (2.0**-10, 10**9), (5e-324, 1)):
            with pytest.raises(BudgetExceededError):
                cascade_solve(preset("hat"), resolution, iterations)

    def test_hat_fixed_point(self):
        sampled, residuals = cascade_solve(preset("hat"), 2.0**-10, 15)
        assert np.max(np.abs(sampled.values - exact_hat(sampled.grid))) <= 1e-3
        assert len(residuals) == 15
        assert all(b < a for a, b in zip(residuals[3:], residuals[4:]))

    def test_hat_refinement_identity_pointwise(self):
        # oracle for using the hat as the known fixed point
        xs = np.linspace(-0.5, 2.5, 301)
        lhs = exact_hat(xs)
        rhs = 0.5 * exact_hat(2 * xs) + exact_hat(2 * xs - 1) + 0.5 * exact_hat(2 * xs - 2)
        assert np.max(np.abs(lhs - rhs)) == 0.0

    def test_bernoulli_uniform_density(self):
        sampled, _ = cascade_solve(preset("bernoulli(2)"), 2.0**-10, 20)
        margin = 8
        interior = sampled.values[margin:-margin]
        assert np.max(np.abs(interior - 0.5)) <= 5e-3

    def test_zero_iterations_returns_init(self):
        sampled, residuals = cascade_solve(preset("hat"), 2.0**-6, 0)
        assert residuals == []
        assert sampled.values[1] == 0.5  # indicator level, no renormalization

    def test_failing_lemma_drives_divergence(self):
        eq = TwoScaleEquation(2.0, [(3.0, 0.0), (-1.0, 1.0)])
        with pytest.raises(DivergingError):
            cascade_solve(eq, 2.0**-8, 40)

    def test_rejects_unnormalized(self):
        eq = TwoScaleEquation(2.0, [(1.0, 0.0), (0.5, 1.0)])
        with pytest.raises(NotNormalizedError):
            cascade_solve(eq, 2.0**-6, 3)

    @pytest.mark.parametrize("name", ["hat", "bernoulli(2)"])
    def test_cascade_fourier_consistency(self, name):
        eq = preset(name)
        sampled, _ = cascade_solve(eq, 2.0**-10, 18)
        grid = np.linspace(-8.0, 8.0, 129)
        prof = solve_fourier(eq, grid, 1e-10)
        xs = sampled.grid
        dft = np.array(
            [sampled.step * np.sum(sampled.values * np.exp(-2j * np.pi * g * xs)) for g in grid]
        )
        assert np.max(np.abs(dft - prof.values)) <= 1e-2


def interp_cascade(eq, resolution, iterations):
    """(values, residuals) of the cascade with one np.interp per term and part: the oracle."""
    lo, hi = normalized_support(eq)
    count = int(math.ceil((hi - lo) / resolution - 1.0e-12)) + 1
    grid = lo + resolution * np.arange(count)
    real = all(c.imag == 0.0 for c in eq.coefficients)
    values = np.full(grid.shape, 1.0 / (hi - lo))
    values[0] = values[-1] = 0.5 / (hi - lo)
    if not real:
        values = values.astype(np.complex128)
    residuals = []
    for _ in range(iterations):
        new_values = np.zeros_like(values)
        with np.errstate(over="ignore", invalid="ignore"):
            for c, beta in eq.terms:
                x = eq.lam * grid - beta
                if real:
                    c, read = c.real, np.interp(x, grid, values, left=0.0, right=0.0)
                else:
                    real_part = np.interp(x, grid, values.real, left=0.0, right=0.0)
                    imag_part = np.interp(x, grid, values.imag, left=0.0, right=0.0)
                    read = real_part + 1.0j * imag_part
                new_values = new_values + c * read
        residuals.append(float(np.max(np.abs(new_values - values))))
        values = new_values
    if real and all(c.real >= 0.0 for c in eq.coefficients):
        integral = float(
            resolution * (values.real.sum() - 0.5 * (values.real[0] + values.real[-1]))
        )
        if integral > 0.0:
            values = values / integral
    return values, residuals


# lambda = 2.5 with offsets 0, 0.7, 1.3: most dilated points fall between nodes
NON_LATTICE = TwoScaleEquation(2.5, [(0.6, 0.0), (1.2, 0.7), (0.7, 1.3)])
COMPLEX_HAT = TwoScaleEquation(2.0, [(0.5 + 0.25j, 0.0), (1.0 - 0.5j, 1.0), (0.5 + 0.25j, 2.0)])
# a support 1e-6 wide at 1e6: the grid step 1e-11 is below the spacing of
# floats there, so the grid repeats its nodes
COMPLEX_NON_LATTICE = TwoScaleEquation(
    2.5, [(0.6 + 0.3j, 0.0), (1.2 - 0.6j, 0.7), (0.7 + 0.3j, 1.3)]
)
REPEATED_NODES = TwoScaleEquation(2.0, [(0.7, 1e6), (0.6, 1e6 + 3e-7), (0.7, 1e6 + 1e-6)])
# a lattice equation with a negative coefficient, which forms signed zeros
SIGNED_LATTICE = TwoScaleEquation(2.0, [(0.683, 0.0), (1.183, 1.0), (0.317, 2.0), (-0.183, 3.0)])
# the outer terms hit nodes at stride 2; the middle one, at 0.3, interpolates
MIXED = TwoScaleEquation(2.0, [(0.5, 0.0), (1.0, 0.3), (0.5, 2.0)])
# a grid of step 2^-52 near 7/8, where 3x rounds to a multiple of 2^-51:
# every point hits a node, but the nodes step by 2 and by 4
UNEVEN_HITS = TwoScaleEquation(
    3.0, [(0.9, 1.75 - 2.0**-45), (1.2, 1.75), (0.9, 1.75 + 2.0**-45)]
)


def stencils(eq, resolution):
    lo, hi = normalized_support(eq)
    grid = lo + resolution * np.arange(int(math.ceil((hi - lo) / resolution - 1.0e-12)) + 1)
    return [_Stencil(grid, eq.lam * grid - beta) for beta in eq.offsets]


class TestCascadeStencil:
    @pytest.mark.parametrize(
        "eq,resolution,iterations",
        [
            (preset("rham"), 2.0**-10, 40),
            (preset("hat"), 2.0**-8, 30),
            (preset("bernoulli(1.6666666666666667)"), 2.0**-9, 30),
            (NON_LATTICE, 0.003, 30),
            (COMPLEX_HAT, 2.0**-7, 20),
            (COMPLEX_NON_LATTICE, 0.01, 12),
            (REPEATED_NODES, 1e-11, 4),
            (SIGNED_LATTICE, 2.0**-8, 30),
            (MIXED, 2.0**-8, 30),
            (UNEVEN_HITS, 2.0**-52, 12),
        ],
    )
    def test_matches_np_interp_bit_for_bit(self, eq, resolution, iterations):
        sampled, residuals = cascade_solve(eq, resolution, iterations)
        values, expected = interp_cascade(eq, resolution, iterations)
        assert sampled.values.dtype == values.dtype
        assert sampled.values.tobytes() == values.tobytes()  # signbits included
        assert np.array(residuals).tobytes() == np.array(expected).tobytes()

    def test_lattice_and_non_lattice_branches(self):
        # rham and hat on dyadic grids hit nodes only, at one stride, and read
        # through slices; the non-lattice equation mostly interpolates, with
        # a few exact hits
        for eq, resolution in ((preset("rham"), 2.0**-10), (preset("hat"), 2.0**-8)):
            assert all(isinstance(st.hits, slice) for st in stencils(eq, resolution))
        drawn = stencils(NON_LATTICE, 0.003)
        assert all(st.line_j.size > 0 and st.hits is None for st in drawn)
        assert any(st.line_j.size < st.stop - st.start for st in drawn)

    def test_mixed_and_uneven_stencils(self):
        reads = [type(st.hits) for st in stencils(MIXED, 2.0**-8)]
        assert reads == [slice, type(None), slice]
        for st in stencils(UNEVEN_HITS, 2.0**-52):
            assert st.line_j.size == 0 and isinstance(st.hits, np.ndarray)
            assert set(np.diff(st.hits).tolist()) == {2, 4}

    def test_divergence_keeps_its_message(self):
        eq = TwoScaleEquation(2.0, [(3.0, 0.0), (-1.0, 1.0)])
        with pytest.raises(DivergingError) as raised:
            cascade_solve(eq, 2.0**-8, 40)
        assert str(raised.value) == (
            "cascade residuals grew 10x over five consecutive iterations; "
            "no continuous fixed point"
        )

    def test_float_range_keeps_its_message(self):
        # a support 1e-310 wide: the initial indicator 1 / width overflows
        eq = TwoScaleEquation(2.0, [(1.0, 0.0), (1.0, 1e-310)])
        with pytest.raises(BadParameterError) as raised:
            cascade_solve(eq, 1e-311, 3)
        assert str(raised.value) == (
            "cascade values leave the float range (coefficients times the "
            "support's reciprocal width overflow)"
        )

    def test_stencils_past_the_budget_are_not_kept(self):
        # 100 terms, each reading about 2/3 of 65,537 points: 4.4 million
        # stencil points, past the grid budget, are built term by term in
        # each iteration and dropped; kept, they would take over 67 MiB
        terms = 100
        eq = TwoScaleEquation(1.5, [(1.5 / terms, float(k)) for k in range(terms)])
        resolution = 198.0 / 2**16
        lo, hi = normalized_support(eq)
        grid = lo + resolution * np.arange(2**16 + 1)
        bounds = [_Stencil.inside(grid, eq.lam * grid - beta) for beta in eq.offsets]
        inside = sum(stop - start for start, stop in bounds)
        assert GRID_BUDGET < inside < 1.1 * GRID_BUDGET
        tracemalloc.start()
        try:
            sampled, residuals = cascade_solve(eq, resolution, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        values, expected = interp_cascade(eq, resolution, 2)
        assert sampled.values.tobytes() == values.tobytes()
        assert residuals == expected


class TestEstimateRegularity:
    @staticmethod
    def profile(name, gamma_max=256.0, step=1.0 / 32.0):
        grid = np.arange(0.0, gamma_max + step / 2, step)
        return solve_fourier(preset(name), grid, 1e-10)

    def test_hat_estimate_near_one(self):
        mu, fit = estimate_regularity(self.profile("hat"))
        assert 0.8 <= mu <= 1.2
        assert fit.r_squared > 0.99

    def test_rham_estimate_within_heuristic_band(self):
        mu, _ = estimate_regularity(self.profile("rham"))
        assert 0.25 <= mu <= 0.50
        assert mu <= RHAM_BOUND + 0.05

    def test_gaussian_profile_flags_superpolynomial(self):
        grid = np.arange(0.0, 64.01, 1.0 / 16.0)
        prof = FourierProfile(
            grid=grid,
            values=np.exp(-grid * grid).astype(complex),
            truncation_depth=1,
            tail_bound=0.0,
        )
        mu, fit = estimate_regularity(prof)
        assert math.isinf(mu)
        assert fit.slope < -10.0

    def test_insufficient_range_rejected(self):
        grid = np.arange(0.0, 8.01, 0.25)
        prof = solve_fourier(preset("hat"), grid, 1e-8)
        with pytest.raises(InsufficientDecadesError):
            estimate_regularity(prof)
