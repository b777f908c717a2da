"""Generator catalog, tags and evaluation."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from twoscale.errors import InconsistentTagsError, InvalidEquationError
from twoscale.generators import (
    CatalogGenerator,
    Gaussian,
    Hat,
    RationalL2,
    RefinementGenerator,
    SampledGenerator,
    TwoSidedExp,
    catalog_ids,
    normalize_tags,
)
from twoscale.refinement import SampledFunction, preset
from twoscale.wavelet_system import WaveletPoint, WaveletSystem, gram


class TestTags:
    def test_closure_adds_implied(self):
        tags = normalize_tags({"schwartz"})
        assert "faster_than_polynomial_decay" in tags

    def test_exponential_implies_polynomial(self):
        tags = normalize_tags({"faster_than_exponential_decay"})
        assert "faster_than_polynomial_decay" in tags

    def test_exclusions(self):
        with pytest.raises(InconsistentTagsError):
            normalize_tags({"compact_support", "noncompact_support"})
        with pytest.raises(InconsistentTagsError):
            normalize_tags({"compact_support", "ft_compact_support"})
        with pytest.raises(InconsistentTagsError):
            normalize_tags({"compact_support", "ft_vanishes_near_zero"})

    def test_sampled_generator_refuses_ft_vanishes_near_zero(self):
        # a compactly supported function whose transform vanishes near 0 is 0
        with pytest.raises(InconsistentTagsError, match="ft_vanishes_near_zero"):
            SampledGenerator(Hat().sampled, ["ft_vanishes_near_zero"])

    @pytest.mark.parametrize(
        "tags",
        (["schwartz", "ft_abs_ultimately_decreasing_both_sides"], ["ft_le_combination"], ["smooth_all_derivs_L1"]),
    )
    def test_sampled_generator_keeps_tags_no_proof_excludes(self, tags):
        assert set(tags) < SampledGenerator(Hat().sampled, tags).tags

    def test_unknown_tag(self):
        with pytest.raises(InconsistentTagsError):
            normalize_tags({"banana"})


class TestKinds:
    def test_gaussian_tags_and_values(self):
        g = Gaussian()
        expected = {
            "schwartz",
            "faster_than_exponential_decay",
            "faster_than_polynomial_decay",
            "noncompact_support",
            "ft_abs_ultimately_decreasing_both_sides",
            "ft_le_combination",
            "smooth_all_derivs_L1",
        }
        assert expected <= g.tags
        assert g(np.array([0.0]))[0] == 1.0
        assert abs(g(np.array([1.0]))[0] - math.exp(-1.0)) <= 1e-15

    def test_two_sided_exp(self):
        t = TwoSidedExp(2)
        assert abs(t(np.array([-1.5]))[0] - math.exp(-3.0)) <= 1e-15
        assert "faster_than_polynomial_decay" in t.tags
        assert "faster_than_exponential_decay" not in t.tags
        assert "schwartz" not in t.tags
        with pytest.raises(ValueError):
            TwoSidedExp(0)

    def test_rational_validation(self):
        with pytest.raises(ValueError):
            RationalL2([1.0], [1.0, 1.0])  # real root at -1
        with pytest.raises(ValueError):
            RationalL2([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])  # degree tie
        with pytest.raises(ValueError):
            RationalL2([0.0], [1.0, 0.0, 1.0])  # zero numerator

    def test_rational_le_tag_depends_on_poles(self):
        lorentz = RationalL2([1.0], [1.0, 0.0, 1.0])  # poles +-i
        assert "ft_le_combination" in lorentz.tags
        assert "smooth_all_derivs_L1" in lorentz.tags
        quartic = RationalL2([1.0], [1.0, 0.0, 0.0, 0.0, 1.0])  # poles off-axis
        assert "ft_le_combination" not in quartic.tags

    def test_rational_evaluation(self):
        r = RationalL2([1.0], [1.0, 0.0, 1.0])
        assert abs(r(np.array([2.0]))[0] - 0.2) <= 1e-15

    def test_hat(self):
        h = Hat()
        assert h.time_support() == (0.0, 2.0)
        assert h(np.array([1.0]))[0] == 1.0
        assert h(np.array([2.5]))[0] == 0.0
        assert "compact_support" in h.tags
        xs = np.linspace(-0.5, 2.5, 61)
        assert np.array_equal(h(xs), np.maximum(0.0, 1.0 - np.abs(xs - 1.0)))

    def test_refinement_generator_matches_hat(self):
        g = RefinementGenerator(preset("hat"))
        xs = np.linspace(-0.5, 2.5, 101)
        exact = np.maximum(0.0, 1.0 - np.abs(xs - 1.0))
        assert np.max(np.abs(g(xs) - exact)) <= 1e-3
        assert g.time_support() == (0.0, 2.0)

    def test_sampled_requires_finite_support(self):
        sf = SampledFunction(
            start=0.0, step=0.5, values=np.array([0.0, 1.0, 0.0]), support=(0.0, math.inf)
        )
        with pytest.raises(InvalidEquationError):
            SampledGenerator(sf)

    @pytest.mark.parametrize(
        "start,step,values,support",
        [
            (0.0, 1.0, [1.0], (0.0, 1.0)),  # one value
            (0.0, 1.0, [0.0, math.nan, 0.0], (0.0, 2.0)),  # non-finite value
            (0.0, 0.0, [0.0, 1.0, 0.0], (0.0, 2.0)),  # zero step
            (0.0, math.inf, [0.0, 1.0, 0.0], (0.0, 2.0)),  # infinite step
            (0.0, 0.5, [0.0, 1.0, 0.0], (0.0, 50.0)),  # support beyond the grid
            (0.0, 0.5, [0.0, 1.0, 0.0], (-1.0, 1.0)),  # support before the grid
        ],
    )
    def test_sampled_rejects_inconsistent_data(self, start, step, values, support):
        sf = SampledFunction(start=start, step=step, values=np.array(values), support=support)
        with pytest.raises(InvalidEquationError):
            SampledGenerator(sf)

    def test_sampled_interpolates(self):
        sf = SampledFunction(
            start=0.0, step=1.0, values=np.array([0.0, 2.0, 0.0]), support=(0.0, 2.0)
        )
        g = SampledGenerator(sf)
        assert g(np.array([0.5]))[0] == 1.0
        assert g(np.array([5.0]))[0] == 0.0


class TestCatalog:
    def test_ids(self):
        assert set(catalog_ids()) == {"ft_box", "ft_annulus_tent", "log_exp_ratio", "sech"}
        with pytest.raises(ValueError):
            CatalogGenerator("unknown")

    def test_log_exp_ratio(self):
        c = CatalogGenerator("log_exp_ratio")
        assert c.ft(np.array([0.0]))[0] == 0.0
        g = 2.0
        expected = g * math.log(g) / (math.exp(g) + math.exp(-g))
        assert abs(c.ft(np.array([g]))[0] - expected) <= 1e-15
        assert "ft_le_combination" in c.tags
        with pytest.raises(NotImplementedError):
            c(np.array([1.0]))

    def test_log_exp_ratio_is_zero_past_the_exp_range_without_warning(self):
        c = CatalogGenerator("log_exp_ratio")
        g = np.array(
            [-math.inf, -1e300, -746.0, -745.0, -710.0, -709.0, -2.0, 1e-300, 0.5, 1.0 + 2e-16,
             709.0, 710.0, 745.0, 746.0, 1e300, math.inf]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = c.ft(g)
            # the catalog pairing reaches |gamma| / 0.01 > 709
            report = gram(WaveletSystem(c, [WaveletPoint(0.01, 0.0), WaveletPoint(1.0, 0.0)]))
        # 0 where e^-|gamma| underflows
        far = np.abs(g) >= 746.0
        assert np.all(values[far] == 0.0)
        # elsewhere within 8 u of the value in 40-digit decimal arithmetic; e^-|gamma|
        # is subnormal past |gamma| = 708 and rounds by up to 2^-1075 absolute
        with localcontext() as ctx:
            ctx.prec = 40
            for x, value in zip(g[~far].tolist(), values[~far].tolist()):
                d = Decimal(x)
                exact = d * abs(d).ln() / (d.exp() + (-d).exp())
                slack = Decimal(2.0**-50) * abs(exact) + Decimal(abs(x * math.log(abs(x))) * 2.0**-1074)
                assert abs(Decimal(value) - exact) <= slack, x
        assert np.all(np.isfinite(report.matrix))

    def test_ft_box_is_sinc_in_time(self):
        c = CatalogGenerator("ft_box")
        xs = np.array([0.0, 0.5, 1.0, 2.5])
        expected = np.sinc(xs)
        assert np.max(np.abs(c(xs) - expected)) <= 1e-15
        assert c.ft(np.array([0.4]))[0] == 1.0
        assert c.ft(np.array([0.6]))[0] == 0.0

    def test_annulus_tent_vanishes_near_zero(self):
        c = CatalogGenerator("ft_annulus_tent")
        assert np.all(c.ft(np.linspace(-0.9, 0.9, 19)) == 0.0)
        assert c.ft(np.array([1.5]))[0] == 1.0
        assert "ft_vanishes_near_zero" in c.tags

    def test_sech_self_dual(self):
        c = CatalogGenerator("sech")
        assert abs(c(np.array([0.3]))[0] - c.ft(np.array([0.3]))[0]) <= 1e-15
        assert "schwartz" in c.tags
        assert "ft_abs_ultimately_decreasing_both_sides" in c.tags
