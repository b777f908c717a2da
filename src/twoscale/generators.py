"""Generators for finite wavelet systems.

A generator is a square integrable function together with a set of declared
analytic property tags.  Tags drive the certificate engine: properties such
as "ultimately decreasing Fourier modulus" are not decidable from samples,
so they are declared at construction (catalog kinds populate the tags that
are provable for them) rather than inferred numerically.

Catalog generators defined through a closed-form Fourier transform pair in
the Fourier domain; everything else pairs in the time domain.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BadParameterError, InconsistentTagsError, InvalidEquationError
from .refinement import SampledFunction, TwoScaleEquation, cascade_solve

__all__ = [
    "ALL_TAGS",
    "GeneratorSpec",
    "Gaussian",
    "TwoSidedExp",
    "RationalL2",
    "Hat",
    "RefinementGenerator",
    "SampledGenerator",
    "CatalogGenerator",
    "catalog_ids",
    "normalize_tags",
]

ALL_TAGS = frozenset(
    {
        "schwartz",
        "faster_than_exponential_decay",
        "faster_than_polynomial_decay",
        "noncompact_support",
        "compact_support",
        "ft_compact_support",
        "ft_vanishes_near_zero",
        "ft_abs_ultimately_decreasing_both_sides",
        "ft_le_combination",
        "smooth_all_derivs_L1",
    }
)

_IMPLICATIONS = {
    "schwartz": frozenset({"faster_than_polynomial_decay"}),
    "faster_than_exponential_decay": frozenset({"faster_than_polynomial_decay"}),
}

_UNIT_ROUNDOFF = 2.0**-53

# pairs that cannot hold together for a nonzero square integrable function
_EXCLUSIONS = (
    ("compact_support", "noncompact_support"),
    ("compact_support", "ft_compact_support"),
)


def normalize_tags(tags: Iterable[str]) -> frozenset:
    """Close declared tags under implication and reject contradictions."""
    out = set(tags)
    unknown = out - ALL_TAGS
    if unknown:
        raise InconsistentTagsError(f"unknown tags: {sorted(unknown)}")
    changed = True
    while changed:
        changed = False
        for tag, implied in _IMPLICATIONS.items():
            if tag in out and not implied <= out:
                out |= implied
                changed = True
    for a, b in _EXCLUSIONS:
        if a in out and b in out:
            raise InconsistentTagsError(f"tags {a!r} and {b!r} are mutually exclusive")
    return frozenset(out)


class GeneratorSpec:
    """Base class: evaluation, support and pairing windows for one generator."""

    kind: str = "abstract"
    # points where the generator (or, on the Fourier side, its transform) is
    # not smooth, in unit coordinates; quadrature panels break there
    kinks: tuple = ()

    def __init__(self, base_tags: Iterable[str], extra_tags: Iterable[str] | None = None):
        self.tags = normalize_tags(set(base_tags) | set(extra_tags or ()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} generator has no time-domain form")

    def pair_integrand(self, lp, bp, lq, bq) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Products of the dilated translates at pairs of points (arrays lp, bp, lq, bq).

        The returned function maps nodes x, and for each node the index of
        its pair, to the product values at those nodes.
        """

        def integrand(x: np.ndarray, pair: np.ndarray) -> np.ndarray:
            return self(lp[pair] * x - bp[pair]) * np.conj(self(lq[pair] * x - bq[pair]))

        return integrand

    def pair_window(self, lp, bp, lq, bq, tol: float) -> tuple:
        """Truncation intervals (lo, hi) plus analytic tail bounds, one per pair of points."""
        raise NotImplementedError(
            f"{self.kind} generator has unbounded support but no tail model"
        )

    def pair_quadrature(self, lp, bp, lq, bq, tol: float) -> tuple:
        """What quadrature needs to pair the dilated translates at pairs of points.

        Returns (integrand, lo, hi, breakpoints, rounding, tail): the pair
        products, the truncation windows, the panel edges (flat points and
        the pair of each), and per pair the factor on the integral of
        |product| and the tail bound that go into the error bound.  In time
        the rounding of lambda x - beta costs 4 eps (1 + |beta_p| + |beta_q|)
        times the integral of |product| (not of the product, which may
        cancel).  The declared kinks are edges, and so are geometric edges
        around each factor's origin beta / lambda on the scale of the
        narrower factor.
        """
        window = self.pair_window(lp, bp, lq, bq, tol)
        with np.errstate(all="ignore"):  # overflow to inf, as in scalar arithmetic
            origins = (bp / lp, bq / lq)
            kinks = [(k + beta) / lam for k in self.kinks for lam, beta in ((lp, bp), (lq, bq))]
            rounding = 8.0 * _UNIT_ROUNDOFF * (1.0 + np.abs(bp) + np.abs(bq))
            unit = 1.0 / np.maximum(lp, lq)
        if not all(np.isfinite(a).all() for a in origins):
            raise BadParameterError("a point maps the generator's origin out of float range")
        lo, hi, tail = _checked_window(window, lp, bp, lq, bq)
        edges = _breakpoints(kinks, origins, unit, lo, hi)
        return self.pair_integrand(lp, bp, lq, bq), lo, hi, edges, rounding, tail

    def params(self) -> dict:
        """Kind-specific JSON parameters (tags are serialized separately)."""
        return {}


def _tail_window(lo, hi, radius, tail: Callable, tol: float) -> tuple:
    """Widen each [lo, hi] by the first radius * 2^k whose tail bound is within tol/4.

    ``tail(r, i)`` bounds, for the pairs i, the integral of the pair product
    outside [lo - r, hi + r]; returns those intervals and their bounds.
    """
    radius = np.array(radius, dtype=np.float64)
    bound = np.empty(radius.size)
    i = np.arange(radius.size)
    while i.size:
        bound[i] = tail(radius[i], i)
        i = i[bound[i] > 0.25 * tol]
        radius[i] *= 2.0
    return lo - radius, hi + radius, bound


def _checked_window(window: tuple, lp, bp, lq, bq) -> tuple:
    """The windows (lo, hi, tail); one that is empty or not finite is a
    BadParameterError naming both points."""
    lo, hi, tail = window
    bad = np.flatnonzero(~((lo < hi) & np.isfinite(lo) & np.isfinite(hi) & np.isfinite(tail)))
    if bad.size:
        k = bad[0]
        raise BadParameterError(
            f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) give no finite "
            f"pairing window: [{lo[k]:g}, {hi[k]:g}] with tail bound {tail[k]:g}"
        )
    return window


def _breakpoints(kinks: list, origins: tuple, unit: np.ndarray, lo, hi) -> tuple:
    """Panel edges of each pair: its kinks, and each origin a with the points
    a +- unit * 2^k, k >= 0, out to the window.

    Panels then widen geometrically away from each factor's origin, so a
    product feature of width about ``unit`` cannot hide between the nodes
    of one panel spanning the whole truncation window.  Returns the points,
    flat, and the index of each point's pair.
    """
    pair = np.arange(unit.size)
    # math.log2, not np.log2: the step counts are those of the scalar rule
    log_unit = np.array([math.log2(u) for u in unit.tolist()])
    points, owners = list(kinks), [pair] * len(kinks)
    for a in origins:
        with np.errstate(over="ignore"):
            reach = np.maximum(a - lo, hi - a)
        if not np.isfinite(reach).all():
            raise BadParameterError("a pairing window reaches out of float range")
        count = np.zeros(unit.size, dtype=np.int64)
        far = np.flatnonzero(reach > unit)
        log_reach = np.array([math.log2(r) for r in reach[far].tolist()])
        count[far] = np.ceil(log_reach - log_unit[far])
        owner = np.repeat(pair, count)
        k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        with np.errstate(over="ignore"):
            steps = unit[owner] * 2.0**k
            points += [a, a[owner] - steps, a[owner] + steps]
        owners += [pair, owner, owner]
    return np.concatenate(points), np.concatenate(owners)


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each element: np.exp may differ in the last bit, and the
    tail bounds, which decide the windows, stay those of the scalar rule."""
    return np.array([math.exp(v) for v in x.tolist()], dtype=np.float64)


def _power(x: np.ndarray, exponent: int) -> np.ndarray:
    """x ** exponent as Python computes it for each element, inf past the float range."""

    def one(v: float) -> float:
        try:
            return v**exponent
        except OverflowError:
            return math.inf

    return np.array([one(v) for v in x.tolist()], dtype=np.float64)


class Gaussian(GeneratorSpec):
    """exp(-x^2); the pairing of two dilated translates is again a Gaussian."""

    kind = "gaussian"

    def __init__(self, extra_tags: Iterable[str] | None = None):
        super().__init__(
            {
                "schwartz",
                "faster_than_exponential_decay",
                "faster_than_polynomial_decay",
                "noncompact_support",
                "ft_abs_ultimately_decreasing_both_sides",
                "ft_le_combination",
                "smooth_all_derivs_L1",
            },
            extra_tags,
        )

    def __call__(self, x):
        return np.exp(-np.square(np.asarray(x, dtype=np.float64)))

    def pair_window(self, lp, bp, lq, bq, tol):
        with np.errstate(all="ignore"):
            rate = lp * lp + lq * lq
            center = (lp * bp + lq * bq) / rate
            center[~((0.0 < rate) & (rate < math.inf))] = math.nan
            bad = np.flatnonzero(~np.isfinite(center))
            if bad.size:
                k = bad[0]
                raise BadParameterError(
                    f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) put the Gaussian "
                    "pairing window out of float range"
                )
            # factors too far apart to meet have cross = inf
            cross = _power(lp * bq - lq * bp, 2) / rate
            peak = _exp(-cross)  # product value at its maximum
            start = np.maximum(1.0, 1.0 / np.sqrt(rate))

            def tail(r, i):
                return peak[i] * _exp(-rate[i] * r * r) / (rate[i] * r)

            return _tail_window(center, center, start, tail, tol)


class TwoSidedExp(GeneratorSpec):
    """exp(-n |x|) for a positive integer n."""

    kind = "two_sided_exp"
    kinks = (0.0,)

    def __init__(self, n: int, extra_tags: Iterable[str] | None = None):
        if int(n) != n or n < 1:
            raise ValueError("two-sided exponential needs a positive integer rate")
        self.n = int(n)
        super().__init__(
            {
                "faster_than_polynomial_decay",
                "noncompact_support",
                "ft_abs_ultimately_decreasing_both_sides",
                "ft_le_combination",
            },
            extra_tags,
        )

    def __call__(self, x):
        return np.exp(-self.n * np.abs(np.asarray(x, dtype=np.float64)))

    def pair_window(self, lp, bp, lq, bq, tol):
        integrand = self.pair_integrand(lp, bp, lq, bq)
        with np.errstate(all="ignore"):
            lo = np.minimum(bp / lp, bq / lq)
            hi = np.maximum(bp / lp, bq / lq)
            rate = self.n * (lp + lq)

            def tail(r, i):
                # beyond both kinks the product is exactly exponential with rate n(lp+lq)
                x = np.concatenate([lo[i] - r, hi[i] + r])
                ends = np.abs(integrand(x, np.tile(i, 2)))
                return (ends[: i.size] + ends[i.size :]) / rate[i]

            return _tail_window(lo, hi, np.ones(lo.size), tail, tol)

    def params(self):
        return {"n": self.n}


def _poly_eval(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


class RationalL2(GeneratorSpec):
    """Real-coefficient rational function, square integrable on the line.

    Coefficients are ascending (constant term first).  Square integrability
    is enforced structurally: the denominator may not have real roots and
    must exceed the numerator degree by at least one.
    """

    kind = "rational"

    def __init__(
        self,
        numerator: Sequence[float],
        denominator: Sequence[float],
        extra_tags: Iterable[str] | None = None,
    ):
        num = [float(c) for c in numerator]
        den = [float(c) for c in denominator]
        while num and num[-1] == 0.0:
            num.pop()
        while den and den[-1] == 0.0:
            den.pop()
        if not num:
            raise ValueError("numerator is identically zero")
        if len(den) < len(num) + 1:
            raise ValueError("denominator degree must exceed numerator degree")
        roots = np.roots(list(reversed(den)))
        if any(abs(r.imag) <= 1.0e-9 * (1.0 + abs(r)) for r in roots):
            raise ValueError("denominator must have no real roots")
        self.numerator = tuple(num)
        self.denominator = tuple(den)
        self.decay_power = len(den) - len(num)
        base = {"noncompact_support", "smooth_all_derivs_L1"}
        # the Fourier transform is a combination of polynomial-times-real-
        # exponential germs only when every pole is purely imaginary
        if all(abs(r.real) <= 1.0e-9 * (1.0 + abs(r)) for r in roots):
            base.add("ft_le_combination")
        super().__init__(base, extra_tags)

    def __call__(self, x):
        xv = np.asarray(x, dtype=np.float64)
        return _poly_eval(self.numerator, xv) / _poly_eval(self.denominator, xv)

    def _envelope_constants(self) -> tuple:
        """(M, U0) with |R(u)| <= M |u|^-p for |u| >= U0."""
        lead_num = abs(self.numerator[-1])
        lead_den = abs(self.denominator[-1])
        u_num = max(1.0, sum(abs(c) for c in self.numerator[:-1]) / lead_num)
        u_den = max(1.0, 2.0 * sum(abs(c) for c in self.denominator[:-1]) / lead_den)
        return 4.0 * lead_num / lead_den, max(u_num, u_den)

    def pair_window(self, lp, bp, lq, bq, tol):
        m, u0 = self._envelope_constants()
        power = self.decay_power
        with np.errstate(all="ignore"):
            radius = np.maximum.reduce(
                [np.ones(lp.size), 2.0 * np.abs(bp) / lp, 2.0 * np.abs(bq) / lq,
                 2.0 * u0 / lp, 2.0 * u0 / lq]
            )
            # |R(l x - b)| <= M (l x / 2)^-p once x >= max(2|b|/l, 2 U0/l)
            prefactor = m * m * _power(4.0 / (lp * lq), power)

            def tail(r, i):
                return 2.0 * prefactor[i] * _power(r, 1 - 2 * power) / (2 * power - 1)

            zero = np.zeros(lp.size)
            return _tail_window(zero, zero, radius, tail, tol)

    def params(self):
        return {"numerator": list(self.numerator), "denominator": list(self.denominator)}


class SampledGenerator(GeneratorSpec):
    """Linearly interpolated samples on a finite support.

    Pairs exactly: the product of two dilated translates of a linear
    interpolant is piecewise quadratic between the merged sample knots.
    """

    kind = "sampled"

    def __init__(self, sampled: SampledFunction, extra_tags: Iterable[str] | None = None):
        values = np.asarray(sampled.values)
        lo, hi = sampled.support
        if values.ndim != 1 or values.size < 2 or not np.all(np.isfinite(values)):
            raise InvalidEquationError("sampled generator needs at least 2 finite values")
        if not (math.isfinite(sampled.step) and sampled.step > 0.0):
            raise InvalidEquationError("sampled generator needs a finite positive step")
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise InvalidEquationError("sampled generator needs a finite support")
        start = float(sampled.start)
        end = start + sampled.step * (values.size - 1)
        # a grid end computed as start + step * (n - 1) may round just short
        # of the declared support; beyond it the interpolant is zero anyway
        slack = 1.0e-9 * sampled.step
        if not (start - slack <= lo and hi <= end + slack):
            raise InvalidEquationError(
                f"support [{lo:g}, {hi:g}] is not inside the sample grid [{start:g}, {end:g}]"
            )
        self.sampled = sampled
        self.grid = sampled.grid
        self.values = np.real(values).astype(np.float64)
        self._support = (max(float(lo), start), min(float(hi), end))
        # largest |value| and |slope|, for the rounding bound of the pairing
        self.peak = float(np.max(np.abs(self.values)))
        self.lipschitz = float(np.max(np.abs(np.diff(self.values)))) / sampled.step
        super().__init__({"compact_support"}, extra_tags)

    def __call__(self, x):
        xv = np.asarray(x, dtype=np.float64)
        return np.interp(xv, self.grid, self.values, left=0.0, right=0.0)

    def time_support(self) -> tuple:
        """Closed support interval, clipped to the sample grid."""
        return self._support


class Hat(SampledGenerator):
    """Piecewise-linear hat max(0, 1 - |x - 1|), supported on [0, 2]."""

    kind = "hat"

    def __init__(self, extra_tags: Iterable[str] | None = None):
        samples = SampledFunction(
            start=0.0, step=1.0, values=np.array([0.0, 1.0, 0.0]), support=(0.0, 2.0)
        )
        super().__init__(samples, extra_tags)


class RefinementGenerator(SampledGenerator):
    """Cascade solution of a two-scale equation, sampled and interpolated."""

    kind = "refinement"

    def __init__(
        self,
        equation: TwoScaleEquation,
        resolution: float = 2.0**-10,
        iterations: int = 40,
        extra_tags: Iterable[str] | None = None,
    ):
        self.equation = equation
        self.resolution = float(resolution)
        self.iterations = int(iterations)
        sampled, _ = cascade_solve(equation, self.resolution, self.iterations)
        super().__init__(sampled, extra_tags)

    def params(self):
        return {
            "equation": None,  # filled by the serializer
            "resolution": self.resolution,
            "iterations": self.iterations,
        }


class _CatalogEntry:
    def __init__(
        self,
        tags: frozenset,
        ft: Callable[[np.ndarray], np.ndarray],
        ft_support: tuple | None,
        ft_envelope: tuple | None,  # (K, rate, start): |ft| <= K exp(-rate|g|) beyond start
        time_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        ft_kinks: tuple = (),
    ):
        self.tags = tags
        self.ft = ft
        self.ft_support = ft_support
        self.ft_envelope = ft_envelope
        self.time_fn = time_fn
        self.ft_kinks = ft_kinks


def _ft_log_exp_ratio(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    out = np.zeros_like(g)
    nz = g != 0.0
    gn = g[nz]
    with np.errstate(over="ignore"):  # inf past |gamma| = 709, where the quotient is 0
        denominator = np.exp(gn) + np.exp(-gn)
    out[nz] = gn * np.log(np.abs(gn)) / denominator
    return out


def _ft_box(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    return np.where(np.abs(g) <= 0.5, 1.0, 0.0)


def _ft_annulus_tent(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(np.abs(g) - 1.5))


def _sinc(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.sinc(x)  # sin(pi x)/(pi x)


_CATALOG = {
    # gamma ln|gamma| / (e^gamma + e^-gamma): square integrable with a
    # logarithmico-exponential germ at infinity; no closed time-domain form
    "log_exp_ratio": _CatalogEntry(
        tags=frozenset({"ft_le_combination", "noncompact_support"}),
        ft=_ft_log_exp_ratio,
        ft_support=None,
        ft_envelope=(1.0, 0.5, 12.0),
        ft_kinks=(0.0,),
    ),
    # indicator of [-1/2, 1/2] in frequency; sinc in time
    "ft_box": _CatalogEntry(
        tags=frozenset({"ft_compact_support", "noncompact_support"}),
        ft=_ft_box,
        ft_support=(-0.5, 0.5),
        ft_envelope=None,
        time_fn=_sinc,
        ft_kinks=(-0.5, 0.5),
    ),
    # tent on 1 <= |gamma| <= 2: compact frequency support vanishing near 0
    "ft_annulus_tent": _CatalogEntry(
        tags=frozenset(
            {"ft_vanishes_near_zero", "ft_compact_support", "noncompact_support"}
        ),
        ft=_ft_annulus_tent,
        ft_support=(-2.0, 2.0),
        ft_envelope=None,
        ft_kinks=(-2.0, -1.5, -1.0, 1.0, 1.5, 2.0),
    ),
    # sech(pi x) is its own Fourier transform and is monotone on each side
    "sech": _CatalogEntry(
        tags=frozenset(
            {
                "schwartz",
                "faster_than_polynomial_decay",
                "noncompact_support",
                "ft_abs_ultimately_decreasing_both_sides",
                "ft_le_combination",
                "smooth_all_derivs_L1",
            }
        ),
        ft=lambda g: 1.0 / np.cosh(np.pi * np.asarray(g, dtype=np.float64)),
        ft_support=None,
        ft_envelope=(2.0, math.pi, 0.0),
        time_fn=lambda x: 1.0 / np.cosh(np.pi * np.asarray(x, dtype=np.float64)),
    ),
}


def catalog_ids() -> tuple:
    return tuple(sorted(_CATALOG))


class CatalogGenerator(GeneratorSpec):
    """Closed-form catalog generator, keyed by id and defined via its
    Fourier transform.  Inner products are computed in the Fourier domain,
    which keeps band-limited entries exact and avoids slowly decaying time
    tails."""

    kind = "le_catalog"

    def __init__(self, catalog_id: str, extra_tags: Iterable[str] | None = None):
        try:
            entry = _CATALOG[catalog_id]
        except KeyError:
            raise ValueError(
                f"unknown catalog id {catalog_id!r}; known: {', '.join(catalog_ids())}"
            ) from None
        self.catalog_id = catalog_id
        self._entry = entry
        self.kinks = entry.ft_kinks
        super().__init__(entry.tags, extra_tags)

    def __call__(self, x):
        if self._entry.time_fn is None:
            raise NotImplementedError(
                f"catalog generator {self.catalog_id!r} has no closed time-domain form"
            )
        return self._entry.time_fn(x)

    def ft(self, gamma):
        return self._entry.ft(gamma)

    def ft_pair_integrand(self, lp, bp, lq, bq) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Fourier-side products at pairs of points, as GeneratorSpec.pair_integrand."""
        with np.errstate(all="ignore"):
            shift = bp / lp - bq / lq
            scale = 1.0 / (lp * lq)
        bad = np.flatnonzero(~(np.isfinite(shift) & np.isfinite(scale)))
        if bad.size:
            k = bad[0]
            raise BadParameterError(
                f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) put the "
                "Fourier-side pairing out of float range"
            )
        # formed in Python's complex arithmetic, as for a single pair
        phase = np.array([-2.0j * np.pi * s for s in shift.tolist()], dtype=np.complex128)
        ft = self._entry.ft

        def integrand(g: np.ndarray, pair: np.ndarray) -> np.ndarray:
            g = np.asarray(g, dtype=np.float64)
            return (
                scale[pair]
                * ft(g / lp[pair])
                * np.conj(ft(g / lq[pair]))
                * np.exp(phase[pair] * g)
            )

        return integrand

    def pair_quadrature(self, lp, bp, lq, bq, tol: float) -> tuple:
        """As GeneratorSpec.pair_quadrature, in frequency: no rounding term,
        and the geometric edges widen around 0 from the narrower factor's
        bandwidth."""
        lo, hi, tail = _checked_window(self.ft_pair_window(lp, bp, lq, bq, tol), lp, bp, lq, bq)
        integrand = self.ft_pair_integrand(lp, bp, lq, bq)  # checks shift and scale first
        with np.errstate(over="ignore"):  # to inf, as in scalar arithmetic
            kinks = [k * lam for k in self.kinks for lam in (lp, lq)]
            # the largest phase 2 pi |shift| gamma the window reaches
            phase = 2.0 * np.pi * np.abs(bp / lp - bq / lq) * np.maximum(np.abs(lo), np.abs(hi))
        bad = np.flatnonzero(~np.isfinite(phase))
        if bad.size:
            k = bad[0]
            raise BadParameterError(
                f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) put the "
                "Fourier-side phase out of float range"
            )
        edges = _breakpoints(kinks, (np.zeros(lp.size),), np.minimum(lp, lq), lo, hi)
        return integrand, lo, hi, edges, 0.0, tail

    def ft_pair_window(self, lp, bp, lq, bq, tol: float) -> tuple:
        with np.errstate(all="ignore"):
            if self._entry.ft_support is not None:
                lo, hi = self._entry.ft_support
                reach = max(abs(lo), abs(hi)) * np.minimum(lp, lq)
                return -reach, reach, np.zeros(lp.size)
            k, rate, start = self._entry.ft_envelope
            pair_rate = rate * (1.0 / lp + 1.0 / lq)
            prefactor = 2.0 * k * k / (lp * lq)
            radius = np.maximum(1.0, start * np.maximum(lp, lq))

            def tail(r, i):
                return prefactor[i] * _exp(-pair_rate[i] * r) / pair_rate[i]

            zero = np.zeros(lp.size)
            return _tail_window(zero, zero, radius, tail, tol)

    def params(self):
        return {"id": self.catalog_id}
