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
    fourier_side: bool = False
    # points where the generator (or, on the Fourier side, its transform) is
    # not smooth, in unit coordinates; quadrature panels break there
    kinks: tuple = ()

    def __init__(self, base_tags: Iterable[str], extra_tags: Iterable[str] | None = None):
        self.tags = normalize_tags(set(base_tags) | set(extra_tags or ()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} generator has no time-domain form")

    def pair_integrand(self, p, q) -> Callable[[np.ndarray], np.ndarray]:
        lp, bp = p.dilation, p.translation
        lq, bq = q.dilation, q.translation

        def integrand(x: np.ndarray) -> np.ndarray:
            return self(lp * x - bp) * np.conj(self(lq * x - bq))

        return integrand

    def pair_window(self, p, q, tol: float) -> tuple:
        """Truncation interval (a, b) plus analytic tail bound for the pairing."""
        raise NotImplementedError(
            f"{self.kind} generator has unbounded support but no tail model"
        )

    def params(self) -> dict:
        """Kind-specific JSON parameters (tags are serialized separately)."""
        return {}


def _tail_window(lo: float, hi: float, radius: float, tail: Callable, tol: float) -> tuple:
    """Widen [lo, hi] by the first radius * 2^k whose tail bound is within tol/4.

    ``tail(r)`` bounds the integral of the pair product outside
    [lo - r, hi + r]; returns that interval and its bound.
    """
    while (bound := tail(radius)) > 0.25 * tol:
        radius *= 2.0
    return lo - radius, hi + radius, bound


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

    def pair_window(self, p, q, tol):
        lp, bp = p.dilation, p.translation
        lq, bq = q.dilation, q.translation
        rate = lp * lp + lq * lq
        center = (lp * bp + lq * bq) / rate if 0.0 < rate < math.inf else math.nan
        if not math.isfinite(center):
            raise BadParameterError(
                f"points ({lp:g}, {bp:g}) and ({lq:g}, {bq:g}) put the Gaussian pairing "
                "window out of float range"
            )
        try:
            cross = (lp * bq - lq * bp) ** 2 / rate
        except OverflowError:  # the factors are too far apart to meet
            cross = math.inf
        peak = math.exp(-cross)  # product value at its maximum
        start = max(1.0, 1.0 / math.sqrt(rate))
        return _tail_window(
            center, center, start, lambda r: peak * math.exp(-rate * r * r) / (rate * r), tol
        )


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

    def pair_window(self, p, q, tol):
        lp, bp = p.dilation, p.translation
        lq, bq = q.dilation, q.translation
        lo, hi = sorted((bp / lp, bq / lq))
        rate = self.n * (lp + lq)
        integrand = self.pair_integrand(p, q)

        def tail(r):
            # beyond both kinks the product is exactly exponential with rate n(lp+lq)
            return float(np.sum(np.abs(integrand(np.array([lo - r, hi + r]))))) / rate

        return _tail_window(lo, hi, 1.0, tail, tol)

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

    def pair_window(self, p, q, tol):
        lp, bp = p.dilation, p.translation
        lq, bq = q.dilation, q.translation
        m, u0 = self._envelope_constants()
        power = self.decay_power
        radius = max(
            1.0,
            2.0 * abs(bp) / lp,
            2.0 * abs(bq) / lq,
            2.0 * u0 / lp,
            2.0 * u0 / lq,
        )
        # |R(l x - b)| <= M (l x / 2)^-p once x >= max(2|b|/l, 2 U0/l)
        prefactor = m * m * (4.0 / (lp * lq)) ** power
        return _tail_window(
            0.0, 0.0, radius, lambda r: 2.0 * prefactor * r ** (1 - 2 * power) / (2 * power - 1),
            tol,
        )

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
    out[nz] = gn * np.log(np.abs(gn)) / (np.exp(gn) + np.exp(-gn))
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
    fourier_side = True

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

    def ft_pair_integrand(self, p, q) -> Callable[[np.ndarray], np.ndarray]:
        lp, bp = p.dilation, p.translation
        lq, bq = q.dilation, q.translation
        shift = bp / lp - bq / lq
        scale = 1.0 / (lp * lq)
        ft = self._entry.ft

        def integrand(g: np.ndarray) -> np.ndarray:
            g = np.asarray(g, dtype=np.float64)
            return (
                scale
                * ft(g / lp)
                * np.conj(ft(g / lq))
                * np.exp(-2.0j * np.pi * shift * g)
            )

        return integrand

    def ft_pair_window(self, p, q, tol: float) -> tuple:
        lp = p.dilation
        lq = q.dilation
        if self._entry.ft_support is not None:
            lo, hi = self._entry.ft_support
            reach = max(abs(lo), abs(hi)) * min(lp, lq)
            return -reach, reach, 0.0
        k, rate, start = self._entry.ft_envelope
        pair_rate = rate * (1.0 / lp + 1.0 / lq)
        prefactor = 2.0 * k * k / (lp * lq)
        radius = max(1.0, start * max(lp, lq))
        return _tail_window(
            0.0, 0.0, radius, lambda r: prefactor * math.exp(-pair_rate * r) / pair_rate, tol
        )

    def params(self):
        return {"id": self.catalog_id}
