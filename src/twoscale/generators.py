"""Generators for finite wavelet systems.

A generator is a square integrable function together with a set of declared
analytic property tags.  Tags drive the certificate engine: properties such
as "ultimately decreasing Fourier modulus" are not decidable from samples,
so they are declared at construction (catalog kinds populate the tags that
are provable for them) rather than inferred numerically.

Generators whose ``closed_form`` is true (the Gaussian, the two-sided
exponentials, rationals with separated poles, and the band-limited catalog
entries) pair exactly through ``pair_closed_form``.  The others pair by
quadrature: catalog generators, defined through a closed-form Fourier
transform, in the Fourier domain; the rest in the time domain.
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
# twice the smallest subnormal: the absolute rounding of a result that underflows
_TINY = 2.0**-1073
_FLOAT_MAX = float(np.finfo(np.float64).max)

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
    # whether pair_closed_form gives every pairing of this generator
    closed_form: bool = False
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

    def pair_closed_form(self, lp, bp, lq, bq) -> tuple:
        """Exact pairings of the dilated translates at pairs of points, for the
        generators whose ``closed_form`` is true.

        Returns (values, error bounds) as float arrays.  The values are formed
        in relative coordinates: they depend on the translations only through
        the shift d = bp / lp - bq / lq (see _relative_shift).  The bounds cover
        the rounding of every step, the rounding of d included; they do not
        depend on a tolerance.
        """
        raise NotImplementedError(f"{self.kind} generator has no closed-form pairing")

    def params(self) -> dict:
        """Kind-specific JSON parameters (tags are serialized separately)."""
        return {}


def _relative_shift(lp, bp, lq, bq) -> tuple:
    """The shift d = bp / lp - bq / lq between the origins of each pair, and a
    bound on its rounding (0 for a point paired with itself, where d is 0)."""
    with np.errstate(all="ignore"):
        ap, aq = bp / lp, bq / lq
        d = ap - aq
        bound = 2.0 * _UNIT_ROUNDOFF * (np.abs(ap) + np.abs(aq) + np.abs(d)) + _TINY
    bad = np.flatnonzero(~(np.isfinite(d) & np.isfinite(bound)))
    if bad.size:
        k = bad[0]
        raise BadParameterError(
            f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) put the shift "
            "between their origins out of float range"
        )
    bound[(lp == lq) & (bp == bq)] = 0.0
    return d, bound


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
    closed_form = True

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

    def pair_closed_form(self, lp, bp, lq, bq):
        """sqrt(pi / (lp^2 + lq^2)) exp(-(lp lq d)^2 / (lp^2 + lq^2)).

        Formed as sqrt(pi) / (M h) exp(-s^2), with M the larger dilation, m
        the smaller, h = sqrt(1 + (m / M)^2) and s = m |d| / h, so that no
        square leaves the float range.  If s is off by at most ds, exp(-s^2)
        is off by at most exp(-s_low^2) min(1, (2 s + ds) ds) with s_low =
        s - ds, and that bound is formed from logarithms, so it does not
        underflow before the entry does.
        """
        d, dd = _relative_shift(lp, bp, lq, bq)
        u = _UNIT_ROUNDOFF
        big, small = np.maximum(lp, lq), np.minimum(lp, lq)
        with np.errstate(all="ignore"):
            h = np.hypot(1.0, small / big)
            s = small * np.abs(d) / h
            value = math.sqrt(math.pi) / (big * h) * np.exp(-s * s)
            ds = 4.0 * u * s + small * dd / h
            low = np.fmax(0.0, (s - ds) * (1.0 - 4.0 * u))
            spread = np.fmin(1.0, (2.0 * s + ds) * ds + 2.0 * u * s * s)
            log_scale = 0.5 * math.log(math.pi) - np.log(big) - np.log(h)
            # a subnormal exp(-s^2) rounds by up to _TINY / 2, scaled with the entry
            error = (
                8.0 * u * value
                + np.exp(log_scale - low * low) * spread
                + _TINY * (1.0 + math.sqrt(math.pi) / (big * h))
            )
        return value, error

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
    closed_form = True
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

    def pair_closed_form(self, lp, bp, lq, bq):
        """Three exponential pieces, split at the kinks 0 and |d| of the two factors.

        With rates a = n lp, b = n lq and D = |d|, the pieces left of both
        kinks, right of both and between them integrate to
        (e^(-aD) + e^(-bD)) / (a + b) + D e^(-cD) g(|a - b| D), where c =
        min(a, b) and g(y) = -expm1(-y) / y stays accurate when a is close
        to b.  Every piece is positive and each exponent is off by at most
        about u (a + b) D, so the rounding is relative; the entry falls in D
        with slope at most min(a, b) times its value, which bounds the
        effect of the rounding of d.
        """
        d, dd = _relative_shift(lp, bp, lq, bq)
        u = _UNIT_ROUNDOFF
        with np.errstate(all="ignore"):
            a, b = self.n * lp, self.n * lq
            dist = np.abs(d)
            value = _two_sided_exp_pairing(a, b, dist)
            nearest = _two_sided_exp_pairing(a, b, np.fmax(0.0, dist - dd))
            error = (
                u * (20.0 + 6.0 * (a + b) * dist) * value
                + np.minimum(a, b) * dd * nearest * (1.0 + 4.0 * u)
                + _TINY * (2.0 / (a + b) + dist + 2.0)  # subnormal exponentials
            )
        return value, error

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


def _two_sided_exp_pairing(a, b, dist):
    """Integral of exp(-a |t - dist|) exp(-b |t|) over the line."""
    outer = (np.exp(-a * dist) + np.exp(-b * dist)) / (a + b)
    y = np.abs(a - b) * dist
    g = np.divide(-np.expm1(-y), y, out=np.ones_like(y), where=y > 0.0)
    return outer + dist * np.exp(-np.minimum(a, b) * dist) * g


def _poly_eval(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


# A rational pairs by residues only when every two of its poles lie at least
# this far apart, relative to the larger modulus.  Closer poles make the
# residues ill-conditioned (a double pole comes out of np.roots as two poles
# about sqrt(eps) apart), and such a rational pairs by quadrature.
_POLE_SEPARATION = 1.0e-3
_NEWTON_STEPS = 2


def _upper_poles(numerator: tuple, denominator: tuple, roots: np.ndarray) -> tuple | None:
    """(w, A, dw, dA): the poles w_k of N/D in the upper half plane, the
    residues A_k there, and bounds on the errors of both; None when two poles
    are closer than _POLE_SEPARATION allows.

    Each root from np.roots is polished by Newton steps.  A disc of radius
    deg D (|D(w)| + e) / (|D'(w)| - e') about w holds a root of D, where e
    and e' bound the rounding of D(w) and D'(w); with the poles separated it
    is the root w stands for.  A_k = N(w_k) / D'(w_k), charged with its
    rounding and with twice its first-order change over that disc.
    """
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    moduli = np.abs(roots)
    if not (gaps >= _POLE_SEPARATION * np.maximum(moduli[:, None], moduli[None, :])).all():
        return None
    w = roots[roots.imag > 0.0]
    if 2 * w.size != roots.size:
        return None
    u = _UNIT_ROUNDOFF
    num, den = np.array(numerator), np.array(denominator)
    dden = den[1:] * np.arange(1, den.size)
    ddden = dden[1:] * np.arange(1, dden.size)
    dnum = num[1:] * np.arange(1, num.size)
    for _ in range(_NEWTON_STEPS):
        w = w - _poly_eval(den, w) / _poly_eval(dden, w)
    r = np.abs(w)

    def rounding(coeffs: np.ndarray) -> np.ndarray:
        # |fl(P(w)) - P(w)| for Horner's rule in complex arithmetic
        return 8.0 * max(coeffs.size, 1) * u * _poly_eval(np.abs(coeffs), r)

    slope = _poly_eval(dden, w)
    slope_low = np.abs(slope) - rounding(dden)
    dw = (den.size - 1) * (np.abs(_poly_eval(den, w)) + rounding(den)) / slope_low
    top = _poly_eval(num, w)
    res = top / slope
    change = np.abs(_poly_eval(dnum, w) / slope - top * _poly_eval(ddden, w) / slope**2)
    dres = (
        2.0 * change * dw
        + (rounding(num) + np.abs(res) * rounding(dden)) / slope_low
        + 4.0 * u * np.abs(res)
    )
    if not (np.isfinite(dw).all() and np.isfinite(dres).all() and (slope_low > 0.0).all()):
        return None
    return w, res, dw, dres


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
        self._poles = _upper_poles(self.numerator, self.denominator, roots)
        self.closed_form = self._poles is not None
        base = {"noncompact_support", "smooth_all_derivs_L1"}
        # the Fourier transform is a combination of polynomial-times-real-
        # exponential germs only when every pole is purely imaginary
        if all(abs(r.real) <= 1.0e-9 * (1.0 + abs(r)) for r in roots):
            base.add("ft_le_combination")
        super().__init__(base, extra_tags)

    def __call__(self, x):
        xv = np.asarray(x, dtype=np.float64)
        return _poly_eval(self.numerator, xv) / _poly_eval(self.denominator, xv)

    def pair_closed_form(self, lp, bp, lq, bq):
        """-4 pi Im sum_jk A_j conj(A_k) / (lp lq d + w_j lq - conj(w_k) lp), by residues.

        With R = sum_k A_k / (u - w_k) + conj(A_k) / (u - conj(w_k)) over the
        upper poles w_k, the product of the two factors is a sum of terms
        c / ((t - p) (t - q)); such a term integrates to 2 pi i c / (p - q)
        when p is an upper pole and q a lower one, to the negative of that
        when q is upper and p lower, and to 0 otherwise.  The two mixed sums
        are conjugate, which leaves the imaginary part above.  Every
        denominator has imaginary part Im(w_j) lq + Im(w_k) lp > 0, so none
        cancels.  Each term is charged with the errors of its poles and
        residues and the rounding of its denominator; where those could move
        the denominator by half its size, with twice its largest modulus.
        """
        w, res, dw, dres = self._poles
        d, dd = _relative_shift(lp, bp, lq, bq)
        u = _UNIT_ROUNDOFF
        p, q = lp[:, None, None], lq[:, None, None]
        with np.errstate(all="ignore"):
            x = np.clip(lp * (lq * d), -_FLOAT_MAX, _FLOAT_MAX)[:, None, None]
            dx = (lp * (lq * dd))[:, None, None] + 2.0 * u * np.abs(x)
            den = x + w[:, None] * q - np.conj(w) * p
            weight = res[:, None] * np.conj(res)
            terms = weight / den
            value = -4.0 * math.pi * terms.imag.sum(axis=(1, 2))
            size = np.abs(den)
            weight_abs = np.abs(weight)
            modulus = np.abs(res)
            dweight = dres[:, None] * modulus + modulus[:, None] * dres + dres[:, None] * dres
            shift = dx + dw[:, None] * q + dw * p
            shift += 4.0 * u * (np.abs(x) + np.abs(w)[:, None] * q + np.abs(w) * p)
            rho = shift / size
            im_low = w.imag[:, None] * q + w.imag * p - (dw[:, None] * q + dw * p)
            near = (2.0 * dweight + weight_abs * (2.0 * rho + 8.0 * u)) / size
            far = (2.0 * weight_abs + dweight) / im_low
            term_error = np.where(rho <= 0.5, near, far).sum(axis=(1, 2))
            rounding = (w.size**2 + 2) * u * (weight_abs / size).sum(axis=(1, 2))
            rounding += w.size**2 * _TINY  # subnormal terms
            error = 4.0 * math.pi * (term_error + rounding) + 2.0 * u * np.abs(value) + _TINY
        return value, error

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
        pair_closed_form: Callable | None = None,  # as GeneratorSpec.pair_closed_form
    ):
        self.tags = tags
        self.ft = ft
        self.ft_support = ft_support
        self.ft_envelope = ft_envelope
        self.time_fn = time_fn
        self.ft_kinks = ft_kinks
        self.pair_closed_form = pair_closed_form


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


# np.sinc forms pi x, which is past the float range beyond 5.7e307; past
# this magnitude the pairings take sinc as 0, within |sinc| <= 1 / (pi |x|)
_SINC_FAR = 2.0**60


def _box_pairs(lp, bp, lq, bq) -> tuple:
    """Pairings of the indicator of [-1/2, 1/2] in frequency: sinc(d m) / M.

    The product of the two indicators is that of [-m/2, m/2], with m the
    smaller dilation and M the larger.  |sinc'(y)| <= min(pi / 2,
    (1 + 1 / (pi y)) / y), taken at the lower end of the argument's error
    interval, bounds the effect of the rounding of d m.
    """
    d, dd = _relative_shift(lp, bp, lq, bq)
    u = _UNIT_ROUNDOFF
    big, small = np.maximum(lp, lq), np.minimum(lp, lq)
    with np.errstate(all="ignore"):
        x = d * small
        dx = small * dd + u * np.abs(x)
        far = np.abs(x) >= _SINC_FAR
        sinc = np.where(far, 0.0, np.sinc(np.where(far, 0.0, x)))
        low = np.fmax(0.0, np.abs(x) - dx)
        slope = np.fmin(0.5 * math.pi, (1.0 + 1.0 / (math.pi * low)) / low)
        drift = np.where(far, 1.0 / (math.pi * low), slope * dx)
        value = sinc / big
        error = (4.0 * u * (1.0 + np.abs(sinc)) + drift) / big + u * np.abs(value) + _TINY
    return value, error


# moments of [-1, 1] below |theta| = 1 come from their series, to this many terms
_SERIES_TERMS = 12


def _tent_moments(theta: np.ndarray) -> tuple:
    """int s^j cos(theta s) ds for j = 0, 2 and int s sin(theta s) ds over [-1, 1].

    Closed forms for |theta| > 1; Taylor series below, where the closed
    forms cancel.
    """
    t = np.abs(theta)
    small = t <= 1.0
    ts = np.where(small, t, 0.0)
    c0 = np.zeros_like(t)
    c2 = np.zeros_like(t)
    s1 = np.zeros_like(t)
    power = np.ones_like(t)  # theta^(2k) / (2k)!
    for k in range(_SERIES_TERMS):
        c0 += power * (2.0 / (2 * k + 1))
        c2 += power * (2.0 / (2 * k + 3))
        s1 += power * ts / (2 * k + 1) * (2.0 / (2 * k + 3))
        power = power * (-ts * ts / ((2 * k + 1) * (2 * k + 2)))
    tl = np.where(small, 1.0, t)
    sin, cos = np.sin(tl), np.cos(tl)
    c0 = np.where(small, c0, 2.0 * sin / tl)
    c2 = np.where(small, c2, 2.0 * ((tl * tl - 2.0) * sin + 2.0 * tl * cos) / tl**3)
    s1 = np.where(small, s1, 2.0 * (sin - tl * cos) / (tl * tl))
    return c0, c2, s1


def _annulus_tent_pairs(lp, bp, lq, bq) -> tuple:
    """Pairings of the tent on 1 <= |gamma| <= 2, exactly on the pieces between kinks.

    In gamma = M eta, with M the larger dilation and m the smaller, the
    entry is (2 / m) int_0^2 T(eta / rp) T(eta / rq) cos(w eta) d eta, with
    rp = lp / M, rq = lq / M and w = 2 pi |d| M.  Between the merged kinks
    r, 1.5 r, 2 r of both factors the product of the two tents is a
    quadratic, fixed by its values at the ends and the middle of each
    piece; on the piece c + h s, s in [-1, 1], it integrates against
    cos(w (c + h s)) through the three moments of _tent_moments at theta =
    w h.  The bound charges each piece with the rounding of its values and
    moments, and with the errors of the phases w c and w h, which carry the
    rounding of d; the moments' slopes in theta are at most 1.
    """
    d, dd = _relative_shift(lp, bp, lq, bq)
    u = _UNIT_ROUNDOFF
    big, small = np.maximum(lp, lq), np.minimum(lp, lq)
    with np.errstate(all="ignore"):  # an entry past the float range is refused by the caller
        omega = 2.0 * math.pi * np.abs(d) * big
        domega = 2.0 * math.pi * dd * big + 4.0 * u * omega
        bad = np.flatnonzero(~(np.isfinite(omega) & np.isfinite(domega)))
        if bad.size:
            k = bad[0]
            raise BadParameterError(
                f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) put the "
                "Fourier-side pairing out of float range"
            )
        rates = np.stack([lp / big, lq / big], axis=1)
        kinks = np.sort(np.concatenate([rates, 1.5 * rates, 2.0 * rates], axis=1), axis=1)
        a, b = kinks[:, :-1], kinks[:, 1:]
        c, h = 0.5 * (a + b), 0.5 * (b - a)

        # each tent value is off by at most about 10 u, so each product by
        # 12 u times the sum of its factors
        scale = np.zeros_like(a)
        nodes = []
        for eta in (a, c, b):
            tp, tq = (_ft_annulus_tent(eta / rates[:, k, None]) for k in (0, 1))
            nodes.append(tp * tq)
            scale = np.maximum(scale, tp + tq)
        fa, fc, fb = nodes
        q0, q1, q2 = fc, 0.5 * (fb - fa), 0.5 * (fa + fb) - fc
        w = omega[:, None]
        theta = w * h
        c0, c2, s1 = _tent_moments(theta)
        even, odd = q0 * c0 + q2 * c2, q1 * s1
        phase = w * c
        pieces = h * (np.cos(phase) * even - np.sin(phase) * odd)
        value = 2.0 / small * pieces.sum(axis=1)
        dphase = c * domega[:, None] + 2.0 * u * phase + 2.0 * u
        dtheta = h * domega[:, None] + 2.0 * u * theta
        piece_error = h * (
            (np.abs(q0) + np.abs(q1) + np.abs(q2)) * (dtheta + 40.0 * u)
            + (np.abs(even) + np.abs(odd)) * dphase
            + 64.0 * u * scale
        )
        error = 2.0 / small * (
            piece_error.sum(axis=1) + 8.0 * u * np.abs(pieces).sum(axis=1) + 8.0 * _TINY
        )
        return value, error + 2.0 * u * np.abs(value) + _TINY


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
        pair_closed_form=_box_pairs,
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
        pair_closed_form=_annulus_tent_pairs,
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
    Fourier transform.  The band-limited entries pair in closed form; the
    others by quadrature in the Fourier domain, which avoids slowly
    decaying time tails."""

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
        self.closed_form = entry.pair_closed_form is not None
        super().__init__(entry.tags, extra_tags)

    def __call__(self, x):
        if self._entry.time_fn is None:
            raise NotImplementedError(
                f"catalog generator {self.catalog_id!r} has no closed time-domain form"
            )
        return self._entry.time_fn(x)

    def ft(self, gamma):
        return self._entry.ft(gamma)

    def pair_closed_form(self, lp, bp, lq, bq):
        if self._entry.pair_closed_form is None:
            return super().pair_closed_form(lp, bp, lq, bq)
        return self._entry.pair_closed_form(lp, bp, lq, bq)

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
