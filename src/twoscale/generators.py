"""Generators for finite wavelet systems.

A generator is a square integrable function together with a set of analytic
property tags, which drive the certificate engine.  Every kind fixed by its
parameters has exactly the tags proved for it, derived from those parameters.
Only ``SampledGenerator`` takes declared tags: its samples stand for a
function the program does not know, whose properties they cannot decide.

Every kind but the sampled ones pairs its dilated translates through its
own ``pair``: the Gaussian, the two-sided exponentials, every rational and
the band-limited catalog entries by a closed form, and the other catalog
entries, sech and log_exp_ratio, in the Fourier domain by fixed-step rules
whose step and truncation come from a priori error bounds
(``CatalogGenerator.pair_fixed_rule``).  Sampled generators pair in
``wavelet_system``.

The time-side truncation windows (``pair_window`` of ``Gaussian``,
``TwoSidedExp`` and ``RationalL2``) and ``GeneratorSpec.pair_integrand``
have no production caller (ROADMAP item 7).  Their users are the tests'
time-side quadrature reference, ``tests/conftest.py::reference_pairs``, and
the benchmark's tracer (``benchmark/tracing.py``), which wraps them.  Each
window is a tuple (lo, hi, tail) of arrays, one entry per pair of points:
the interval [lo, hi] and a bound on the integral of |product| outside it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadParameterError,
    BudgetExceededError,
    InconsistentTagsError,
    InvalidEquationError,
)
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
_SUBNORMAL = 2.0**-1074
# twice the smallest subnormal: the absolute rounding of a result that underflows
_TINY = 2.0**-1073

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
    """Base class: evaluation and pairing of one generator."""

    kind: str = "abstract"
    tags: frozenset  # closed under implication (normalize_tags)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} generator has no time-domain form")

    def pair_integrand(self, lp, bp, lq, bq) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Products of the dilated translates at pairs of points (arrays lp, bp, lq, bq).

        The returned function maps nodes x, and the index of each node's
        pair (an array, or one index for all), to the product values there.
        No production caller: the tests' time-side reference
        (tests/conftest.py::reference_pairs) and the benchmark's tracer use it.
        """

        def integrand(x: np.ndarray, pair: np.ndarray) -> np.ndarray:
            return self(lp[pair] * x - bp[pair]) * np.conj(self(lq[pair] * x - bq[pair]))

        return integrand

    def pair(self, lp, bp, lq, bq, tol: float) -> tuple:
        """Pairings of the dilated translates at pairs of points (arrays lp,
        bp, lq, bq), each entry independent of the others.

        Returns (values, error bounds) as float arrays.  The closed forms are
        formed in relative coordinates: they depend on the translations only
        through the shift d = bp / lp - bq / lq (see _relative_shift), and
        their bounds cover the rounding of every step, the rounding of d
        included, whatever tol asks.  The fixed-step rules keep their
        discretization and truncation errors within tol / 2.
        """
        raise NotImplementedError(f"{self.kind} generator has no pairing of its own")


def refuse_pairs(ok, lp, bp, lq, bq, what, error=BadParameterError) -> None:
    """Raise ``error`` naming the first pair of points where ``ok`` is false;
    ``what`` ends the message, or ``what(k)`` when it quotes values of that
    pair k."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = bad[0]
        detail = what(k) if callable(what) else what
        raise error(
            f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) {detail}"
        )


def _relative_shift(lp, bp, lq, bq) -> tuple:
    """The shift d = bp / lp - bq / lq between the origins of each pair, and a
    bound on its rounding (0 for a point paired with itself, where d is 0)."""
    with np.errstate(all="ignore"):
        ap, aq = bp / lp, bq / lq
        d = ap - aq
        bound = 2.0 * _UNIT_ROUNDOFF * (np.abs(ap) + np.abs(aq) + np.abs(d)) + _TINY
    # a finite bound has a finite shift
    refuse_pairs(
        np.isfinite(bound), lp, bp, lq, bq,
        "put the shift between their origins out of float range",
    )
    bound[(lp == lq) & (bp == bq)] = 0.0
    return d, bound


def _fourier_phase(lp, bp, lq, bq) -> tuple:
    """(omega, scale) of each pair's folded Fourier-side product (see
    CatalogGenerator.ft_pair_integrand): omega = 2 pi (bp / lp - bq / lq),
    which may be inf (the phase check refuses it), and scale = 2 / (lp lq)."""
    with np.errstate(all="ignore"):
        shift = bp / lp - bq / lq
        scale = 2.0 / (lp * lq)
    refuse_pairs(
        np.isfinite(shift) & np.isfinite(scale), lp, bp, lq, bq,
        "put the Fourier-side pairing out of float range",
    )
    with np.errstate(over="ignore"):
        omega = 2.0 * np.pi * shift
    return omega, scale


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
    refuse_pairs(
        (lo < hi) & np.isfinite(lo) & np.isfinite(hi) & np.isfinite(tail), lp, bp, lq, bq,
        lambda k: f"give no finite pairing window: [{lo[k]:g}, {hi[k]:g}] "
        f"with tail bound {tail[k]:g}",
    )
    return window


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
    tags = frozenset(
        {
            "schwartz",
            "faster_than_exponential_decay",
            "faster_than_polynomial_decay",
            "noncompact_support",
            "ft_abs_ultimately_decreasing_both_sides",
            "ft_le_combination",
            "smooth_all_derivs_L1",
        }
    )

    def __call__(self, x):
        return np.exp(-np.square(np.asarray(x, dtype=np.float64)))

    def pair(self, lp, bp, lq, bq, tol):
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
        """Truncation windows (lo, hi, tail) of the pairs of points, for the
        tests' time-side quadrature reference; no production caller (see
        the module docstring)."""
        with np.errstate(all="ignore"):
            rate = lp * lp + lq * lq
            center = (lp * bp + lq * bq) / rate
            center[~((0.0 < rate) & (rate < math.inf))] = math.nan
            refuse_pairs(
                np.isfinite(center), lp, bp, lq, bq,
                "put the Gaussian pairing window out of float range",
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
    tags = frozenset(
        {
            "faster_than_polynomial_decay",
            "noncompact_support",
            "ft_abs_ultimately_decreasing_both_sides",
            "ft_le_combination",
        }
    )

    def __init__(self, n: int):
        if int(n) != n or n < 1:
            raise BadParameterError("two-sided exponential needs a positive integer rate")
        self.n = int(n)

    def __call__(self, x):
        return np.exp(-self.n * np.abs(np.asarray(x, dtype=np.float64)))

    def pair(self, lp, bp, lq, bq, tol):
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
        """Truncation windows (lo, hi, tail) of the pairs of points, for the
        tests' time-side quadrature reference; no production caller (see
        the module docstring)."""
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


# The Newton-form pairing adds this floor to its moduli at each step, so
# that every modulus stays above it and a result that underflows costs no
# more than u times its bound
_FLOOR = 2.0**-1000
# Entries per block of a rational pairing, divided by the square of the
# number of poles: a block holds a few arrays of 8 poles^2 complex numbers
# per entry
_NODE_ENTRIES = 2**16


def _newton_coefficients(numerator: tuple, nodes: np.ndarray) -> list:
    """The divided differences c_j = N[w_0 .. w_j], j = 0 .. deg N, of the
    numerator at the first nodes, by synthetic division: N = c_0 + (u - w_0)
    N_1, c_1 = N_1(w_1), and so on.  No difference of two nodes is formed."""
    q = [complex(c) for c in reversed(numerator)]
    out = []
    for w in nodes[: len(numerator)].tolist():
        for t in range(1, len(q)):
            q[t] += w * q[t - 1]
        out.append(q.pop())
    return out


def _dyadic(x: float) -> tuple:
    """(p, k) with x = p / 2^k exactly, k >= 0: floats are dyadic rationals."""
    p, q = x.as_integer_ratio()
    return p, q.bit_length() - 1


def _exact_newton_poly(nodes: list, weights: list) -> tuple:
    """(re, im, e): the ascending coefficients of sum_j weights[j] prod_(i <
    j) (u - nodes[i]), exact, as (re_k + i im_k) 2^-e with integers re, im."""
    used = nodes[: len(weights) - 1] + weights
    shift = max(_dyadic(x)[1] for z in used for x in (z.real, z.imag))

    def scaled(x: float) -> int:
        p, k = _dyadic(x)
        return p << (shift - k)

    re, im, e = [scaled(weights[-1].real)], [scaled(weights[-1].imag)], shift
    for z, c in zip(reversed(nodes[: len(weights) - 1]), reversed(weights[:-1])):
        zr, zi = scaled(z.real), scaled(z.imag)
        new_re = [0] + [a << shift for a in re]
        new_im = [0] + [b << shift for b in im]
        for k, (a, b) in enumerate(zip(re, im)):
            new_re[k] -= zr * a - zi * b
            new_im[k] -= zr * b + zi * a
        new_re[0] += scaled(c.real) << e
        new_im[0] += scaled(c.imag) << e
        re, im, e = new_re, new_im, e + shift
    return re, im, e


def _deviation(coeffs: tuple, re: list, im: list, e: int) -> tuple:
    """(gaps, top): |c_k - (re_k + i im_k) 2^-e| <= gaps[k] 2^-top for each
    k, exact integers, the modulus bounded by |Re| + |Im|."""
    parts = [_dyadic(c) for c in coeffs]
    top = max([e] + [k for _, k in parts])
    gaps = [
        abs((p << (top - k)) - (a << (top - e))) + abs(b << (top - e))
        for (p, k), a, b in zip(parts, re, im)
    ]
    return gaps, top


def _sup_sum(gaps: list, top: int, poles: list, lead: float, pairs: bool) -> float:
    """A float at least sum_k gaps[k] 2^-top s_k (s_k + s_(k+1) if pairs),
    s_k >= sup over real u of |u|^k / |D(u)|, k = 0 .. n, D = lead prod (u -
    w_i).

    |u - w| >= |Im w| and |u| / |u - w| <= 1 + |Re w| / |Im w|; the second
    is spent on the k poles with the least |Re w| + |Im w|, the first on
    the others, so s_k = prod_(i < k) (|Re w_i| + |Im w_i|) / (|lead| prod_i
    |Im w_i|) in that order.  The sum is formed exactly in integers (floats
    are dyadic rationals) and rounded up once; inf past the float range.
    """
    order = sorted(poles, key=lambda w: abs(w.real) + abs(w.imag))
    values = [lead] + [x for w in order for x in (w.real, w.imag)]
    shift = max(_dyadic(x)[1] for x in values)

    def scaled(x: float) -> int:
        p, k = _dyadic(abs(x))
        return p << (shift - k)

    n = len(order)
    heads = [1]  # prod_(i < k) (|Re w_i| + |Im w_i|) 2^shift
    for w in order:
        heads.append(heads[-1] * (scaled(w.real) + scaled(w.imag)))
    den = scaled(lead) << top
    for w in order:
        den *= scaled(w.imag)
    # s_k = heads[k] 2^(shift (n + 1 - k)) / (den 2^-top)
    num = sum(g * (heads[k] << (shift * (n + 1 - k))) for k, g in enumerate(gaps))
    if pairs:
        num += sum(g * (heads[k + 1] << (shift * (n - k))) for k, g in enumerate(gaps))
    try:
        return num / den * (1.0 + 2.0 * _UNIT_ROUNDOFF) + _SUBNORMAL
    except OverflowError:
        return math.inf


def _divide_step(state: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The Leibniz rule for the factor rho_v / (z - v), v a lower node, over
    the upper nodes u_r, each weighted by its own rho_u.

    ``state`` stacks h and M over r: h_r is (-1)^r rho_(u_0) .. rho_(u_r)
    times the divided difference over u_0 .. u_r of the function so far,
    and M_r bounds the modulus of its exact value.  Then h_r <- alpha_r h_r
    + beta_r h_(r-1), alpha_r = rho_v / (u_r - v), beta_r = rho_(u_r) / (u_r
    - v); M obeys the same recurrence with |u_r - v| bounded below, plus
    _FLOOR.
    """
    x = alpha * state
    x[:, 1] += _FLOOR
    for r in range(1, x.shape[0]):
        x[r] += beta[r] * x[r - 1]
    return x


def _multiply_step(state: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The same for the factor (z - x) / rho_x, x an upper node: h_r <-
    alpha_r h_r + beta_r h_(r-1) of the old state, alpha_r = (u_r - x) /
    rho_x and beta_r = -rho_(u_r) / rho_x (for M, an upper bound on |u_r -
    x| and +rho_(u_r) / rho_x)."""
    x = alpha * state
    x[1:] += beta[1:] * state[:-1]
    x[:, 1] += _FLOOR
    return x


class RationalL2(GeneratorSpec):
    """Real-coefficient rational function, square integrable on the line.

    Coefficients are ascending (constant term first).  Square integrability
    is enforced structurally: the denominator may not have real roots and
    must exceed the numerator degree by at least one.

    Every rational pairs in closed form, whatever the multiplicities and
    gaps of its poles, through the Newton form of its partial fractions
    (see _newton_sums).  The poles w_0 .. w_(n-1) come from np.roots once,
    the lower half plane first and each half nearest the real axis first,
    and the divided differences c_j = N[w_0 .. w_j] of the numerator by
    synthetic division; then R(u) = sum_j a_j / prod_(i >= j) (u - w_i)
    with a_j = c_j / lead.
    """

    kind = "rational"

    def __init__(self, numerator: Sequence[float], denominator: Sequence[float]):
        num = [float(c) for c in numerator]
        den = [float(c) for c in denominator]
        if not all(math.isfinite(c) for c in num + den):
            raise BadParameterError("rational coefficients must be finite")
        while num and num[-1] == 0.0:
            num.pop()
        while den and den[-1] == 0.0:
            den.pop()
        if not num:
            raise BadParameterError("numerator is identically zero")
        if len(den) < len(num) + 1:
            raise BadParameterError("denominator degree must exceed numerator degree")
        with np.errstate(all="ignore"):
            companion = np.array(den[:-1]) / den[-1]
        if not np.isfinite(companion).all():
            raise BadParameterError("the denominator's companion matrix leaves the float range")
        try:
            roots = np.roots(den[::-1])
        except np.linalg.LinAlgError as exc:
            raise BadParameterError(f"the denominator's roots cannot be found: {exc}") from None
        if not np.isfinite(roots).all():
            raise BadParameterError("the denominator's roots leave the float range")
        if any(abs(r.imag) <= 1.0e-9 * (1.0 + abs(r)) for r in roots):
            raise BadParameterError("denominator must have no real roots")
        self.numerator = tuple(num)
        self.denominator = tuple(den)
        self.decay_power = len(den) - len(num)
        tags = {"noncompact_support", "smooth_all_derivs_L1"}
        # the Fourier transform is a combination of polynomial-times-real-
        # exponential germs only when every pole is purely imaginary
        if all(abs(r.real) <= 1.0e-9 * (1.0 + abs(r)) for r in roots):
            tags.add("ft_le_combination")
        self.tags = frozenset(tags)

        u = _UNIT_ROUNDOFF
        # nearest the real axis first, which keeps the Newton coefficients
        # and the bound's sums of moduli small
        roots = roots[np.argsort(np.abs(roots.imag), kind="stable")]
        lower = roots[roots.imag < 0.0]
        self._poles = np.concatenate([lower, roots[roots.imag > 0.0]])
        self._lower = lower.size
        with np.errstate(all="ignore"):
            self._newton = np.array(_newton_coefficients(self.numerator, self._poles)) / den[-1]
        if not np.isfinite(self._newton).all():
            raise BadParameterError("the numerator's Newton coefficients leave the float range")
        # the weights (a_j, |a_j|) of the stacked states (see _newton_sums)
        self._weights = np.stack((self._newton, np.abs(self._newton) * (1.0 + 2.0 * u)), axis=1)[:, :, None]
        n = self._poles.size
        # the node error that does not scale with the shift, the relative
        # error tau of a difference of two nodes of one side, the longest
        # chain D of rounded steps from the data to a pairing, D (1 + 16 u)
        # times twice the relative error across the sides per eps / (rho_p
        # + rho_q), and the relative rounding of the steps, weights, sums
        # and final scaling with D tau (see _newton_sums)
        w_max = float(np.max(np.abs(self._poles))) * (1.0 + 2.0 * u)
        self._eps = 12.0 * u * w_max
        im_low = float(np.min(np.abs(self._poles.imag))) * (1.0 - 4.0 * u)
        self._tau = 4.0 * u * w_max / im_low
        depth = 2 * max(lower.size, self._newton.size - 1 - lower.size) + 2 * (n - lower.size) + 2
        self._depth_up = 4.0 * depth * (1.0 + 16.0 * u) / im_low
        self._rounding = (24 * depth + 2 * self._newton.size + 6 * n + 24) * u
        self._rounding += self._tau * depth * (1.0 + 16.0 * u)
        self._block = max(1, _NODE_ENTRIES // n**2)
        # the diagonal entry that _backward_bound needs is paired with neither
        # the backward term nor the Cauchy-Schwarz cap
        self._backward, self._norm_square = 0.0, math.inf
        t, backward = self._backward_bound()
        # per 2 pi / sqrt(lp lq), the factor that _newton_sums forms
        self._backward = backward / (2.0 * math.pi) * (1.0 + 8.0 * u)
        self._norm_square = t * t / (2.0 * math.pi) * (1.0 + 16.0 * u)

    def __call__(self, x):
        xv = np.asarray(x, dtype=np.float64)
        return _poly_eval(self.numerator, xv) / _poly_eval(self.denominator, xv)

    def _backward_bound(self) -> tuple:
        """(t, K): t >= ||R||, and K / sqrt(lp lq) bounds how far the
        pairing of the computed Newton form R^ = N^ / D~ lies from that of R.

        D~ = lead prod (u - w~_i) over the computed poles and N^ = lead
        sum_j a_j prod_(i < j) (u - w~_i) are expanded exactly (floats are
        dyadic rationals).  With s_k >= sup |u|^k / |D~(u)| (_sup_sum),
        R^ - R = (N^ - N) / D~ + R (D - D~) / D~ gives ||R^ - R|| <= delta =
        alpha + eta ||R||, with eta = sum_k |(D - D~)_k| s_k and alpha =
        sqrt(pi) sum_k |(N^ - N)_k| (s_k + s_(k+1)), since |u|^k sqrt(1 +
        u^2) / |D~| <= s_k + s_(k+1) and 1 / (1 + u^2) integrates to pi.  By
        Cauchy-Schwarz an entry moves by at most (2 ||R|| delta + delta^2) /
        sqrt(lp lq); ||R||^2 is the pairing of R with itself, which the
        formula gives at the point (1, 0) within its rounding plus that same
        amount, and solving that quadratic for ||R|| gives t.  A rational
        whose relative bound delta / t is not below 1 (poles nearly on the
        real axis) is a BadParameterError.  Computed once per generator.
        """
        u = _UNIT_ROUNDOFF
        poles = self._poles.tolist()
        lead = self.denominator[-1]
        d_re, d_im, e = _exact_newton_poly(poles, [0j] * len(poles) + [complex(lead)])
        eta = _sup_sum(*_deviation(self.denominator, d_re, d_im, e), poles, lead, False)
        n_re, n_im, e = _exact_newton_poly(poles, self._newton.tolist())
        p, k = _dyadic(lead)
        n_gap = _deviation(self.numerator, [a * p for a in n_re], [b * p for b in n_im], e + k)
        alpha = _sup_sum(*n_gap, poles, lead, True) * math.sqrt(math.pi) * (1.0 + 4.0 * u)
        one, zero = np.ones(1), np.zeros(1)
        with np.errstate(all="ignore"):
            diag, rounding = self._newton_sums(one, one, zero, zero)
            square = float(diag[0] + rounding[0]) * (1.0 + 2.0 * u)
            c2 = 2.0 - (1.0 + eta) ** 2 * (1.0 + 4.0 * u)
            t = delta = math.nan
            if square > 0.0 and c2 > 0.0:
                b = alpha * (1.0 + eta)
                t = (b + math.sqrt(b * b + c2 * (square + alpha * alpha))) / c2 * (1.0 + 16.0 * u)
                delta = (alpha + eta * t) * (1.0 + 4.0 * u)
        if not delta < t < math.inf:
            raise BadParameterError(
                "the denominator's computed poles leave no usable error bound "
                "(poles too close to the real axis, or coefficients too far apart)"
            )
        return t, (2.0 * t + delta) * delta * (1.0 + 4.0 * u)

    def _newton_sums(self, lp, lq, d, dd) -> tuple:
        """(values, error bounds) of the pairings of the Newton form at
        dilations lp, lq and relative shift d (rounded by at most dd); see
        pair for the bounds' last two terms.

        With m = min(lp, lq), rho_p = m / lp, rho_q = m / lq and s = m y,
        the factor 1 / (lp (y - d) - w) is rho_p / (s - P) with the node
        P = m d + rho_p w, and 1 / (lq y - w) is rho_q / (s - Q), Q = rho_q w.
        The pairing is (1 / m) sum_jk a_j a_k times the integral of the
        product of these factors over the nodes of terms j and k.  Over U,
        the upper nodes P_i and Q_l of every pole, that integral is 2 pi i
        times rho_U [U] g, with rho_U the product of the rhos of the nodes
        of U and [U] g the divided difference of the product g of rho / (z -
        v) over the lower nodes v of the two terms and of (z - x) / rho over
        the upper nodes x they lack (those cancel in the divided
        difference).  Each factor acts on the weighted divided differences
        over the leading nodes of U by the Leibniz rule (_divide_step,
        _multiply_step), which divides only by differences of an upper and a
        lower node, never by the difference of two poles: clustered and
        repeated poles cost nothing, and neither do dilations far apart.
        The sum over k is linear, so the Q factors run once, from the empty
        product (the term whose nodes are the upper poles), and their
        states are summed with weights a_k; the P factors run on that sum.
        The value is the real part of 2 pi i / m times the result.

        Bound, by running error analysis.  The moduli M of the stacked
        states bound the exact weighted divided differences, from lower
        bounds on |u - v|.  Differences of two nodes of one side, both
        rho w, are off by a relative tau = 4 u max|w| / min|Im w| at most;
        differences across the sides carry the shift m d and are off by at
        most eps (the rounding of d, of m d, of the rhos and of the sums),
        against at least r = (rho_p + rho_q) min|Im w|.  Each step then adds
        a relative error of at most tau + eps / (r - eps) + 16 u, and so does
        M's use of |fl(u - v)| across the sides; at most D steps lead from
        the data to the result, which is off by at most theta M, theta =
        e^s - 1 with s = D times those errors plus a few u for the weights,
        the sums and the final scaling.  Where s <= 1/2, eps / (r - eps) <=
        2 eps / r and theta <= s + s^2; elsewhere the bound is the
        Cauchy-Schwarz cap of pair.  A (z - x) factor uses 2 eps
        / u >= |u - x| + eps / u, which turns its node error into a rounding
        error.
        """
        u = _UNIT_ROUNDOFF
        w, nl, weights = self._poles, self._lower, self._weights
        n, nu, last = w.size, w.size - nl, weights.shape[0] - 1
        steps = max(nl, last)
        small = np.minimum(lp, lq)
        rho = small / np.array((lq, lp))  # rho_q, rho_p
        shift = small * d
        # the nodes of each pole without the shift: rho_q w, rho_p w
        nodes = w[:, None, None] * rho
        # dd >= 2 u |d|, so 3 m dd covers the rounding of d, m d and of the
        # sums across the sides
        eps = small * dd * (3.0 + 32.0 * u) + self._eps
        # factors[i, side, a, t]: the upper node (a, t) less node i of a
        # side, plus the shift across the sides, and a bound on its modulus
        shape = (steps, 2, nu, 2, 2, small.size)
        factors = np.zeros(shape, dtype=np.complex128)
        y = factors[:, :, :, :, 0]
        np.subtract(nodes[nl:], nodes[:steps, :, None, None], out=y)
        y[:, 0, :, 1] += shift
        y[:, 1, :, 0] -= shift
        # |u - v| >= max(|Re|, Im), Im > 0 for an upper u and a lower v, less
        # the relative node error tau on one side (eps across the sides is
        # charged to theta)
        low = factors[:, :, :, :, 1].real
        np.maximum(np.abs(y.real), y.imag, out=low)
        low *= (1.0 - 4.0 * u) / (1.0 + self._tau)
        rho_v = rho[:, None, None, None, :]
        rho_u = rho[:, None, :]
        alpha = rho_v / factors
        beta = rho_u / factors
        if nl < last:
            # upper nodes lacking from a term: (z - x) / rho_x, with 2 eps / u >=
            # |u - x| + eps / u for M
            factors[nl:, :, :, :, 1] = 2.0 / u * eps
            alpha[nl:] = factors[nl:] / rho_v
            beta[nl:] = rho_u / rho_v
            beta[nl:, :, :, :, 0] *= -1.0
        alpha = alpha.reshape(steps, 2, 2 * nu, 2, small.size)
        beta = beta.reshape(steps, 2, 2 * nu, 2, small.size)

        def sweep(state, side) -> list:
            """(term, state) of one side's factors, from term nl down to 0 and
            up to last: the empty product is the state of term nl."""
            out = [(nl, state)] if nl <= last else []
            x = state
            for i in range(nl - 1, -1, -1):
                x = _divide_step(x, alpha[i, side], beta[i, side])
                if i <= last:
                    out.append((i, x))
            for i in range(nl, last):
                state = _multiply_step(state, alpha[i, side], beta[i, side])
                out.append((i + 1, state))
            return out

        # the empty product: 1 at u_0 = Q of the first upper pole
        start = np.zeros((2 * nu, 2, small.size), dtype=np.complex128)
        start[0] = rho[0]
        comb = functools.reduce(np.add, [weights[k] * x for k, x in sweep(start, 0)])
        total = functools.reduce(np.add, [weights[j] * x[-1] for j, x in sweep(comb, 1)])
        # h over all of U is minus the weighted divided difference, so the
        # real part of 2 pi i / m times the latter is this
        scale = 2.0 * math.pi / small
        value = scale * total[0].imag
        # a difference across the sides is at least (rho_p + rho_q) min|Im w| =
        # r in modulus, so that its relative error is at most eps / (r -
        # eps), at most 2 eps / r where s <= 1/2
        s = eps / (rho[0] + rho[1]) * self._depth_up + self._rounding
        # NaN where s > 1/2, which leaves the cap
        theta = np.where(s <= 0.5, s + s * s, math.nan)
        # scale sqrt(rho_p rho_q) is 2 pi / sqrt(lp lq), within a few u
        root = np.sqrt(rho[0] * rho[1])
        error = np.fmin(
            theta * total[1].real + self._backward * root,
            np.abs(total[0].imag) + self._norm_square * root,
        )
        error *= scale
        error += _TINY
        return value, error

    def pair(self, lp, bp, lq, bq, tol):
        """Each entry by the Newton form (_newton_sums), in blocks of at
        most _NODE_ENTRIES / n^2 entries.  The bound is the rounding bound
        plus the backward error of the computed poles and Newton
        coefficients, K / sqrt(lp lq) (see _backward_bound), and at most
        |value| + t^2 / sqrt(lp lq), since Cauchy-Schwarz bounds every entry
        by ||R||^2 / sqrt(lp lq)."""
        d, dd = _relative_shift(lp, bp, lq, bq)
        block = self._block
        values, errors = np.empty(lp.size), np.empty(lp.size)
        with np.errstate(all="ignore"):
            for s in range(0, lp.size, block):
                part = slice(s, s + block)
                values[part], errors[part] = self._newton_sums(lp[part], lq[part], d[part], dd[part])
        return values, errors

    def _envelope_constants(self) -> tuple:
        """(M, U0) with |R(u)| <= M |u|^-p for |u| >= U0."""
        lead_num = abs(self.numerator[-1])
        lead_den = abs(self.denominator[-1])
        u_num = max(1.0, sum(abs(c) for c in self.numerator[:-1]) / lead_num)
        u_den = max(1.0, 2.0 * sum(abs(c) for c in self.denominator[:-1]) / lead_den)
        return 4.0 * lead_num / lead_den, max(u_num, u_den)

    def pair_window(self, lp, bp, lq, bq, tol):
        """Truncation windows (lo, hi, tail) of the pairs of points, for the
        tests' time-side quadrature reference; no production caller (see
        the module docstring)."""
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


class SampledGenerator(GeneratorSpec):
    """Linearly interpolated samples on a finite support.

    Pairs exactly: the product of two dilated translates of a linear
    interpolant is piecewise quadratic between the merged sample knots.
    ``tags`` declares properties of the function the samples stand for;
    the Gram matrix is that of the interpolant.
    """

    kind = "sampled"

    def __init__(self, sampled: SampledFunction, tags: Iterable[str] = ()):
        values = np.asarray(sampled.values)
        lo, hi = sampled.support
        if values.ndim != 1 or values.size < 2 or not np.all(np.isfinite(values)):
            raise InvalidEquationError("sampled generator needs at least 2 finite values")
        if np.any(np.imag(values)):
            raise InvalidEquationError("sampled generator needs real values")
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
        # a slope past the float range is inf: such values are refused when
        # paired, since their squares overflow
        with np.errstate(over="ignore"):
            self.lipschitz = float(np.max(np.abs(np.diff(self.values)))) / sampled.step
        self.tags = normalize_tags({"compact_support", *tags})

    def __call__(self, x):
        xv = np.asarray(x, dtype=np.float64)
        return np.interp(xv, self.grid, self.values, left=0.0, right=0.0)

    def time_support(self) -> tuple:
        """Closed support interval, clipped to the sample grid."""
        return self._support


class Hat(SampledGenerator):
    """Piecewise-linear hat max(0, 1 - |x - 1|), supported on [0, 2]."""

    kind = "hat"

    def __init__(self):
        samples = SampledFunction(
            start=0.0, step=1.0, values=np.array([0.0, 1.0, 0.0]), support=(0.0, 2.0)
        )
        super().__init__(samples)


class RefinementGenerator(SampledGenerator):
    """Cascade solution of a two-scale equation, sampled and interpolated."""

    kind = "refinement"

    def __init__(
        self,
        equation: TwoScaleEquation,
        resolution: float = 2.0**-10,
        iterations: int = 40,
    ):
        self.equation = equation
        self.resolution = float(resolution)
        self.iterations = int(iterations)
        sampled, _ = cascade_solve(equation, self.resolution, self.iterations)
        super().__init__(sampled)


class _CatalogEntry:
    def __init__(
        self,
        tags: frozenset,
        ft: Callable[[np.ndarray], np.ndarray],
        ft_envelope: tuple | None = None,  # (K, rate, start): |ft| <= K exp(-rate|g|) beyond start
        time_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        formula: Callable | None = None,  # as GeneratorSpec.pair, without tol
        fixed_rule: Callable | None = None,  # as _sech_rule, for the entries without one
    ):
        self.tags = tags
        self.ft = ft
        self.ft_envelope = ft_envelope
        self.time_fn = time_fn
        self.formula = formula
        self.fixed_rule = fixed_rule


# e^-|gamma| is 0 in floats past this |gamma|, and so is log_exp_ratio's transform
_EXP_UNDERFLOW = 746.0


def _ft_log_exp_ratio(g: np.ndarray) -> np.ndarray:
    """gamma ln|gamma| / (e^gamma + e^-gamma), formed as sign(gamma) |gamma|
    ln|gamma| e^-|gamma| / (1 + e^-2|gamma|): one exp, finite for every float,
    and exactly 0 at 0 and wherever e^-|gamma| underflows.  Clipping gamma to
    the underflow point keeps inf * 0 out; the log of the smallest subnormal
    stands in for ln 0, which is multiplied by 0."""
    g = np.clip(np.asarray(g, dtype=np.float64), -_EXP_UNDERFLOW, _EXP_UNDERFLOW)
    a = np.abs(g)
    e = np.exp(-a)
    return g * e * np.log(np.maximum(a, _SUBNORMAL)) / (1.0 + e * e)


def _ft_box(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    return np.where(np.abs(g) <= 0.5, 1.0, 0.0)


def _ft_annulus_tent(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(np.abs(g) - 1.5))


def _sech(x: np.ndarray) -> np.ndarray:
    """sech(pi x); cosh overflows past |x| = 226, where the quotient is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(np.pi * np.asarray(x, dtype=np.float64))


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
        refuse_pairs(
            np.isfinite(omega) & np.isfinite(domega), lp, bp, lq, bq,
            "put the Fourier-side pairing out of float range",
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


# The fixed-step rules try, for each pair, these fractions 1 - 2^-j of the
# widest strip or sector in which the folded product is analytic: each gives
# a valid bound, and the one that allows the longest step is kept.
_WIDTH_FRACTIONS = 1.0 - 2.0 ** -np.arange(1.0, 9.0)
# a pair whose fixed-step rule needs more nodes than this is refused
NODE_BUDGET = 10**6
# The fixed-step rules sum each entry's nodes in runs of at most this many,
# and evaluate the runs in blocks of at most this many nodes, which bounds
# their temporaries however many nodes an entry needs
_SUM_RUN = 2**10
_NODE_BLOCK = 2**14
_LN2 = math.log(2.0)
# digamma and trigamma at 1, 2 and 3
_PSI = np.array([0.0, 1.0, 1.5]) - 0.5772156649015329
_TRIGAMMA = math.pi**2 / 6.0 - np.array([0.0, 1.0, 1.25])
_LOG_FACTORIAL = np.log([1.0, 1.0, 2.0])


def _strip_step(width, log_m, log_target, factor: float) -> tuple:
    """Steps of the trapezoidal rule from strip bounds, and the strip kept.

    A function analytic in the strip |Im t| < a, with integral at most M
    along every line Im t = b, |b| < a, misses its integral by at most
    2 M / (e^(2 pi a / h) - 1) with the infinite trapezoidal sum of step h
    (Trefethen and Weideman, SIAM Rev. 56 (2014), Thm 5.1).  Given the
    candidate half-widths ``width`` and log M of each pair (one row per
    pair), the step that makes factor M / (e^(2 pi a / h) - 1) equal to
    e^log_target is h = 2 pi a / log(1 + factor M / target); returns, per
    pair, the longest of those steps, its half-width and its log M.
    """
    step = 2.0 * math.pi * width / np.logaddexp(0.0, math.log(factor) + log_m - log_target)
    rows = np.arange(step.shape[0])
    best = np.argmax(step, axis=1)
    return step[rows, best], width[rows, best], log_m[rows, best]


def _strip_bound(width, log_m, h, factor: float) -> np.ndarray:
    """factor M / (e^(2 pi a / h) - 1), formed from log M and the log of expm1."""
    y = 2.0 * math.pi * (width / h)
    return np.exp(math.log(factor) + log_m - y - np.log(-np.expm1(-y)))


def _sech_rule(lp, lq, omega, scale, radius, log_target) -> tuple:
    """The trapezoidal rule on the folded half line for ft(g) = sech(pi g).

    The folded product F(g) = scale sech(pi g / lp) sech(pi g / lq)
    cos(omega g) (see CatalogGenerator.ft_pair_integrand) is even and
    analytic in the strip |Im g| < min(lp, lq) / 2.  On the line Im g = b,
    |sech(u + iv)| <= sech(u) / cos(v) and |cos(omega (x + ib))| <=
    cosh(omega b), and sech(pi x / l) integrates to l, so for |b| <= a
    F integrates in modulus to at most M = scale cosh(omega a) min(lp, lq) /
    (cos(pi a / lp) cos(pi a / lq)).  The sum h (F(0) / 2 + F(h) + F(2h) +
    ...) is half the full-line trapezoidal sum, so it misses the entry by at
    most M / (e^(2 pi a / h) - 1) (see _strip_step).  The step makes that
    the target, but is at most the truncation radius R; the nodes kh run
    from k = 0 to the first multiple of h at or past R, and the terms past
    it, under the decreasing envelope, add up to at most the envelope's
    integral past R, the window's tail.  Returns (h, first k, last k,
    discretization bound, whether the nodes are e^(kh)).
    """
    small = np.minimum(lp, lq)[:, None]
    width = 0.5 * small * _WIDTH_FRACTIONS
    # a scale that underflows to 0 gives M = 0; a step of 0 is refused by its node count
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wa = np.abs(omega)[:, None] * width
        log_cosh = wa + np.log1p(np.exp(-2.0 * wa)) - _LN2
        log_m = (
            np.log(scale)[:, None] + np.log(small) + log_cosh
            - np.log(np.cos(0.5 * math.pi * _WIDTH_FRACTIONS * (small / lp[:, None])))
            - np.log(np.cos(0.5 * math.pi * _WIDTH_FRACTIONS * (small / lq[:, None])))
        )
        step, a, log_m = _strip_step(width, log_m, log_target, 1.0)
        h = np.minimum(step, radius)
        last = np.ceil(radius / h)
        bound = _strip_bound(a, log_m, h, 1.0)
    return h, np.zeros_like(h), last, bound, False


def _lower_truncation(lp, lq, scale, log_target) -> tuple:
    """(delta, log of the bound) of the SE-Sinc rule's lower truncation (see
    _log_exp_ratio_rule): delta = delta0 2^-k, delta0 = min(lp, lq) / e,
    with the least k >= 0 whose bound log f(delta) = log(scale / (12 lp
    lq)) + 3 ln delta + ln(L^2 + 2 L / 3 + 2 / 9), L = ln(sqrt(lp lq) /
    delta), is at most log_target.

    L grows with k and the bound is increasing in L, so for k >= x, L >= L(x)
    and the bound is at least its value with L frozen at L(x); that meets the
    target only from the solution of its equality on.  Two such solutions,
    from x = 0 and from the first, give a count below which every bound
    fails.  The halvings start one below it and go on one numpy pass at a
    time until each bound is met: the same delta, bit for bit, as halving
    from delta0, in two or three passes where that took a dozen.
    """
    log_lp, log_lq = np.log(lp), np.log(lq)
    delta = np.minimum(lp, lq) / math.e
    log_delta = np.log(delta)
    excess = np.log(scale / 12.0) - log_lp - log_lq + 3.0 * log_delta - log_target
    root0 = 0.5 * (log_lp + log_lq) - log_delta
    skip = 0.0
    for _ in range(2):
        root = root0 + _LN2 * skip
        skip = np.maximum(skip, (excess + np.log(root * root + 2.0 * root / 3.0 + 2.0 / 9.0)) / (3.0 * _LN2))
    skip = np.ceil(skip) - 1.0
    delta = np.ldexp(delta, -np.where(skip > 0.0, np.minimum(skip, 1074.0), 0.0).astype(np.int64))
    log_lower = np.empty(lp.size)

    def lower(i):
        log_delta = np.log(delta[i])
        root = 0.5 * (log_lp[i] + log_lq[i]) - log_delta
        return (
            np.log(scale[i] / 12.0) - log_lp[i] - log_lq[i] + 3.0 * log_delta
            + np.log(root * root + 2.0 * root / 3.0 + 2.0 / 9.0)
        )

    i = np.arange(lp.size)
    while i.size:
        log_lower[i] = lower(i)
        i = i[log_lower[i] > log_target]
        delta[i] *= 0.5
    return delta, log_lower


def _log_exp_ratio_rule(lp, lq, omega, scale, radius, log_target) -> tuple:
    """The SE-Sinc rule after g = e^t for ft(g) = g ln|g| / (e^g + e^-g).

    The factor g ln g is not analytic at 0; after g = e^t (the single
    exponential transformation; Okayama, Matsuo and Sugihara, Numer. Math.
    124 (2013)) the entry is the integral over the line of u(t) = e^t F(e^t),
    taken by the trapezoidal rule in t.  F is analytic in the sector
    |arg z| < pi / 2, so u is analytic in the strip |Im t| < d for every
    d < pi / 2 with tan d < sigma / |omega|, sigma = 1 / lp + 1 / lq.  On
    the ray z = r e^(is), |s| <= d, with c = cos d: |ft(w)| <= |w| |ln w| /
    (2 sinh(Re w)), |ln w|^2 <= ln^2 |w| + d^2, x / sinh x <= 2 (1 + x) e^-x
    and |cos(omega z)| <= e^(|omega| r sin d) give
        |F(z)| <= scale / c^2 [(ln^2(r / lp) + ln^2(r / lq)) / 2 + d^2]
                  (1 + c r / lp) (1 + c r / lq) e^(-kappa r),
    with kappa = c sigma - |omega| sin d > 0.  u integrates along Im t = s
    as |F| does along the ray, so by the moments of r^k ln^2 r e^(-kappa r)
        M = scale / c^2 sum_k e_k k! / kappa^(k + 1)
            [((psi_k - ln(kappa lp))^2 + (psi_k - ln(kappa lq))^2) / 2
             + psi'_k + d^2],
    e = (1, c sigma, c^2 / (lp lq)), with psi_k and psi'_k the digamma and
    trigamma functions at k + 1; the infinite sum misses the entry by at
    most 2 M / (e^(2 pi d / h) - 1) (see _strip_step).  The step makes that
    the target, and is at most ln 2.

    Truncation below: for g <= delta <= min(lp, lq) / e, |ft(x)| <=
    |x ln|x|| / 2 gives |F(g)| <= scale g^2 ln^2(sqrt(lp lq) / g) /
    (4 lp lq), e^t times which increases in t, so the terms at nodes below
    delta add up to at most its integral over [0, delta], scale delta^3
    (L^2 + 2 L / 3 + 2 / 9) / (12 lp lq) with L = ln(sqrt(lp lq) / delta);
    delta is min(lp, lq) / e halved until that is within the target
    (_lower_truncation).
    Truncation above: past the radius R, e^t times the envelope decreases
    (R >= 1 / the pair rate), so the terms at nodes past R add up to at most
    the window's tail.  The nodes e^(kh) run from the last at or below delta
    to the first at or past R.  Returns (h, first k, last k, discretization
    plus lower truncation bound, whether the nodes are e^(kh)).
    """
    sigma = 1.0 / lp + 1.0 / lq
    w = np.abs(omega)
    d = np.arctan2(sigma, w)[:, None] * _WIDTH_FRACTIONS
    c = np.cos(d)
    log_lp, log_lq = np.log(lp)[:, None], np.log(lq)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_kappa = np.log(c * sigma[:, None] - w[:, None] * np.sin(d))
        log_c = np.log(c)
        log_moment = [
            log_e + _LOG_FACTORIAL[k] - (k + 1) * log_kappa + np.log(
                0.5 * ((_PSI[k] - log_kappa - log_lp) ** 2 + (_PSI[k] - log_kappa - log_lq) ** 2)
                + _TRIGAMMA[k] + d * d
            )
            for k, log_e in enumerate(
                (0.0, log_c + np.log(sigma)[:, None], 2.0 * log_c - log_lp - log_lq)
            )
        ]
        log_m = np.log(scale)[:, None] - 2.0 * log_c + np.logaddexp.reduce(log_moment)
        step, width, log_m = _strip_step(d, log_m, log_target, 2.0)
        h = np.minimum(step, _LN2)
        disc = _strip_bound(width, log_m, h, 2.0)

        delta, log_lower = _lower_truncation(lp, lq, scale, log_target)
        first = np.floor(np.log(delta) / h)
        last = np.ceil(np.log(radius) / h)
    return h, first, last, disc + np.exp(log_lower), True


_CATALOG = {
    # gamma ln|gamma| / (e^gamma + e^-gamma): square integrable with a
    # logarithmico-exponential germ at infinity; no closed time-domain form
    "log_exp_ratio": _CatalogEntry(
        tags=frozenset({"ft_le_combination", "noncompact_support"}),
        ft=_ft_log_exp_ratio,
        ft_envelope=(1.0, 0.5, 12.0),
        fixed_rule=_log_exp_ratio_rule,
    ),
    # indicator of [-1/2, 1/2] in frequency; sinc in time
    "ft_box": _CatalogEntry(
        tags=frozenset({"ft_compact_support", "noncompact_support"}),
        ft=_ft_box,
        time_fn=_sinc,
        formula=_box_pairs,
    ),
    # tent on 1 <= |gamma| <= 2: compact frequency support vanishing near 0
    "ft_annulus_tent": _CatalogEntry(
        tags=frozenset(
            {"ft_vanishes_near_zero", "ft_compact_support", "noncompact_support"}
        ),
        ft=_ft_annulus_tent,
        formula=_annulus_tent_pairs,
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
        ft=_sech,
        ft_envelope=(2.0, math.pi, 0.0),
        time_fn=_sech,
        fixed_rule=_sech_rule,
    ),
}


def catalog_ids() -> tuple:
    return tuple(sorted(_CATALOG))


class CatalogGenerator(GeneratorSpec):
    """Closed-form catalog generator, keyed by id and defined via its
    Fourier transform.  The band-limited entries pair in closed form; the
    others by a fixed-step rule in the Fourier domain, which avoids slowly
    decaying time tails."""

    kind = "le_catalog"

    def __init__(self, catalog_id: str):
        try:
            entry = _CATALOG[catalog_id]
        except KeyError:
            raise BadParameterError(
                f"unknown catalog id {catalog_id!r}; known: {', '.join(catalog_ids())}"
            ) from None
        self.catalog_id = catalog_id
        self._entry = entry
        self.tags = entry.tags

    def __call__(self, x):
        if self._entry.time_fn is None:
            raise NotImplementedError(
                f"catalog generator {self.catalog_id!r} has no closed time-domain form"
            )
        return self._entry.time_fn(x)

    def ft(self, gamma):
        return self._entry.ft(gamma)

    def pair(self, lp, bp, lq, bq, tol):
        """The entry's closed form, or else its fixed-step rule (pair_fixed_rule).

        The rule's nodes of all entries form one flat grid, cut into runs of
        at most _SUM_RUN consecutive nodes of one entry, and the runs go
        through the folded products in blocks of at most _NODE_BLOCK nodes
        (a longer run forms a block of its own).  Each run is summed alone
        (np.add.reduceat, whose sum of a run depends only on the run), and
        each entry is the math.fsum of its runs' sums.  So an entry depends
        neither on the blocks nor on the other entries of the batch.  The
        error bound is the rule's discretization and truncation bound plus
        its rounding factor times the sum of |terms|, summed the same way,
        with (_SUM_RUN + 1) u more for the sums: a run's plain sum is off by
        at most (_SUM_RUN - 1) u times the sum of its moduli, to first
        order, and fsum by u times the entry.  A non-finite term is a
        BadParameterError naming both points.
        """
        if self._entry.formula is not None:
            return self._entry.formula(lp, bp, lq, bq)
        integrand, h, first, count, exponential, bound, rounding = self.pair_fixed_rule(
            lp, bp, lq, bq, tol
        )
        runs = -(-count // _SUM_RUN)
        entry = np.repeat(np.arange(lp.size), runs)
        offset = (np.arange(entry.size) - np.repeat(np.cumsum(runs) - runs, runs)) * _SUM_RUN
        run_first = first[entry] + offset
        run_count = np.minimum(count[entry] - offset, _SUM_RUN)
        run_end = np.cumsum(run_count)
        sums = np.empty(entry.size)
        moduli = np.empty(entry.size)
        a = 0
        while a < entry.size:
            cap = (run_end[a - 1] if a else 0) + _NODE_BLOCK
            b = max(a + 1, int(np.searchsorted(run_end, cap, side="right")))
            size = run_count[a:b]
            local = np.cumsum(size) - size
            pair = np.repeat(entry[a:b], size)
            k = np.arange(int(local[-1] + size[-1])) + np.repeat(run_first[a:b] - local, size)
            weight = h[pair]
            nodes = k * weight
            if exponential:
                nodes = np.exp(nodes)
                weight *= nodes
            else:
                weight[k == 0] *= 0.5
            terms = weight * integrand(nodes, pair)
            finite = np.ones(lp.size, dtype=bool)
            finite[pair[~np.isfinite(terms)]] = False
            refuse_pairs(finite, lp, bp, lq, bq, "give a non-finite term of the fixed-step rule")
            sums[a:b] = np.add.reduceat(terms, local)
            moduli[a:b] = np.add.reduceat(np.abs(terms), local)
            a = b
        cuts = np.append(0, np.cumsum(runs)).tolist()
        sums, moduli = sums.tolist(), moduli.tolist()
        values = np.array([math.fsum(sums[i:j]) for i, j in zip(cuts, cuts[1:])])
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.array([math.fsum(moduli[i:j]) for i, j in zip(cuts, cuts[1:])])
            errors = bound + (rounding + (_SUM_RUN + 1) * _UNIT_ROUNDOFF) * total
        return values, errors

    def ft_pair_integrand(self, lp, bp, lq, bq) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Fourier-side products at pairs of points, folded onto gamma >= 0.

        Every catalog transform is real and even or odd, so the product
        ft(g / lp) ft(g / lq) is even, and its integral against
        exp(-2 pi i d g) over the line is twice its integral against
        cos(omega g) over g >= 0, with d = bp / lp - bq / lq and
        omega = 2 pi d.  Maps nodes g >= 0, and the index of each node's
        pair, to 2 / (lp lq) ft(g / lp) ft(g / lq) cos(omega g), in float64.
        """
        omega, scale = _fourier_phase(lp, bp, lq, bq)
        ft = self._entry.ft

        def integrand(g: np.ndarray, pair: np.ndarray) -> np.ndarray:
            g = np.asarray(g, dtype=np.float64)
            return scale[pair] * ft(g / lp[pair]) * ft(g / lq[pair]) * np.cos(omega[pair] * g)

        return integrand

    def pair_fixed_rule(self, lp, bp, lq, bq, tol: float) -> tuple:
        """What the fixed-step rule of a catalog entry without a closed form
        needs to pair its dilated translates at pairs of points.

        Returns (integrand, h, first, count, exponential, bound, rounding):
        the folded products (ft_pair_integrand); per pair the step h and the
        nodes t_k = k h for k = first .. first + count - 1, each at
        g = e^(t_k) with weight h g when ``exponential`` is true (the SE-Sinc
        rule of log_exp_ratio), else at g = t_k with weight h, h / 2 at
        k = 0 (the trapezoidal rule of sech on the half line); the bound on
        the rule's discretization and truncation errors; and the factor on
        the sum of |weighted terms| that covers their rounding.  The step and
        truncation come from the entry's rule (_sech_rule,
        _log_exp_ratio_rule), with a target of tol / 8 for the
        discretization and for a truncation below, and the window's tail,
        at most tol / 4, above: the bound is at most tol / 2.  The rounding
        factor covers the phase omega g as the closed forms do: the rounding
        of d (delta_d, see _relative_shift), of omega and of omega g, and of
        the cosine, (2 pi delta_d + 4 u |omega|) G + 2 u with G the largest
        node and u the unit roundoff, plus u for the product with each
        weight; pair adds the rounding of the sums.  The bound also
        takes 2^-1073 per term for products that underflow, scale included,
        times the sum of the weights, which is at most 2 G.  The node counts
        are checked before any node is formed: a pair that needs more than
        NODE_BUDGET nodes is a BudgetExceededError naming both points.
        """
        _, radius, tail = _checked_window(self.ft_pair_window(lp, bp, lq, bq, tol), lp, bp, lq, bq)
        integrand = self.ft_pair_integrand(lp, bp, lq, bq)  # checks shift and scale first
        omega, scale = _fourier_phase(lp, bp, lq, bq)
        # before the rule, which would count an infinite omega as infinitely many nodes
        with np.errstate(over="ignore"):  # to inf, as in scalar arithmetic
            phase = np.abs(omega) * radius
        refuse_pairs(
            np.isfinite(phase), lp, bp, lq, bq, "put the Fourier-side phase out of float range"
        )
        h, first, last, bound, exponential = self._entry.fixed_rule(
            lp, lq, omega, scale, radius, math.log(0.125 * tol)
        )
        count = last - first + 1.0
        refuse_pairs(
            count <= NODE_BUDGET, lp, bp, lq, bq,
            lambda k: f"need {count[k]:.3g} nodes of the fixed-step rule, "
            f"beyond the budget of {NODE_BUDGET}",
            error=BudgetExceededError,
        )
        with np.errstate(over="ignore"):
            top = last * h
            largest = np.exp(top) if exponential else top
            phase = np.abs(omega) * largest
        refuse_pairs(
            np.isfinite(phase), lp, bp, lq, bq, "put the Fourier-side phase out of float range"
        )
        _, shift_rounding = _relative_shift(lp, bp, lq, bq)
        u = _UNIT_ROUNDOFF
        rounding = (2.0 * np.pi * shift_rounding + 4.0 * u * np.abs(omega)) * largest + 3.0 * u
        return (
            integrand, h, first.astype(np.int64), count.astype(np.int64), exponential,
            bound + tail + 2.0 * _TINY * largest, rounding,
        )

    def ft_pair_window(self, lp, bp, lq, bq, tol: float) -> tuple:
        """Fourier-side windows (-R, R, tail) of the entries with a fixed-step
        rule, from the envelope of their transform."""
        with np.errstate(all="ignore"):
            k, rate, start = self._entry.ft_envelope
            pair_rate = rate * (1.0 / lp + 1.0 / lq)
            prefactor = 2.0 * k * k / (lp * lq)
            # from the envelope's own scale, and no nearer than where it holds
            radius = np.maximum(1.0 / pair_rate, start * np.maximum(lp, lq))

            def tail(r, i):
                return prefactor[i] * _exp(-pair_rate[i] * r) / pair_rate[i]

            zero = np.zeros(lp.size)
            return _tail_window(zero, zero, radius, tail, tol)
