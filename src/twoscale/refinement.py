"""Two-scale difference equations and their solutions.

An equation ``phi(x) = sum_k c_k phi(lambda x - beta_k)`` with dilation
``lambda > 1`` is represented by :class:`TwoScaleEquation`.  This module
validates equations against the necessary conditions for nonzero compactly
supported integrable solutions, solves them in the Fourier domain (truncated
infinite product of masks) and in the time domain (cascade iteration), and
bounds or estimates the Hoelder regularity of solutions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    BadParameterError,
    BudgetExceededError,
    DivergingError,
    InsufficientDecadesError,
    InvalidEquationError,
    NotNormalizedError,
)

if TYPE_CHECKING:
    from .numerics import SlopeFit

__all__ = [
    "TwoScaleEquation",
    "ValidationReport",
    "TwoTermClass",
    "RegularityBound",
    "FourierProfile",
    "SampledFunction",
    "validate_equation",
    "regularity_upper_bound",
    "normalized_support",
    "mask",
    "solve_fourier",
    "cascade_solve",
    "estimate_regularity",
    "preset",
    "GRID_BUDGET",
    "check_grid_budget",
]

_NORMALIZATION_TOL = 1.0e-10
_SUM_REPORT_TOL = 1.0e-12

# Largest grid a request may ask for, in points, and for the cascade in
# points x iterations: 32 MiB per real array, about 0.5 s of cascade.
GRID_BUDGET = 2**22


def check_grid_budget(points: float, iterations: float = 1, unit: str = "iterations") -> None:
    """Raise BudgetExceededError if points x max(iterations, 1) exceeds GRID_BUDGET.

    ``unit`` names what ``iterations`` counts in the error message.
    """
    if not (points <= GRID_BUDGET / max(iterations, 1)):
        size = f"{_count(points)} grid points"
        if iterations > 1:
            size += f" x {_count(iterations)} {unit}"
        raise BudgetExceededError(f"{size} exceed the grid budget of {GRID_BUDGET}")


def _count(n: float) -> str:
    # integers exactly: they may lie beyond the float range
    return str(n) if isinstance(n, int) else f"{n:.6g}"


@dataclass(frozen=True)
class TwoScaleEquation:
    """Dilation and (coefficient, offset) terms of a two-scale equation.

    Terms are sorted by strictly increasing offset; duplicate offsets are
    merged by summing their coefficients and exact-zero coefficients are
    dropped.  The first and last coefficients must be nonzero since they
    define the support endpoints of any compactly supported solution.
    """

    lam: float
    terms: tuple

    def __init__(self, lam: float, terms: Sequence[tuple]):
        lam = float(lam)
        if not (math.isfinite(lam) and lam > 1.0):
            raise InvalidEquationError("dilation must be finite and satisfy lambda > 1")
        merged: dict[float, complex] = {}
        for c, beta in terms:
            beta, c = float(beta), complex(c)
            if not (math.isfinite(beta) and cmath.isfinite(c)):
                raise InvalidEquationError("coefficients and offsets must be finite")
            merged[beta] = merged.get(beta, 0.0 + 0.0j) + c
        cleaned = tuple(
            (merged[beta], beta) for beta in sorted(merged) if merged[beta] != 0
        )
        if not cleaned:
            raise InvalidEquationError("equation needs at least one nonzero term")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "terms", cleaned)

    @property
    def coefficients(self) -> tuple:
        return tuple(c for c, _ in self.terms)

    @property
    def offsets(self) -> tuple:
        return tuple(beta for _, beta in self.terms)

    def coefficient_sum(self) -> complex:
        total = 0.0 + 0.0j
        for c, _ in self.terms:
            total += c
        return total


@dataclass(frozen=True)
class TwoTermClass:
    """Classification of two-term equations by dilation regime.

    kind ``unbounded_only``: lambda > 2, no bounded nonzero solution;
    kind ``bounded_forces_unit_coeffs``: lambda = 2, bounded solutions force
    both coefficients to equal 1 (``unit_coeffs`` records whether they do);
    kind ``hoelder_capped``: 1 < lambda < 2, Hoelder exponents are capped by
    ``cap`` = 1/log2(lambda) - 1.
    """

    kind: str
    cap: float | None = None
    unit_coeffs: bool | None = None


@dataclass(frozen=True)
class ValidationReport:
    lemma_endpoint_pass: bool
    coefficient_sum: complex
    normalized: bool
    two_term_class: TwoTermClass | None
    messages: tuple


@dataclass(frozen=True)
class RegularityBound:
    """Upper bound on the Hoelder exponent of a compactly supported solution.

    ``mu_upper`` is min(-ln|c_first|, -ln|c_last|) / ln(lambda), clamped at
    zero.  When either endpoint coefficient has modulus >= 1 the solution
    must be discontinuous at the corresponding support endpoint, recorded in
    ``discontinuous``.
    """

    mu_upper: float
    log_lambda: float
    endpoint_logs: tuple
    discontinuous: bool


@dataclass(frozen=True, eq=False)
class FourierProfile:
    """Truncated infinite-product values of the Fourier transform."""

    grid: np.ndarray
    values: np.ndarray
    truncation_depth: int
    tail_bound: float


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values on a uniform grid, vanishing outside a closed support."""

    start: float
    step: float
    values: np.ndarray
    support: tuple

    @property
    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self.values))


def validate_equation(eq: TwoScaleEquation) -> ValidationReport:
    """Check the necessary endpoint conditions and normalization.

    A nonzero compactly supported integrable solution requires both endpoint
    coefficients to have modulus strictly below the dilation; the report
    never raises on a well-formed equation, it only describes it.
    """
    lam = eq.lam
    c_first = eq.coefficients[0]
    c_last = eq.coefficients[-1]
    messages: list[str] = []

    first_ok = abs(c_first) < lam
    last_ok = abs(c_last) < lam
    if not first_ok:
        messages.append(
            f"leading coefficient has |c|={abs(c_first):g} >= lambda={lam:g}; "
            "no nonzero compactly supported integrable solution exists"
        )
    if not last_ok:
        messages.append(
            f"trailing coefficient has |c|={abs(c_last):g} >= lambda={lam:g}; "
            "no nonzero compactly supported integrable solution exists"
        )

    total = eq.coefficient_sum()
    normalized = abs(total - lam) <= _SUM_REPORT_TOL
    if not normalized:
        messages.append(
            f"coefficient sum {total:g} != lambda; rescale by lambda/sum "
            "before solving in the Fourier domain"
        )

    if len(eq.terms) == 1:
        messages.append(
            "single-term equation: only the zero function is a compactly "
            "supported integrable solution"
        )

    two_term: TwoTermClass | None = None
    if len(eq.terms) == 2:
        messages.append(
            "dilation trichotomy below is stated for equations with exactly "
            "two nonzero terms (zero coefficients are dropped at construction)"
        )
        if lam > 2.0:
            two_term = TwoTermClass(kind="unbounded_only")
            messages.append("lambda > 2: any nonzero solution is unbounded")
        elif lam == 2.0:
            unit = (
                abs(eq.coefficients[0] - 1.0) <= _SUM_REPORT_TOL
                and abs(eq.coefficients[1] - 1.0) <= _SUM_REPORT_TOL
            )
            two_term = TwoTermClass(kind="bounded_forces_unit_coeffs", unit_coeffs=unit)
            messages.append(
                "lambda = 2: a bounded nonzero solution forces both "
                f"coefficients to equal 1 (currently {'satisfied' if unit else 'violated'})"
            )
        else:
            cap = 1.0 / math.log2(lam) - 1.0
            two_term = TwoTermClass(kind="hoelder_capped", cap=cap)
            messages.append(
                f"1 < lambda < 2: Hoelder exponents are capped at {cap:.12g}"
            )

    messages.append(
        "no two-scale equation admits a nonzero compactly supported "
        "C-infinity solution"
    )

    return ValidationReport(
        lemma_endpoint_pass=first_ok and last_ok,
        coefficient_sum=total,
        normalized=normalized,
        two_term_class=two_term,
        messages=tuple(messages),
    )


def regularity_upper_bound(eq: TwoScaleEquation) -> RegularityBound:
    """Endpoint-coefficient upper bound on the Hoelder exponent."""
    log_lambda = math.log(eq.lam)
    first_log = -math.log(abs(eq.coefficients[0]))
    last_log = -math.log(abs(eq.coefficients[-1]))
    raw = min(first_log, last_log) / log_lambda
    discontinuous = abs(eq.coefficients[0]) >= 1.0 or abs(eq.coefficients[-1]) >= 1.0
    return RegularityBound(
        mu_upper=max(0.0, raw),
        log_lambda=log_lambda,
        endpoint_logs=(first_log, last_log),
        discontinuous=discontinuous,
    )


def normalized_support(eq: TwoScaleEquation) -> tuple:
    """Support interval [beta_first/(lambda-1), beta_last/(lambda-1)]."""
    scale = eq.lam - 1.0
    return (eq.offsets[0] / scale, eq.offsets[-1] / scale)


class _FoldedMask:
    """The mask with its terms at +d and -d folded into one cosine and one sine.

    m(s) = a0 + sum_d [P_d cos(2 pi d s) + Q_d sin(2 pi d s)] over the
    distinct |beta| = d > 0, with a0 = c(0)/lambda, P_d = (c(d) + c(-d))/lambda
    and Q_d = i (c(-d) - c(d))/lambda.  ``rows`` holds (2 pi d, P_d, Q_d).
    All of them are real exactly when c(-beta) = conj(c(beta)) for every
    beta; they are then stored as floats and the mask evaluates in float64.
    ``max_frequency`` is 2 pi max|beta|, the largest phase per unit s.
    """

    def __init__(self, eq: TwoScaleEquation):
        pairs: dict[float, list] = {}
        for c, beta in eq.terms:
            pairs.setdefault(abs(beta), [0j, 0j])[beta < 0.0] += c / eq.lam
        a0 = pairs.pop(0.0, [0j])[0]
        rows = []
        for d in sorted(pairs):
            plus, minus = pairs[d]
            diff = minus - plus
            rows.append((2.0 * math.pi * d, plus + minus, complex(-diff.imag, diff.real)))
        coeffs = [a0] + [x for _, p, q in rows for x in (p, q)]
        if not all(cmath.isfinite(x) for x in coeffs):
            raise BadParameterError(
                "coefficients too large: a folded mask coefficient (c(d) +- c(-d))/lambda overflows"
            )
        self.real = all(x.imag == 0.0 for x in coeffs)
        if self.real:
            a0 = a0.real
            rows = [(w, p.real, q.real) for w, p, q in rows]
        self.a0, self.rows = a0, tuple(rows)
        self.max_frequency = rows[-1][0] if rows else 0.0

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """a0 plus the terms, added one by one in row order.

        A zero a0 is not filled in and a unit coefficient is not multiplied
        by, with the bits of the full sum: 1 * x is x, and 0 + x is x except
        for x = -0.0.  So the first term is still added to a zero a0 unless
        it is a bare cosine of a real mask, never zero and already real.
        """
        total = np.full(s.shape, self.a0) if self.a0 else None
        for w, p, q in self.rows:
            phase = w * s
            for coef, wave in ((p, np.cos), (q, np.sin)):
                if not coef:
                    continue
                term = wave(phase) if coef == 1.0 else coef * wave(phase)
                if total is not None:
                    total += term
                elif coef == 1.0 and wave is np.cos and self.real:
                    total = term
                else:
                    total = term + self.a0
        return np.full(s.shape, self.a0) if total is None else total


def mask(eq: TwoScaleEquation, gamma):
    """Trigonometric mask m(gamma) = (1/lambda) sum_k c_k exp(-2 pi i beta_k gamma).

    Accepts a scalar or an ndarray of frequencies and returns a complex or
    a complex128 array.  The terms at +d and -d are summed as one cosine and
    one sine (see :class:`_FoldedMask`).
    """
    g = np.asarray(gamma, dtype=np.float64)
    total = _FoldedMask(eq)(g).astype(np.complex128)
    return complex(total) if np.isscalar(gamma) or g.ndim == 0 else total


def _fourier_product(eq: TwoScaleEquation, points: np.ndarray, tol: float) -> tuple:
    """Truncated products prod_{j<=J} m(gamma / lambda^j) of a normalized equation.

    Returns (values, depths, tails) at the 1-d float64 ``points``; values are
    float64 for a real folded mask.  From the folded rows (w_d, P_d, Q_d),
    |m(s) - 1| <= a1 |s| + a2 s^2 with a1 = sum |Q_d| w_d and
    a2 = sum |P_d| w_d^2 / 2, so past level J the deviations sum to at most
    S = b1 u + b2 u^2, u = |gamma| lambda^-J, b1 = a1 / (lambda - 1),
    b2 = a2 / (lambda^2 - 1), and the neglected product lies within
    expm1(S) of 1; a point's tail is |value| expm1(S).  Each point takes
    the least J >= 1 with S <= log1p(tol/2), formed from logarithms with u
    in units of 1/W, W = 2 pi max|beta|, so nothing overflows.  Points
    times the deepest J beyond GRID_BUDGET raise BudgetExceededError first.
    tails() forms the tails, at an exp and an expm1 per point, for the
    callers that report them.
    """
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    lam = eq.lam
    folded = _FoldedMask(eq)
    width = folded.max_frequency
    # the largest phase any level forms: W max|gamma| / lambda
    if not math.isfinite(width * (float(np.max(np.abs(points), initial=0.0)) / lam)):
        raise BadParameterError("frequencies too large: a mask phase 2 pi beta gamma overflows")
    b1 = b2 = 0.0
    for w, p, q in folded.rows:
        ratio = w / width
        b1 += abs(q) * ratio
        b2 += abs(p) * ratio * ratio / 2.0
    b1 /= lam - 1.0
    b2 /= (lam - 1.0) * (lam + 1.0)
    reach = _largest_phase(b1, b2, math.log1p(0.5 * tol))
    log_lam = math.log(lam)

    nonzero = points != 0.0
    depths = np.ones(points.size)
    if width:
        log_phase = np.log(np.abs(points[nonzero])) + math.log(width)  # log(W |gamma|)
        log_reach = math.log(reach) if reach else -math.inf
        depths[nonzero] = np.maximum(1.0, np.ceil((log_phase - log_reach) / log_lam))

    def tails() -> np.ndarray:
        bound = np.zeros(points.size)  # expm1(S), times |value| below
        if width:
            phase = np.exp(log_phase - depths[nonzero] * log_lam)  # W u at the depth
            bound[nonzero] = np.expm1(phase * (b1 + b2 * phase))
        bound *= np.abs(values)
        return bound

    max_depth = float(np.max(depths, initial=0.0))
    check_grid_budget(depths.size, max_depth, "levels")
    scaled = points.copy()
    # a real mask gives a real product: its imaginary part is exactly 0
    values = np.ones(points.size, dtype=np.float64 if folded.real else np.complex128)
    # level by level, each point's factors multiplied in one after another,
    # so its value does not depend on the other points
    for j in range(1, int(max_depth) + 1):
        active = depths >= j
        scaled[active] /= lam
        values[active] *= folded(scaled[active])
    values[~nonzero] = 1.0
    return values, depths, tails


def _largest_phase(b1: float, b2: float, cap: float) -> float:
    """Largest t >= 0 with b1 t + b2 t^2 <= cap, for b1, b2 >= 0."""
    if math.isinf(cap) or not (b1 or b2):
        return math.inf
    if not b1:
        return math.sqrt(cap / b2)
    # the positive root of b2 t^2 + b1 t - cap, in a form without cancellation
    return 2.0 * cap / (b1 + math.hypot(b1, 2.0 * math.sqrt(b2 * cap)))


def solve_fourier(eq: TwoScaleEquation, grid, tol: float) -> FourierProfile:
    """Evaluate the Fourier transform of the normalized solution on a grid.

    The transform is the infinite product of dilated masks
    ``prod_{j>=1} m(gamma / lambda^j)`` with value exactly 1 at gamma = 0.
    The truncation depth is chosen per point by a second-order rule on the
    folded mask (see :func:`_fourier_product`), so that the neglected tail
    factor differs from 1 by at most tol/2; the largest bound actually
    incurred, times the point's value, is recorded in ``tail_bound``.  Grid
    points times the deepest truncation beyond GRID_BUDGET raise
    BudgetExceededError before any factor is formed.
    """
    total = eq.coefficient_sum()
    if abs(total - eq.lam) > _NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"coefficient sum {total:g} differs from lambda={eq.lam:g}; "
            f"rescale coefficients by {eq.lam / abs(total):g} or abandon"
        )

    pts = np.asarray(grid, dtype=np.float64)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("grid must be strictly increasing")

    values, depths, tails = _fourier_product(eq, pts, tol)
    return FourierProfile(
        grid=pts.copy(),
        values=values.astype(np.complex128, copy=False),
        truncation_depth=int(np.max(depths)),
        tail_bound=float(np.max(tails())),
    )


class _Stencil:
    """Where np.interp(x, grid, fp, left=0.0, right=0.0) reads fp, for one nondecreasing x.

    ``grid`` is nondecreasing too.  The points of x inside [grid[0],
    grid[-1]] are x[start:stop].  Each is an exact hit, read as fp[j], when
    it equals grid[j] or is the last node; any other lies strictly between
    grid[j] and grid[j + 1] and is read as slope[j] * (x - grid[j]) +
    fp[j], with slope = diff(fp) / diff(grid): np.interp's search result
    and formula, in its order of operations.  The points outside read 0.
    When every point is a hit, ``hits`` reads them all: a slice where their
    nodes j step by one positive stride, else the index array j.
    """

    @staticmethod
    def inside(grid: np.ndarray, x: np.ndarray) -> tuple:
        """(start, stop) of the points of x in [grid[0], grid[-1]]."""
        return int(x.searchsorted(grid[0])), int(x.searchsorted(grid[-1], side="right"))

    def __init__(self, grid: np.ndarray, x: np.ndarray):
        self.start, self.stop = self.inside(grid, x)
        x = x[self.start : self.stop]
        j = grid.searchsorted(x, side="right") - 1
        hit = (j == grid.size - 1) | (grid[j] == x)
        line = np.flatnonzero(~hit)
        self.hit_at, self.hit_j = np.flatnonzero(hit), j[hit]
        self.line_at, self.line_j = line, j[line]
        self.line_dx = x[line] - grid[self.line_j]
        self.hits = None if line.size else j  # every point read at once
        if not line.size and j.size:
            stride = int(j[1] - j[0]) if j.size > 1 else 1
            if stride > 0 and (np.diff(j) == stride).all():
                self.hits = slice(int(j[0]), int(j[-1]) + 1, stride)

    def __call__(self, fp: np.ndarray, slope: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """The values at x[start:stop]: fp read at ``hits`` when every point
        is a hit, else written to ``out``, stop - start long, and returned."""
        if self.hits is not None:
            return fp[self.hits]
        out[self.hit_at] = fp[self.hit_j]
        out[self.line_at] = slope[self.line_j] * self.line_dx + fp[self.line_j]
        return out


def cascade_solve(
    eq: TwoScaleEquation,
    grid_resolution: float,
    iterations: int,
) -> tuple[SampledFunction, list]:
    """Fixed-point cascade iteration phi_{n+1}(x) = sum_k c_k phi_n(lambda x - beta_k).

    Iterates on a uniform grid over the normalized support, evaluating the
    dilated iterate by linear interpolation, with np.interp's values bit for
    bit (zero outside the grid).  Where each term's points lambda x - beta_k
    fall on the grid does not change between iterations, so it is searched
    once per term, into a :class:`_Stencil`.  A term whose points all hit
    nodes at one stride reads the iterate through a slice; where some term
    interpolates, an iteration forms the slopes once for all terms and
    replays np.interp's formula.  The terms accumulate through buffers
    allocated once.  The stencils are kept while their points, summed over
    the terms, fit GRID_BUDGET, and are otherwise built anew for each term
    in each iteration, so that what they hold at once stays bounded.
    Residuals are sup-norm differences between consecutive iterates; an
    iterate past the float range, which leaves a residual that is not
    finite, raises BadParameterError; growth by 10x over five
    consecutive iterations raises DivergingError (the signature of equations
    with no continuous fixed point).  For nonnegative real coefficients
    summing to lambda the final values are rescaled so the trapezoid
    integral equals 1.  A grid whose point count, or point count times
    iterations, exceeds GRID_BUDGET raises BudgetExceededError.
    """
    if not (math.isfinite(grid_resolution) and grid_resolution > 0.0):
        raise BadParameterError("grid resolution must be finite and positive")
    if iterations < 0:
        raise BadParameterError("iteration count must be nonnegative")
    total = eq.coefficient_sum()
    if abs(total - eq.lam) > _NORMALIZATION_TOL:
        raise NotNormalizedError(
            f"coefficient sum {total:g} differs from lambda={eq.lam:g}"
        )

    lo, hi = normalized_support(eq)
    if not (hi > lo):
        raise InvalidEquationError("cascade needs an equation with at least two terms")
    span = (hi - lo) / grid_resolution
    check_grid_budget(span + 1.0, iterations)
    count = int(math.ceil(span - 1.0e-12)) + 1
    grid = lo + grid_resolution * np.arange(count)

    real_coeffs = all(c.imag == 0.0 for c in eq.coefficients)
    real_nonneg = real_coeffs and all(c.real >= 0.0 for c in eq.coefficients)
    iter_terms = [
        ((c.real if real_coeffs else c), beta) for c, beta in eq.terms
    ]
    # the indicator of [lo, hi] with integral one, at its mean value on the
    # jumps: keeps the lattice dynamics from spawning spurious spikes where
    # dilated arguments hit the support endpoints exactly
    width = hi - lo
    values = np.full(grid.shape, 1.0 / width)
    values[0] = values[-1] = 0.5 / width
    if not real_coeffs:
        values = values.astype(np.complex128)

    if iterations == 0:
        return (
            SampledFunction(start=lo, step=grid_resolution, values=values, support=(lo, hi)),
            [],
        )

    def argument(beta: float) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow to +-inf lies outside the grid
            return eq.lam * grid - beta

    # one stencil per term, kept across the iterations when their points
    # fit the grid budget, else built anew in each iteration
    inside = 0
    for _, beta in iter_terms:
        start, stop = _Stencil.inside(grid, argument(beta))
        inside += stop - start
    kept = None
    if inside <= GRID_BUDGET:
        kept = [_Stencil(grid, argument(beta)) for _, beta in iter_terms]
    # slopes are formed only if some stencil interpolates; stencils built
    # anew in each iteration are not known ahead, so they always get them
    interpolates = kept is None or any(st.line_j.size for st in kept)
    step = np.diff(grid)
    coeffs = [c for c, _ in iter_terms]
    # the reads of the real and imaginary parts, each term's product c * read
    # (then the difference of two iterates), and the next iterate, which
    # takes turns with the current one
    reads = [np.empty(count) for _ in range(1 if real_coeffs else 2)]
    term = np.empty_like(values)
    spare = np.empty_like(values)

    residuals: list[float] = []
    # silent like np.interp: repeated nodes give slopes x / 0, which are
    # never read, and values past the float range are refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(iterations):
            # np.interp reads the real and imaginary parts of complex values apart
            parts = (values,) if real_coeffs else (values.real, values.imag)
            slopes = [np.diff(fp) / step for fp in parts] if interpolates else [None, None]
            stencils = kept if kept is not None else (
                _Stencil(grid, argument(beta)) for _, beta in iter_terms
            )
            new_values = spare
            new_values.fill(0.0)
            for c, stencil in zip(coeffs, stencils):
                size = stencil.stop - stencil.start
                product = term[:size]
                if real_coeffs:
                    np.multiply(c, stencil(values, slopes[0], reads[0][:size]), out=product)
                else:  # c * (re + 1j * im), in that order of operations
                    re, im = (
                        stencil(fp, slope, out[:size]) for fp, slope, out in zip(parts, slopes, reads)
                    )
                    np.multiply(1.0j, im, out=product)
                    np.add(re, product, out=product)
                    np.multiply(c, product, out=product)
                # outside the stencil the term adds c * 0, which changes
                # nothing: sums that start at +0.0 never reach -0.0
                new_values[stencil.start : stencil.stop] += product
            difference = np.subtract(new_values, values, out=term)
            residual = float(np.abs(difference, out=reads[0]).max())
            # any value past the float range makes the residual inf or nan
            if not math.isfinite(residual) and not np.isfinite(new_values).all():
                raise BadParameterError(
                    "cascade values leave the float range (coefficients times the "
                    "support's reciprocal width overflow)"
                )
            residuals.append(residual)
            spare, values = values, new_values
            if len(residuals) >= 6:
                recent = residuals[-6:]
                growing = all(b > a for a, b in zip(recent, recent[1:]))
                if growing and recent[-1] >= 10.0 * recent[0] > 0.0:
                    raise DivergingError(
                        "cascade residuals grew 10x over five consecutive iterations; "
                        "no continuous fixed point"
                    )

    if real_nonneg:
        integral = float(
            grid_resolution * (values.real.sum() - 0.5 * (values.real[0] + values.real[-1]))
        )
        if integral > 0.0:
            values = values / integral

    return (
        SampledFunction(start=lo, step=grid_resolution, values=values, support=(lo, hi)),
        residuals,
    )


_SUPERPOLYNOMIAL_SLOPE = -10.0


def estimate_regularity(profile: FourierProfile) -> tuple[float, SlopeFit]:
    """Heuristic regularity estimate from Fourier decay.

    Computes the typical magnitude M_d of |values| on each dyadic annulus
    2^d <= |gamma| < 2^(d+1) (geometric mean over the grid points there,
    exact zeros dropped) and fits log M_d against d log 2.  Under the
    heuristic decay model "typical |phi_hat| ~ |gamma|^-(1+mu)" the estimate
    is -slope - 1.  The log-average tracks the product structure of the
    transform far better than annulus peaks, which are dominated by the
    slowest-decaying mask orbit.  Slopes steeper than -10 are reported as
    the superpolynomial sentinel +inf.  This is an empirical diagnostic,
    not a bound.
    """
    # imported here, its one user, so that refinement loads without numerics
    from .numerics import loglog_slope

    magnitudes = np.abs(profile.values)
    abs_gamma = np.abs(profile.grid)
    gamma_max = float(np.max(abs_gamma))
    annuli: list[tuple] = []
    d = 0
    while 2.0 ** (d + 1) <= gamma_max:
        in_annulus = (abs_gamma >= 2.0**d) & (abs_gamma < 2.0 ** (d + 1))
        vals = magnitudes[in_annulus]
        vals = vals[vals > 0.0]
        if vals.size:
            annuli.append((2.0**d, float(np.exp(np.mean(np.log(vals))))))
        d += 1
    if len(annuli) < 4:
        raise InsufficientDecadesError(
            f"profile covers {len(annuli)} usable dyadic annuli; need at least 4"
        )
    fit = loglog_slope(annuli)
    if fit.slope < _SUPERPOLYNOMIAL_SLOPE:
        return math.inf, fit
    return -fit.slope - 1.0, fit


def preset(name: str, lam: float | None = None) -> TwoScaleEquation:
    """Named example equations.

    ``rham``: dilation 3 with coefficients (2/3, 1/3, 1, 1/3, 2/3) at
    offsets (-2, -1, 0, 1, 2); ``hat``: dilation 2 with (1/2, 1, 1/2) at
    (0, 1, 2); ``bernoulli``: two terms (lam/2, -1), (lam/2, 1) for a given
    dilation > 1, also writable inline as e.g. ``bernoulli(2)``.
    """
    key = name.strip().lower()
    if key.startswith("bernoulli(") and key.endswith(")"):
        try:
            lam = float(key[len("bernoulli(") : -1])
        except ValueError as exc:
            raise BadParameterError(f"cannot parse dilation in {name!r}") from exc
        key = "bernoulli"
    if key == "rham":
        return TwoScaleEquation(
            3.0,
            [
                (2.0 / 3.0, -2.0),
                (1.0 / 3.0, -1.0),
                (1.0, 0.0),
                (1.0 / 3.0, 1.0),
                (2.0 / 3.0, 2.0),
            ],
        )
    if key == "hat":
        return TwoScaleEquation(2.0, [(0.5, 0.0), (1.0, 1.0), (0.5, 2.0)])
    if key == "bernoulli":
        if lam is None:
            raise BadParameterError("bernoulli preset needs a dilation parameter")
        if not (lam > 1.0):
            raise BadParameterError("bernoulli preset needs dilation > 1")
        return TwoScaleEquation(lam, [(lam / 2.0, -1.0), (lam / 2.0, 1.0)])
    raise BadParameterError(f"unknown preset {name!r}")
