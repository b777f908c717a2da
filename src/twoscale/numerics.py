"""Numerical kernels.

Adaptive Gauss-Kronrod quadrature on finite intervals, bisecting in rounds,
for one integral or for many whose rounds share blocked integrand calls; a
dense Hermitian eigensolver (LAPACK through numpy); and least-squares slope
fitting in log-log coordinates.

All kernels are deterministic: node sets and summation orders are fixed,
so identical inputs produce bit-identical outputs.  They are also
pure and reentrant; nothing here holds shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateWindowError, NonConvergenceError, NotHermitianError

__all__ = [
    "QuadratureResult",
    "HermitianSpectrum",
    "SlopeFit",
    "integrate_adaptive",
    "hermitian_eigen",
    "loglog_slope",
]

_EPS = float(np.finfo(np.float64).eps)

# Quadrature evaluates at most this many panels per integrand call: 3,840
# nodes, whose real temporaries (30 KiB each; 60 KiB for a complex
# integrand) stay below glibc's 128 KiB mmap threshold and so reuse heap
# pages instead of faulting in fresh ones.
_PANEL_BLOCK = 256

# 7/15-point Gauss-Kronrod pair on [-1, 1].  Positive abscissae listed
# outermost first; Gauss nodes are the even-indexed Kronrod ones.
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK_HALF = (
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG_HALF = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_NODES = np.array([-x for x in _XGK_HALF[:7]] + [0.0] + [x for x in reversed(_XGK_HALF[:7])])
_WK = np.array(list(_WGK_HALF[:7]) + [_WGK_HALF[7]] + list(reversed(_WGK_HALF[:7])))
_WG = np.zeros(15)
for _i, _w in zip((1, 3, 5, 7), _WG_HALF):
    _WG[_i] = _w
    _WG[14 - _i] = _w


@dataclass(frozen=True)
class QuadratureResult:
    """Value, rigorous-ish error estimate, integral of |f|, and cost of one integration.

    value is real for a real integrand and complex for a complex one.  For
    a batch, value, error_estimate and abs_integral are arrays with one
    entry per integral, and evaluations counts the nodes of all of them.
    """

    value: float | complex
    error_estimate: float
    abs_integral: float
    evaluations: int


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Full eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is ascending; column ``k`` of ``eigenvectors`` belongs to
    ``eigenvalues[k]`` and the columns are orthonormal.
    """

    dimension: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (ln x, ln y) samples."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple


def _kronrod_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> tuple:
    """G7/K15 (value, error, integral of |f|) on each panel, by one call of f.

    Also returns, for each integral with a non-finite value on these panels,
    the first node (in panel order) where one occurs; those values are taken
    as 0 so that the others compute without warnings.  A real integrand is
    summed in float64, a complex one in complex128.  ``sum(axis=1)`` fixes
    the summation order, which a BLAS dot would not.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    fx = np.asarray(f(x.ravel(), np.repeat(owner, _NODES.size)))
    fx = fx.astype(np.complex128 if np.iscomplexobj(fx) else np.float64, copy=False)
    fx = fx.reshape(x.shape)
    finite = np.isfinite(fx)
    bad = {}
    if not finite.all():
        for row in np.flatnonzero(~finite.all(axis=1)).tolist():
            bad.setdefault(int(owner[row]), x[row][~finite[row]][0])
        fx = np.where(finite, fx, 0.0)
    value = h * (fx * _WK).sum(axis=1)
    err = np.abs(value - h * (fx * _WG).sum(axis=1))
    resabs = np.abs(h) * (np.abs(fx) * _WK).sum(axis=1)
    resasc = np.abs(h) * (np.abs(fx - (value / (hi - lo))[:, None]) * _WK).sum(axis=1)
    # resasc * min(1, (200 err / resasc)^1.5), the ratio formed only below 1
    small = 200.0 * err < resasc
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=small)
    err = np.where(resasc != 0.0, resasc * ratio**1.5, err)
    return value, np.maximum(err, 4.0 * _EPS * resabs), resabs, bad


def _evaluate(f: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, failed: dict) -> tuple:
    """Kronrod panels in blocks of at most _PANEL_BLOCK, one call of f each.

    An integral with a non-finite integrand value is entered in ``failed``
    with the error it raises alone.  The values take the dtype of the first
    block, complex128 as soon as a block is complex.
    """
    value = np.empty(lo.size)
    err = np.empty(lo.size)
    resabs = np.empty(lo.size)
    for start in range(0, lo.size, _PANEL_BLOCK):
        part = slice(start, start + _PANEL_BLOCK)
        block, err[part], resabs[part], bad = _kronrod_panels(f, lo[part], hi[part], owner[part])
        if np.iscomplexobj(block) and not np.iscomplexobj(value):
            value = value.astype(np.complex128)
        value[part] = block
        for k, x in bad.items():
            failed.setdefault(k, ValueError(f"non-finite integrand value near x={x!r}"))
    return value, err, resabs


def _seed_panels(a: np.ndarray, b: np.ndarray, points: np.ndarray, owner: np.ndarray) -> tuple:
    """Initial panels: each [a_k, b_k] cut at its breakpoints, in ascending order.

    An edge within the bisection floor of its left neighbour (the last edge
    kept) or of b_k would seed a panel too narrow to evaluate; such edges
    are dropped.  Returns lo, hi and the integral of each panel.
    """
    m = a.size
    mine = owner < m
    x, o = points[mine], owner[mine]
    inside = (a[o] < x) & (x < b[o])
    x, o = x[inside], o[inside]
    order = np.lexsort((x, o))
    x, o = x[order], o[order]
    fresh = np.ones(x.size, dtype=bool)
    fresh[1:] = (x[1:] != x[:-1]) | (o[1:] != o[:-1])
    x, o = x[fresh], o[fresh]
    left = np.empty_like(x)
    left[1:] = x[:-1]
    first = np.ones(x.size, dtype=bool)
    first[1:] = o[1:] != o[:-1]
    left[first] = a[o[first]]
    floor = 8.0 * _EPS * np.maximum(np.abs(x), 1.0)
    keep = (x - left > floor) & (b[o] - x > floor)
    # with every edge kept, each left neighbour is the previous edge; where
    # one is dropped, the rule is applied in order again
    for k in sorted(set(o[~keep].tolist())):
        last, end = float(a[k]), float(b[k])
        for i in np.flatnonzero(o == k).tolist():
            xi = float(x[i])
            keep[i] = min(xi - last, end - xi) > 8.0 * _EPS * max(abs(xi), 1.0)
            if keep[i]:
                last = xi
    every = np.arange(m)
    edges = np.concatenate([a, x[keep], b])
    edge_owner = np.concatenate([every, o[keep], every])
    order = np.lexsort((edges, edge_owner))
    edges, edge_owner = edges[order], edge_owner[order]
    same = edge_owner[1:] == edge_owner[:-1]
    return edges[:-1][same], edges[1:][same], edge_owner[:-1][same]


def _fsum(pieces: np.ndarray, k: int, failed: dict) -> float:
    """math.fsum of pieces; an overflow, or +inf with -inf, fails integral k (nan)."""
    try:
        return math.fsum(pieces.tolist())
    except (OverflowError, ValueError) as exc:
        failed.setdefault(k, exc)
        return math.nan


def _integrate_many(
    f: Callable,
    a: np.ndarray,
    b: np.ndarray,
    tol: np.ndarray,
    max_evals: int,
    points: np.ndarray,
    point_owner: np.ndarray,
) -> QuadratureResult:
    """The rounds of integrate_adaptive for m integrals at once.

    The panels of all integrals live in flat arrays, with the index of each
    panel's integral (its owner).  Restricted to one integral they keep the
    order it has alone, since each round appends the left halves and then
    the right halves to the panels it keeps.  An integral leaves the arrays
    when its total error is within its tol (its sums are taken then) or
    when it fails; once integral k has failed, later integrals cannot change
    the outcome and leave too.  The error raised is that of the lowest
    failed integral, which is the error it raises alone.
    """
    m = a.size
    failed: dict = {}
    for k in np.flatnonzero(~(a < b)).tolist():
        failed[k] = ValueError("integration bounds must satisfy a < b")
    for k in np.flatnonzero(~(tol > 0.0)).tolist():
        failed.setdefault(k, ValueError("tolerance must be positive"))
    limit = min(failed, default=m)
    span = b - a
    lo, hi, owner = _seed_panels(a[:limit], b[:limit], points, point_owner)
    value, err, resabs = _evaluate(f, lo, hi, owner, failed)
    evaluations = _NODES.size * np.bincount(owner, minlength=m)
    out_value = np.zeros(m, dtype=value.dtype)
    out_error = np.zeros(m)
    out_abs = np.zeros(m)
    running = np.zeros(m, dtype=bool)
    running[:limit] = True
    while True:
        # every failed integral is at or above the lowest one
        running[min(failed, default=m) :] = False
        live = running[owner]
        if not live.all():
            lo, hi, owner, value, err, resabs = (
                v[live] for v in (lo, hi, owner, value, err, resabs)
            )
        if not owner.size:
            break
        # a float sum of n terms >= 0 lies within a factor 1 +- 2 n eps of the
        # exact sum: integrals this far above tol skip the correctly rounded
        # sum, which is taken once they may have converged
        count = np.bincount(owner, minlength=m)
        rough = np.bincount(owner, weights=err, minlength=m)
        above = (rough * (1.0 - 2.0 * _EPS * count) > tol) & (rough > 1e-290) & (rough < 1e290)
        if np.iscomplexobj(value) and not np.iscomplexobj(out_value):
            out_value = out_value.astype(np.complex128)
        for k in np.flatnonzero(running & ~above).tolist():
            mine = owner == k
            total = _fsum(err[mine], k, failed)
            if not (total > tol[k]) and k not in failed:
                # the sums an integral takes alone, in its order
                real = _fsum(value.real[mine], k, failed)
                if np.iscomplexobj(value) and k not in failed:
                    out_value[k] = complex(real, _fsum(value.imag[mine], k, failed))
                else:
                    out_value[k] = real
                out_abs[k] = _fsum(resabs[mine], k, failed) if k not in failed else 0.0
                out_error[k] = total
                running[k] = False
        running[min(failed, default=m) :] = False
        width = hi - lo
        splittable = width > 8.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        split = splittable & (err > tol[owner] * width / span[owner])
        count = np.bincount(owner[split], minlength=m)
        idle = running & (count == 0)
        if idle.any():
            split = np.where(idle[owner], splittable & (err > 0.0), split)
            count = np.bincount(owner[split], minlength=m)
        stuck = running & ((count == 0) | (evaluations + 2 * _NODES.size * count > max_evals))
        if stuck.any():  # only the lowest can be reported
            k = int(np.argmax(stuck))
            total = math.fsum(err[owner == k].tolist())
            if count[k] == 0:
                message = f"quadrature stalled at error {total:.3e} > tol {tol[k]:.3e}"
            else:
                message = (
                    f"evaluation budget {max_evals} exhausted at error {total:.3e} "
                    f"> tol {tol[k]:.3e}"
                )
            failed[k] = NonConvergenceError(message)
            running[k:] = False
        rows = running[owner]
        grow, keep = rows & split, rows & ~split
        mid = 0.5 * (lo[grow] + hi[grow])
        halves = owner[grow]
        new_lo = np.concatenate([lo[grow], mid])
        new_hi = np.concatenate([mid, hi[grow]])
        new_owner = np.concatenate([halves, halves])
        new_value, new_err, new_resabs = _evaluate(f, new_lo, new_hi, new_owner, failed)
        evaluations += _NODES.size * np.bincount(new_owner, minlength=m)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        owner = np.concatenate([owner[keep], new_owner])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])
        resabs = np.concatenate([resabs[keep], new_resabs])
    if failed:
        raise failed[min(failed)]
    return QuadratureResult(
        value=out_value,
        error_estimate=out_error,
        abs_integral=out_abs,
        evaluations=int(evaluations.sum()),
    )


def integrate_adaptive(
    f: Callable,
    a: float | np.ndarray,
    b: float | np.ndarray,
    tol: float | np.ndarray,
    *,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] | tuple | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol; or many integrals at once.

    Bisection in rounds with a fixed 7/15-point Gauss-Kronrod rule per
    panel.  A round bisects every panel whose error estimate exceeds its
    share tol * width / (b - a), or, if none does, every panel with a
    nonzero estimate; panels narrower than 8 eps max(|x|, 1) stay whole.
    All new panels of a round are evaluated by calls of f on 1-D arrays of
    the nodes of at most _PANEL_BLOCK panels each, which f maps to arrays of
    the same shape.  The selection depends on no ordering and ``math.fsum``
    is correctly rounded, so results are reproducible bit for bit.

    ``breakpoints`` seeds the initial panel set with interior edges (known
    kinks, or a geometric splitting of very wide intervals whose content
    would otherwise hide between the nodes of one coarse panel).

    With arrays a, b (and tol, or a scalar tol for all) of m integrals, each
    integral follows the rules above on its own, with its own budget, and
    the rounds of all of them share the calls of f: f(x, owner) gets the
    index of each node's integral as well.  ``breakpoints`` is then a pair
    of flat arrays (points, index of each point's integral).  The result
    holds arrays of m values, error estimates and integrals of |f|, each bit
    for bit what the integral gives alone, and the total evaluations.  One
    integral (scalar a, b, tol and f(x)) is the batch of one.  A real f is
    integrated in float64 and gives real values; a complex f, complex ones.

    Raises NonConvergenceError if the next round would exceed max_evals
    evaluations, or if no panel that could lower the estimate can be split;
    of several failing integrals, the lowest-numbered one's error is raised.
    """
    if np.ndim(a) == 0:
        points = np.array([float(x) for x in breakpoints or ()], dtype=np.float64)
        batch = _integrate_many(
            lambda x, owner: f(x),
            np.array([a], dtype=np.float64),
            np.array([b], dtype=np.float64),
            np.array([tol], dtype=np.float64),
            max_evals,
            points,
            np.zeros(points.size, dtype=np.intp),
        )
        return QuadratureResult(
            value=batch.value[0].item(),
            error_estimate=float(batch.error_estimate[0]),
            abs_integral=float(batch.abs_integral[0]),
            evaluations=batch.evaluations,
        )
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    points, point_owner = breakpoints if breakpoints is not None else ((), ())
    return _integrate_many(
        f,
        a,
        b,
        np.broadcast_to(np.asarray(tol, dtype=np.float64), a.shape),
        max_evals,
        np.asarray(points, dtype=np.float64),
        np.asarray(point_owner, dtype=np.intp),
    )


def hermitian_eigen(a: np.ndarray) -> HermitianSpectrum:
    """Eigendecompose a dense Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    The input is symmetrized before decomposition; a relative asymmetry above
    1e-8 raises NotHermitianError.  Eigenvalues come back ascending with
    matching orthonormal eigenvector columns.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    n = mat.shape[0]
    if n == 0:
        raise ValueError("expected a nonempty matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")

    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(mat))
        asym = float(np.linalg.norm(mat - mat.conj().T))
    if not (math.isfinite(fro) and math.isfinite(asym)):
        # squares of entries beyond about 1e154 overflow: scale them first
        scale = float(np.max(np.abs(mat)))
        fro = float(np.linalg.norm(mat / scale))
        asym = float(np.linalg.norm((mat - mat.conj().T) / scale))
    if fro > 0.0 and asym > 1.0e-8 * fro:
        raise NotHermitianError(
            f"relative asymmetry {asym / fro:.3e} exceeds 1e-8"
        )

    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return HermitianSpectrum(dimension=n, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def loglog_slope(samples: Sequence[tuple]) -> SlopeFit:
    """Fit a least-squares line through (ln x, ln y).

    The slope is the fitted decay exponent of y ~ x^slope.  Requires at least
    four samples with strictly increasing positive abscissae; a nonpositive
    ordinate raises DegenerateWindowError (callers must pre-filter zeros).
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < 4:
        raise ValueError("need at least 4 samples for a slope fit")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if not (x1 > x0):
            raise ValueError("abscissae must be strictly increasing")
    if pts[0][0] <= 0.0:
        raise ValueError("abscissae must be positive")
    if any(y <= 0.0 for _, y in pts):
        raise DegenerateWindowError("nonpositive ordinate in fit window")

    window = tuple((math.log(x), math.log(y)) for x, y in pts)
    n = len(window)
    mean_x = math.fsum(lx for lx, _ in window) / n
    mean_y = math.fsum(ly for _, ly in window) / n
    sxx = math.fsum((lx - mean_x) ** 2 for lx, _ in window)
    sxy = math.fsum((lx - mean_x) * (ly - mean_y) for lx, ly in window)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = math.fsum((ly - mean_y) ** 2 for _, ly in window)
    ss_res = math.fsum(
        (ly - (intercept + slope * lx)) ** 2 for lx, ly in window
    )
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r_squared, window=window)
