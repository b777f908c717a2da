"""Numerical kernels.

Adaptive Gauss-Kronrod quadrature of one integral over a finite interval,
bisecting in rounds with one integrand call per round; a dense Hermitian
eigensolver (LAPACK through numpy); and least-squares slope fitting in
log-log coordinates.

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

    value is real for a real integrand and complex for a complex one, and
    evaluations counts the integrand's nodes.
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


def _kronrod_panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """G7/K15 (value, error, integral of |f|) on each panel, by one call of f.

    A non-finite integrand value is a ValueError naming the first node (in
    panel order) where one occurs.  A real integrand is summed in float64, a
    complex one in complex128.  ``sum(axis=1)`` fixes the summation order,
    which a BLAS dot would not.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    fx = np.asarray(f(x.ravel()))
    fx = fx.astype(np.complex128 if np.iscomplexobj(fx) else np.float64, copy=False)
    fx = fx.reshape(x.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        raise ValueError(f"non-finite integrand value near x={x[~finite][0]!r}")
    value = h * (fx * _WK).sum(axis=1)
    err = np.abs(value - h * (fx * _WG).sum(axis=1))
    resabs = np.abs(h) * (np.abs(fx) * _WK).sum(axis=1)
    resasc = np.abs(h) * (np.abs(fx - (value / (hi - lo))[:, None]) * _WK).sum(axis=1)
    # resasc * min(1, (200 err / resasc)^1.5), the ratio formed only below 1
    small = 200.0 * err < resasc
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=small)
    err = np.where(resasc != 0.0, resasc * ratio**1.5, err)
    return value, np.maximum(err, 4.0 * _EPS * resabs), resabs


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_evals: int = 10**6,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    Bisection in rounds with a fixed 7/15-point Gauss-Kronrod rule per
    panel.  A round bisects every panel whose error estimate exceeds its
    share tol * width / (b - a), or, if none does, every panel with a
    nonzero estimate; panels narrower than 8 eps max(|x|, 1) stay whole.
    Each round evaluates its new panels by one call of f on a 1-D array of
    their nodes, which f maps to an array of the same shape; the left
    halves come first, then the right ones.  The selection depends on no
    ordering and ``math.fsum`` is correctly rounded, so results are
    reproducible bit for bit.  A real f is integrated in float64 and gives
    a real value; an f that is complex in any round gives a complex one.

    ``breakpoints`` seeds the initial panel set with interior edges (known
    kinks, or a geometric splitting of very wide intervals whose content
    would otherwise hide between the nodes of one coarse panel).  An edge
    within the bisection floor of the last edge kept, or of b, would seed a
    panel too narrow to evaluate and is dropped.

    Raises ValueError unless a < b, b - a is finite and tol > 0, or at a
    non-finite integrand value; NonConvergenceError if the next round would
    exceed max_evals evaluations, or if no panel that could lower the
    estimate can be split.
    """
    if not (a < b):
        raise ValueError("integration bounds must satisfy a < b")
    if not math.isfinite(float(b) - float(a)):
        raise ValueError("integration bounds must be finite, with b - a in float range")
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    a, b, tol = float(a), float(b), float(tol)
    edges = [a]
    for x in sorted({float(x) for x in breakpoints if a < x < b}):
        if min(x - edges[-1], b - x) > 8.0 * _EPS * max(abs(x), 1.0):
            edges.append(x)
    edges.append(b)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    value, err, resabs = _kronrod_panels(f, lo, hi)
    evaluations = _NODES.size * lo.size
    while (total := math.fsum(err.tolist())) > tol:
        width = hi - lo
        splittable = width > 8.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        split = splittable & (err > tol * width / (b - a))
        if not split.any():
            split = splittable & (err > 0.0)
        count = int(np.count_nonzero(split))
        if count == 0:
            raise NonConvergenceError(f"quadrature stalled at error {total:.3e} > tol {tol:.3e}")
        if evaluations + 2 * _NODES.size * count > max_evals:
            raise NonConvergenceError(
                f"evaluation budget {max_evals} exhausted at error {total:.3e} > tol {tol:.3e}"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err, new_resabs = _kronrod_panels(f, new_lo, new_hi)
        evaluations += _NODES.size * new_lo.size
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])
        resabs = np.concatenate([resabs[keep], new_resabs])
    if np.iscomplexobj(value):
        total_value = complex(math.fsum(value.real.tolist()), math.fsum(value.imag.tolist()))
    else:
        total_value = math.fsum(value.tolist())
    return QuadratureResult(
        value=total_value,
        error_estimate=total,
        abs_integral=math.fsum(resabs.tolist()),
        evaluations=evaluations,
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
