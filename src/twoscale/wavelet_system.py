"""Finite wavelet systems: Gram matrices, numeric verdicts, certificates.

A system is a generator plus finitely many points (dilation, translation);
its elements are the dilated translates ``phi(dilation * x - translation)``.
Linear dependence in L2 is detected numerically through the spectrum of the
Gram matrix, and linear independence can additionally be certified
symbolically by matching the generator's declared property tags and the
point geometry against a fixed rule table of independence theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicatePointError
from .generators import GeneratorSpec, Hat, SampledGenerator
from .numerics import hermitian_eigen, integrate_adaptive

__all__ = [
    "DEPENDENCE_THRESHOLD",
    "WaveletPoint",
    "WaveletSystem",
    "GramReport",
    "Certificate",
    "Verdict",
    "inner_product",
    "gaussian_gram_closed_form",
    "hat_gram_closed_form",
    "gram",
    "gram_report_from_matrix",
    "numeric_verdict",
    "certify",
    "analyze",
]

DEPENDENCE_THRESHOLD = 1.0e-8

_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class WaveletPoint:
    dilation: float
    translation: float

    def __post_init__(self):
        if not (math.isfinite(self.dilation) and math.isfinite(self.translation)):
            raise ValueError("dilation and translation must be finite")
        if not (self.dilation > 0.0):
            raise ValueError("dilation must be positive")


class WaveletSystem:
    """Generator plus pairwise-distinct points.

    Duplicate points are rejected here: a repeated row makes the Gram matrix
    singular for trivial reasons unrelated to the generator.
    """

    def __init__(self, generator: GeneratorSpec, points: Sequence[WaveletPoint]):
        pts = tuple(
            p if isinstance(p, WaveletPoint) else WaveletPoint(*p) for p in points
        )
        if not pts:
            raise ValueError("a wavelet system needs at least one point")
        seen = set()
        for p in pts:
            key = (p.dilation, p.translation)
            if key in seen:
                raise DuplicatePointError(f"duplicate point {key}")
            seen.add(key)
        self.generator = generator
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class GramReport:
    """Hermitian Gram matrix with its spectrum and quadrature error budget."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    sigma_min: float
    sigma_max: float
    relative_gap: float
    quad_error: float
    null_vector: np.ndarray | None


@dataclass(frozen=True)
class Certificate:
    """A matched independence rule with its hypothesis checklist."""

    rule_id: str
    hypothesis_checklist: tuple
    citation: str


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of an independence analysis.

    ``IndependentCertified`` carries a certificate; ``Dependent`` carries the
    numerically recovered null vector; numeric outcomes are evidence, not
    proof.
    """

    outcome: str
    certificate: Certificate | None = None
    null_vector: np.ndarray | None = None
    evidence: GramReport | None = None


def _sampled_pair(gen: SampledGenerator, p: WaveletPoint, q: WaveletPoint) -> tuple:
    """Exact pairing of two dilated translates of a linear interpolant.

    Between consecutive knots of the merged set {(t_i + beta) / lambda} of
    both factors the product is quadratic, so Simpson's rule on each piece
    is exact and the only error is rounding.  The bound charges every factor
    evaluation with its value rounding and with the slope times the rounding
    of its argument lambda x - beta (and of the knots and midpoints).
    """
    s_lo, s_hi = gen.time_support()
    lp, bp = p.dilation, p.translation
    lq, bq = q.dilation, q.translation
    lo = max((s_lo + bp) / lp, (s_lo + bq) / lq)
    hi = min((s_hi + bp) / lp, (s_hi + bq) / lq)
    if not (hi > lo):
        return 0.0 + 0.0j, 0.0
    start, step = gen.sampled.start, gen.sampled.step
    last = gen.values.size - 1
    knots = [np.array([lo, hi])]
    for lam, beta in ((lp, bp), (lq, bq)):
        # only the grid indices whose knots can fall inside the window
        first, stop = np.clip((np.array([lam * lo, lam * hi]) - beta - start) / step, 0, last)
        x = (start + step * np.arange(math.floor(first), math.ceil(stop) + 1) + beta) / lam
        knots.append(x[(x > lo) & (x < hi)])
    xs = np.unique(np.concatenate(knots))
    mid = 0.5 * (xs[:-1] + xs[1:])

    def product(x: np.ndarray) -> np.ndarray:
        # x lies inside both supports up to rounding, so np.interp clamps to
        # the end samples instead of dropping to zero just past a grid end
        return np.interp(lp * x - bp, gen.grid, gen.values) * np.interp(
            lq * x - bq, gen.grid, gen.values
        )

    g_knot = product(xs)
    g_mid = product(mid)
    value = math.fsum(np.diff(xs) / 6.0 * (g_knot[:-1] + 4.0 * g_mid + g_knot[1:]))
    reach = max(abs(lo), abs(hi))
    radius = max(abs(s_lo), abs(s_hi))
    slope_term = gen.lipschitz * (3.0 * (lp + lq) * reach + 2.0 * radius)
    edges = 2.0 * reach * float(abs(g_knot[0]) + abs(g_knot[-1]))
    error = _UNIT_ROUNDOFF * (
        (hi - lo) * gen.peak * (16.0 * gen.peak + slope_term) + edges + abs(value)
    )
    return complex(value, 0.0), error


def _geometric_edges(origins: Sequence[float], unit: float, lo: float, hi: float) -> list:
    """Each origin a and the points a +- unit * 2^k, k >= 0, out to the window.

    Panels then widen geometrically away from each factor's origin, so a
    product feature of width about ``unit`` cannot hide between the nodes
    of one panel spanning the whole truncation window.
    """
    edges = []
    for a in origins:
        reach = max(a - lo, hi - a)
        count = math.ceil(math.log2(reach) - math.log2(unit)) if reach > unit else 0
        steps = unit * 2.0 ** np.arange(count)
        edges.extend([a, *(a - steps), *(a + steps)])
    return edges


def inner_product(
    gen: GeneratorSpec, p: WaveletPoint, q: WaveletPoint, tol: float = 1.0e-10
) -> tuple:
    """L2 pairing of the dilated translates of gen at points p and q.

    Returns (value, error bound).  Sampled (piecewise-linear) generators pair
    exactly on the intersection of supports, with a rounding bound as the
    error.  Unbounded ones use a truncation window with an analytic tail
    bound folded into the reported error; in time the error also covers the
    rounding of lambda x - beta, as 4 eps (1 + |beta_p| + |beta_q|) times
    the integral of |product| (not of the product, which may cancel).
    Catalog generators defined through their Fourier transform pair in the
    Fourier domain instead.
    Declared kinks become quadrature breakpoints, and so do geometric edges
    around each factor's origin (beta / lambda in time, 0 in frequency) on
    the scale of the narrower factor.
    """
    if isinstance(gen, SampledGenerator):
        return _sampled_pair(gen, p, q)
    if gen.fourier_side:
        integrand = gen.ft_pair_integrand(p, q)
        lo, hi, tail = gen.ft_pair_window(p, q, tol)
        edges = [k * pt.dilation for k in gen.kinks for pt in (p, q)]
        edges += _geometric_edges((0.0,), min(p.dilation, q.dilation), lo, hi)
        rounding = 0.0
    else:
        integrand = gen.pair_integrand(p, q)
        lo, hi, tail = gen.pair_window(p, q, tol)
        edges = [(k + pt.translation) / pt.dilation for k in gen.kinks for pt in (p, q)]
        origins = (p.translation / p.dilation, q.translation / q.dilation)
        edges += _geometric_edges(origins, 1.0 / max(p.dilation, q.dilation), lo, hi)
        rounding = 8.0 * _UNIT_ROUNDOFF * (1.0 + abs(p.translation) + abs(q.translation))
    result = integrate_adaptive(integrand, lo, hi, 0.5 * tol, breakpoints=edges)
    return result.value, result.error_estimate + rounding * result.abs_integral + tail


def gaussian_gram_closed_form(points: Sequence[WaveletPoint]) -> np.ndarray:
    """Exact Gram matrix for the Gaussian generator exp(-x^2).

    Entry (p, q) is sqrt(pi / (lp^2 + lq^2)) * exp(-(lp bq - lq bp)^2 /
    (lp^2 + lq^2)); symmetric positive definite for distinct points.
    """
    pts = [p if isinstance(p, WaveletPoint) else WaveletPoint(*p) for p in points]
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            lp, bp = pts[i].dilation, pts[i].translation
            lq, bq = pts[j].dilation, pts[j].translation
            rate = lp * lp + lq * lq
            value = math.sqrt(math.pi / rate) * math.exp(-((lp * bq - lq * bp) ** 2) / rate)
            out[i, j] = value
            out[j, i] = value
    return out


def hat_gram_closed_form(points: Sequence[WaveletPoint]) -> np.ndarray:
    """Exact Gram matrix for the hat generator, entry by entry.

    Scalar reference for the vectorized pairing: products of two
    piecewise-linear factors are piecewise quadratic, so Simpson's rule on
    each interval between the kinks 0, 1, 2 of both factors is exact.
    """
    pts = [p if isinstance(p, WaveletPoint) else WaveletPoint(*p) for p in points]
    hat = Hat()
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            lp, bp = pts[i].dilation, pts[i].translation
            lq, bq = pts[j].dilation, pts[j].translation
            lo = max(bp / lp, bq / lq)
            hi = min((bp + 2.0) / lp, (bq + 2.0) / lq)
            if not (hi > lo):
                continue
            peaks = ((bp + 1.0) / lp, (bq + 1.0) / lq)
            xs = sorted({lo, hi, *(x for x in peaks if lo < x < hi)})
            pieces = []
            for a, b in zip(xs, xs[1:]):
                fa, fm, fb = (
                    float(hat(lp * x - bp) * hat(lq * x - bq)) for x in (a, 0.5 * (a + b), b)
                )
                pieces.append((b - a) / 6.0 * (fa + 4.0 * fm + fb))
            out[i, j] = out[j, i] = math.fsum(pieces)
    return out


def gram_report_from_matrix(
    matrix: np.ndarray,
    quad_error: float = 0.0,
    threshold: float = DEPENDENCE_THRESHOLD,
) -> GramReport:
    """Spectral report for a Hermitian Gram matrix from any source."""
    mat = np.asarray(matrix, dtype=np.complex128)
    spectrum = hermitian_eigen(mat)
    eigenvalues = spectrum.eigenvalues
    sigma_min = max(0.0, float(eigenvalues[0]))
    sigma_max = float(eigenvalues[-1])
    if not (sigma_max > 0.0):
        raise ValueError("gram matrix has no positive spectrum; zero generator?")
    relative_gap = sigma_min / sigma_max
    null_vector = None
    if relative_gap <= 10.0 * threshold:
        null_vector = spectrum.eigenvectors[:, 0].copy()
    return GramReport(
        matrix=mat,
        eigenvalues=eigenvalues,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        relative_gap=relative_gap,
        quad_error=float(quad_error),
        null_vector=null_vector,
    )


def gram(system: WaveletSystem, tol: float = 1.0e-10) -> GramReport:
    """Gram matrix of the system.

    The upper triangle is filled entry by entry and mirrored, so the matrix
    is Hermitian by construction; quad_error records the largest entrywise
    error bound.
    """
    n = len(system)
    matrix = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            value, err = inner_product(system.generator, system.points[i], system.points[j], tol)
            matrix[i, j] = value
            matrix[j, i] = np.conj(value)
            worst = max(worst, err)
    return gram_report_from_matrix(matrix, quad_error=worst)


def numeric_verdict(report: GramReport, threshold: float = DEPENDENCE_THRESHOLD) -> Verdict:
    """Classify a Gram report by its relative spectral gap.

    Dependent requires both a gap at or below the threshold and a quadrature
    budget small enough to trust it; a 100x hysteresis band separates
    IndependentNumeric from Inconclusive.  These outcomes are numerical
    evidence, not proof.
    """
    if not (threshold > 0.0):
        raise ValueError("threshold must be positive")
    gap = report.relative_gap
    budget_ok = report.quad_error <= 0.1 * report.sigma_max * threshold
    if gap <= threshold and budget_ok:
        return Verdict(outcome="Dependent", null_vector=report.null_vector, evidence=report)
    if gap >= 100.0 * threshold:
        return Verdict(outcome="IndependentNumeric", evidence=report)
    return Verdict(outcome="Inconclusive", evidence=report)


def _unique_strict_extremum(dilations: Sequence[float], largest: bool) -> bool:
    target = max(dilations) if largest else min(dilations)
    return sum(1 for d in dilations if d == target) == 1


_RULE_TABLE = (
    (
        "ExpDecay_L31a",
        "faster than exponential decay and the support of phi is not compact",
        ("faster_than_exponential_decay", "noncompact_support"),
        None,
    ),
    (
        "PolyDecayMaxDilation_L31b",
        "faster than polynomial decay, noncompact support, and a unique "
        "strictly maximal dilation",
        ("faster_than_polynomial_decay", "noncompact_support"),
        "max",
    ),
    (
        "SmoothMinDilation_L31c",
        "phi in C-infinity with every derivative integrable and nonzero, and "
        "a unique strictly minimal dilation",
        ("smooth_all_derivs_L1",),
        "min",
    ),
    (
        "ThreePointSchwartz_C32",
        "every three point system generated by a nonzero Schwartz function "
        "is linearly independent",
        ("schwartz",),
        "card3",
    ),
    (
        "FTVanishNearZero_L33i",
        "the Fourier transform vanishes on a neighborhood (-eps, eps) of zero",
        ("ft_vanishes_near_zero",),
        None,
    ),
    (
        "FTCompact_L33ii",
        "the Fourier transform is compactly supported",
        ("ft_compact_support",),
        None,
    ),
    (
        "UltimatelyDecreasingFT_T34",
        "nonzero Schwartz generator whose Fourier modulus is ultimately "
        "decreasing on both sides",
        ("schwartz", "ft_abs_ultimately_decreasing_both_sides"),
        None,
    ),
    (
        "LECombination_T42",
        "the Fourier transform is a complex linear combination of square "
        "integrable functions with logarithmico-exponential germs",
        ("ft_le_combination",),
        None,
    ),
)


def _structural_checks(condition: str | None, points: Sequence[WaveletPoint]) -> list:
    if condition is None:
        return []
    dilations = [p.dilation for p in points]
    if condition == "max":
        return [
            (
                "unique strictly maximal dilation (ties disqualify)",
                _unique_strict_extremum(dilations, largest=True),
            )
        ]
    if condition == "min":
        return [
            (
                "unique strictly minimal dilation (ties disqualify)",
                _unique_strict_extremum(dilations, largest=False),
            )
        ]
    if condition == "card3":
        return [("system has exactly three points (or trivially one)", len(points) in (1, 3))]
    raise AssertionError(condition)


def certify(system: WaveletSystem) -> Certificate | None:
    """Match declared generator tags and point geometry against the rule table.

    Rules are tried in a fixed priority order (cheapest and most general
    first) and the first rule whose whole checklist is satisfied wins; None
    means no rule applies and the caller should fall back to numerics.
    """
    tags = system.generator.tags
    for rule_id, citation, needed, condition in _RULE_TABLE:
        checklist = [(f"tag declared: {tag}", tag in tags) for tag in needed]
        checklist.extend(_structural_checks(condition, system.points))
        if all(ok for _, ok in checklist):
            return Certificate(
                rule_id=rule_id,
                hypothesis_checklist=tuple(checklist),
                citation=citation,
            )
    return None


def analyze(system: WaveletSystem, tol: float = 1.0e-10) -> Verdict:
    """Certificate first, numerics second.

    A matched rule yields IndependentCertified without any quadrature;
    otherwise the Gram spectrum decides.
    """
    certificate = certify(system)
    if certificate is not None:
        return Verdict(outcome="IndependentCertified", certificate=certificate)
    report = gram(system, tol)
    return numeric_verdict(report)
