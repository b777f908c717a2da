"""Finite wavelet systems: Gram matrices, numeric verdicts, certificates.

A system is a generator plus finitely many points (dilation, translation);
its elements are the dilated translates ``phi(dilation * x - translation)``,
which every generator pairs through its own ``pair`` (twoscale.generators).
Linear dependence in L2 is detected numerically through the spectrum of the
Gram matrix, and linear independence can additionally be certified
symbolically by matching the generator's property tags (derived from its
kind and parameters, declared only for sampled generators) and the point
geometry against a fixed rule table of independence theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameterError, BudgetExceededError, DuplicatePointError
from .generators import GeneratorSpec, refuse_pairs
# integrate_adaptive is not called here: benchmark/tracing.py wraps it under this name
from .numerics import hermitian_eigen, integrate_adaptive
from .refinement import GRID_BUDGET

__all__ = [
    "DEPENDENCE_THRESHOLD",
    "WaveletPoint",
    "WaveletSystem",
    "GramReport",
    "Certificate",
    "Verdict",
    "inner_product",
    "gram",
    "gram_report_from_matrix",
    "numeric_verdict",
    "certify",
    "analyze",
]

DEPENDENCE_THRESHOLD = 1.0e-8


@dataclass(frozen=True)
class WaveletPoint:
    dilation: float
    translation: float

    def __post_init__(self):
        if not (math.isfinite(self.dilation) and math.isfinite(self.translation)):
            raise BadParameterError("dilation and translation must be finite")
        if not (self.dilation > 0.0):
            raise BadParameterError("dilation must be positive")


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
            raise BadParameterError("a wavelet system needs at least one point")
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
    """Hermitian Gram matrix with its spectrum and the largest bound on the
    error of an entry (quad_error)."""

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


# gram pairs a system's triangle this many entries at a time, which bounds
# the per-entry arrays of every pairing
_PAIR_CHUNK = 2**16


def _pair(gen: GeneratorSpec, lp, bp, lq, bq, tol: float) -> tuple:
    """Pairings of gen's dilated translates at pairs of points (arrays lp, bp,
    lq, bq of the two points of each entry): (values, error bounds).

    Every generator pairs by its own ``pair`` (see twoscale.generators),
    with an a priori bound that only the fixed-step rules take from tol: no
    pairing calls adaptive quadrature.  Each entry depends on its own two
    points only, not on the others of the batch.  A tol that is not a
    positive number is a BadParameterError before any pairing runs, and so
    is an entry or bound past the float range, naming both points.
    """
    if not (tol > 0.0):  # NaN too; infinity passes
        raise BadParameterError(f"tol must be a positive number, not {tol!r}")
    values, errors = gen.pair(lp, bp, lq, bq, tol)
    refuse_pairs(
        np.isfinite(values) & np.isfinite(errors), lp, bp, lq, bq,
        lambda k: f"give a Gram entry out of float range: {values[k]:g} "
        f"with error bound {errors[k]:g}",
    )
    return values, errors


def inner_product(
    gen: GeneratorSpec, p: WaveletPoint, q: WaveletPoint, tol: float = 1.0e-10
) -> tuple:
    """L2 pairing of the dilated translates of gen at points p and q.

    Returns (value, error bound): the one-entry call of _pair, which gram
    runs on the whole triangle.
    """
    params = (np.array([v]) for v in (p.dilation, p.translation, q.dilation, q.translation))
    values, errors = _pair(gen, *params, tol)
    return complex(values[0]), float(errors[0])


def gram_report_from_matrix(matrix: np.ndarray, quad_error: float = 0.0) -> GramReport:
    """Spectral report for a Hermitian Gram matrix from any source."""
    mat = np.asarray(matrix, dtype=np.complex128)
    spectrum = hermitian_eigen(mat)
    eigenvalues = spectrum.eigenvalues
    sigma_min = max(0.0, float(eigenvalues[0]))
    sigma_max = float(eigenvalues[-1])
    if not (sigma_max > 0.0):
        raise BadParameterError("gram matrix has no positive spectrum; zero generator?")
    relative_gap = sigma_min / sigma_max
    null_vector = None
    if relative_gap <= 10.0 * DEPENDENCE_THRESHOLD:
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

    The upper triangle is filled by _pair, _PAIR_CHUNK entries at a time,
    and mirrored, so the matrix is Hermitian by construction and its
    entries and bounds are bit for bit those of inner_product; quad_error
    records the largest entrywise error bound.
    A system with more than GRID_BUDGET entries in its triangle is refused
    before anything is allocated for it.
    """
    n = len(system)
    entries = n * (n + 1) // 2
    if entries > GRID_BUDGET:
        raise BudgetExceededError(
            f"{n} points give {entries} Gram entries, beyond the budget of {GRID_BUDGET}"
        )
    gen = system.generator
    # the upper triangle row by row, as np.triu_indices(n) gives it, at a
    # third of its cost
    rows, cols = np.nonzero(~np.tri(n, k=-1, dtype=bool))
    lam = np.array([p.dilation for p in system.points])
    beta = np.array([p.translation for p in system.points])
    values = np.zeros(rows.size, dtype=np.complex128)
    errors = np.empty(rows.size)
    for start in range(0, rows.size, _PAIR_CHUNK):
        part = slice(start, start + _PAIR_CHUNK)
        i, j = rows[part], cols[part]
        values[part], errors[part] = _pair(gen, lam[i], beta[i], lam[j], beta[j], tol)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[rows, cols] = values
    matrix[cols, rows] = np.conjugate(values, out=values)
    # fmax skips a NaN bound, as a running max(worst, err) from 0 does
    return gram_report_from_matrix(matrix, quad_error=float(np.fmax.reduce(errors, initial=0.0)))


def numeric_verdict(report: GramReport) -> Verdict:
    """Classify a Gram report by its relative spectral gap.

    Dependent requires both a gap at or below DEPENDENCE_THRESHOLD and
    entry error bounds (quad_error) small enough to trust it; a 100x
    hysteresis band separates IndependentNumeric from Inconclusive.  These
    outcomes are numerical evidence, not proof.
    """
    gap = report.relative_gap
    budget_ok = report.quad_error <= 0.1 * report.sigma_max * DEPENDENCE_THRESHOLD
    if gap <= DEPENDENCE_THRESHOLD and budget_ok:
        return Verdict(outcome="Dependent", null_vector=report.null_vector, evidence=report)
    if gap >= 100.0 * DEPENDENCE_THRESHOLD:
        return Verdict(outcome="IndependentNumeric", evidence=report)
    return Verdict(outcome="Inconclusive", evidence=report)


def _extreme_count(points: Sequence[WaveletPoint], pick) -> int:
    """How many points have the dilation that pick (max or min) selects."""
    dilations = [p.dilation for p in points]
    return dilations.count(pick(dilations))


# Each row: rule id, citation, the generator tags it needs, and its point
# conditions as (checklist text, function of the points) pairs.
_RULE_TABLE = (
    (
        "ExpDecay_L31a",
        "faster than exponential decay and the support of phi is not compact",
        ("faster_than_exponential_decay", "noncompact_support"),
        (),
    ),
    (
        "PolyDecayMaxDilation_L31b",
        "faster than polynomial decay, noncompact support, and a unique "
        "strictly maximal dilation",
        ("faster_than_polynomial_decay", "noncompact_support"),
        (("unique strictly maximal dilation (ties disqualify)",
          lambda points: _extreme_count(points, max) == 1),),
    ),
    (
        "SmoothMinDilation_L31c",
        "phi in C-infinity with every derivative integrable and nonzero, and "
        "a unique strictly minimal dilation",
        ("smooth_all_derivs_L1",),
        (("unique strictly minimal dilation (ties disqualify)",
          lambda points: _extreme_count(points, min) == 1),),
    ),
    (
        "ThreePointSchwartz_C32",
        "every three point system generated by a nonzero Schwartz function "
        "is linearly independent",
        ("schwartz",),
        (("system has exactly three points (or trivially one)",
          lambda points: len(points) in (1, 3)),),
    ),
    (
        "FTVanishNearZero_L33i",
        "the Fourier transform vanishes on a neighborhood (-eps, eps) of zero",
        ("ft_vanishes_near_zero",),
        (),
    ),
    (
        "FTCompact_L33ii",
        "the Fourier transform is compactly supported",
        ("ft_compact_support",),
        (),
    ),
    (
        "UltimatelyDecreasingFT_T34",
        "nonzero Schwartz generator whose Fourier modulus is ultimately "
        "decreasing on both sides",
        ("schwartz", "ft_abs_ultimately_decreasing_both_sides"),
        (),
    ),
    (
        "LECombination_T42",
        "the Fourier transform is a complex linear combination of square "
        "integrable functions with logarithmico-exponential germs",
        ("ft_le_combination",),
        (),
    ),
)


def certify(system: WaveletSystem) -> Certificate | None:
    """Match the generator's tags and point geometry against the rule table.

    Rules are tried in a fixed priority order (cheapest and most general
    first) and the first rule whose whole checklist is satisfied wins; None
    means no rule applies and the caller should fall back to numerics.
    """
    tags = system.generator.tags
    for rule_id, citation, needed, point_checks in _RULE_TABLE:
        checklist = [(f"tag declared: {tag}", tag in tags) for tag in needed]
        checklist.extend((text, check(system.points)) for text, check in point_checks)
        if all(ok for _, ok in checklist):
            return Certificate(
                rule_id=rule_id,
                hypothesis_checklist=tuple(checklist),
                citation=citation,
            )
    return None


def analyze(system: WaveletSystem, tol: float = 1.0e-10) -> Verdict:
    """Certificate first, numerics second.

    A matched rule yields IndependentCertified without forming the Gram
    matrix; otherwise the Gram spectrum decides.
    """
    certificate = certify(system)
    if certificate is not None:
        return Verdict(outcome="IndependentCertified", certificate=certificate)
    report = gram(system, tol)
    return numeric_verdict(report)
