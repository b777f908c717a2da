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

from .errors import BadParameterError, BudgetExceededError, DuplicatePointError
from .generators import GeneratorSpec, SampledGenerator
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


# Sampled pairings run in blocks of at most this many candidate knots,
# window ends included (a pair with more forms a block of its own), so the
# temporaries of one pass stay bounded however many points the system has.
_KNOT_BLOCK = 2**13
# gram pairs a sampled or closed-form system's triangle this many entries at
# a time, which bounds the per-entry arrays of the window test as well
_PAIR_CHUNK = 2**16
# and an unbounded generator's this many, which bounds the panels that one
# batch of quadratures holds at once
_QUADRATURE_CHUNK = 2**6
# exact splitting passes before the per-entry fsum; for segments of a few
# thousand pieces, three leave no remainder on pieces within a factor of
# about 2^60 of the segment's largest
_EXTRACTIONS = 3


def _segment_fsums(pieces: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """math.fsum of each segment pieces[starts[s]:starts[s + 1]], with fewer addends.

    Each pass splits every piece into a multiple of eps * sigma, where the
    power of two sigma is at least (n + 2) times the segment's largest piece,
    and an exact remainder.  The n multiples then add up exactly in any
    order (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008, ExtractVector),
    so a segment reaches fsum as its pass sums plus the few nonzero
    remainders: the same exact total, hence the same correctly rounded sum
    (fsum skips zeros of either sign).  Blocks with a non-finite piece go to
    fsum as they are.
    """
    rest = pieces.copy()
    count = np.diff(np.append(starts, pieces.size))
    heads = []
    if np.isfinite(pieces).all():
        headroom = np.ceil(np.log2(count + 2.0)).astype(np.int64)
        for _ in range(_EXTRACTIONS):
            if not rest.any():
                break
            exponent = np.frexp(np.maximum.reduceat(np.abs(rest), starts))[1] + headroom
            # sigma must be finite and the grid eps * sigma a float
            usable = (exponent >= -1021) & (exponent <= 1023)
            sigma = np.repeat(np.ldexp(1.0, np.where(usable, exponent, 0)), count)
            part = np.where(np.repeat(usable, count), (sigma + rest) - sigma, 0.0)
            rest -= part
            heads.append(np.add.reduceat(part, starts))
    heads = np.array(heads).T.tolist() if heads else [[] for _ in starts]
    kept = np.flatnonzero(rest)
    tails = rest[kept].tolist()
    bounds = np.searchsorted(kept, np.append(starts, pieces.size)).tolist()
    return np.array([math.fsum(h + tails[i:j]) for h, i, j in zip(heads, bounds, bounds[1:])])


def _candidate_knots(gen: SampledGenerator, lams, betas, lo, hi) -> tuple:
    """First index and count of the candidate knots (t_k + beta) / lam of each window.

    lams and betas hold one row per factor; first and count come back in the
    same shape.  The candidates are the grid indices between the clipped
    preimages of the window ends: every knot strictly inside the window,
    and a few on or past its ends, which _pair_block clips onto those ends.
    """
    start, step = gen.sampled.start, gen.sampled.step
    last = gen.values.size - 1
    first = np.floor(np.clip((lams * lo - betas - start) / step, 0, last)).astype(np.int64)
    final = np.ceil(np.clip((lams * hi - betas - start) / step, 0, last)).astype(np.int64)
    return first, final - first + 1


def _pair_block(gen: SampledGenerator, lams, betas, lo, hi, first, count) -> tuple:
    """Values of one block of overlapping pairs, and |product| at lo plus at hi.

    Row 0 of lams, betas, first, count holds the p factors, row 1 the q ones.
    """
    m = lo.size
    # merged knots keyed by (pair, position): complex numbers sort
    # lexicographically, and the four runs below (window starts, candidate knots
    # of p, of q, window ends) are each sorted already, so a stable
    # (run-merging) sort puts every pair's knots in order at once
    inner = m + int(count.sum())
    keys = np.empty(inner + m, dtype=np.complex128)
    pairs = np.arange(m)
    keys.real[:m] = keys.real[inner:] = pairs
    keys.imag[:m] = lo
    keys.imag[inner:] = hi
    # the candidate knots (t_k + beta) / lam, pair by pair, p factors then q,
    # clipped into the window: one on or past an end becomes that end and is
    # dropped below as a repeat of the end's key
    counts = count.ravel()
    keys.real[m:inner] = np.repeat(np.tile(pairs, 2), counts)
    k = np.arange(inner - m) + np.repeat(first.ravel() - (np.cumsum(counts) - counts), counts)
    x = keys.imag[m:inner]
    np.add(gen.grid[k], np.repeat(betas.ravel(), counts), out=x)
    np.divide(x, np.repeat(lams.ravel(), counts), out=x)
    np.maximum(x, np.repeat(np.tile(lo, 2), counts), out=x)
    np.minimum(x, np.repeat(np.tile(hi, 2), counts), out=x)
    keys.sort(kind="stable")
    repeated = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    knots = 2 + count.sum(axis=0) - np.bincount(keys.real[repeated].astype(np.intp), minlength=m)
    xs = np.delete(keys.imag, repeated)
    # pieces between consecutive knots; the piece that would straddle two
    # pairs is made empty (its right end moved onto its left end) and left
    # out of the sums
    first = np.cumsum(knots) - knots
    last = first + knots - 1
    left = xs[:-1]
    width = xs[1:].copy()
    width[last[:-1]] = left[last[:-1]]
    mid = left + width
    mid *= 0.5
    width -= left
    at = [np.repeat(v, knots) for v in (lams[0], betas[0], lams[1], betas[1])]

    def product(x: np.ndarray, lam_p, beta_p, lam_q, beta_q) -> np.ndarray:
        # x lies inside both supports up to rounding, so np.interp clamps to
        # the end samples instead of dropping to zero just past a grid end
        u = lam_p * x
        u -= beta_p
        g = np.interp(u, gen.grid, gen.values)
        np.multiply(lam_q, x, out=u)
        u -= beta_q
        g *= np.interp(u, gen.grid, gen.values)
        return g

    g_knot = product(xs, *at)
    g = product(mid, *(v[:-1] for v in at))
    # Simpson: width / 6 * (g(left) + 4 g(mid) + g(right)), in that order
    g *= 4.0
    g += g_knot[:-1]
    g += g_knot[1:]
    width /= 6.0
    width *= g
    width[last[:-1]] = 0.0
    return _segment_fsums(width, first), np.abs(g_knot[first]) + np.abs(g_knot[last])


def _sampled_pairs(gen: SampledGenerator, lp, bp, lq, bq, tol: float) -> tuple:
    """Exact pairings of many pairs of dilated translates of a linear interpolant.

    Between consecutive knots of the merged set {(t_i + beta) / lambda} of
    both factors the product is quadratic, so Simpson's rule on each piece
    is exact and the only error is rounding.  The bound charges every factor
    evaluation with its value rounding and with the slope times the rounding
    of its argument lambda x - beta (and of the knots and midpoints).

    One array test finds the pairs whose supports overlap; only those are
    paired, in blocks of at most _KNOT_BLOCK merged knots, and each value is
    the correctly rounded sum (math.fsum) of its pieces.  Returns (values,
    error bounds) as float arrays, 0 for disjoint pairs; tol is not used.
    """
    s_lo, s_hi = gen.time_support()
    with np.errstate(over="ignore"):
        lo_p, lo_q = (s_lo + bp) / lp, (s_lo + bq) / lq
        hi_p, hi_q = (s_hi + bp) / lp, (s_hi + bq) / lq
    for window_lo, window_hi, lam, beta in ((lo_p, hi_p, lp, bp), (lo_q, hi_q, lq, bq)):
        bad = np.flatnonzero(~(np.isfinite(window_lo) & np.isfinite(window_hi)))
        if bad.size:
            raise BadParameterError(
                f"point ({lam[bad[0]]:g}, {beta[bad[0]]:g}) maps the support out of float range"
            )
    # the window, with Python's max and min: the first argument wins ties
    lo = np.where(lo_q > lo_p, lo_q, lo_p)
    hi = np.where(hi_q < hi_p, hi_q, hi_p)
    values = np.zeros(lo.size)
    errors = np.zeros(lo.size)
    live = np.flatnonzero(hi > lo)
    lams, betas = np.stack([lp, lq])[:, live], np.stack([bp, bq])[:, live]
    lo, hi = lo[live], hi[live]
    first, count = _candidate_knots(gen, lams, betas, lo, hi)
    value = np.empty(live.size)
    end_values = np.empty(live.size)
    merged = np.cumsum(2 + count.sum(axis=0))
    a = 0
    while a < live.size:
        cap = merged[a - 1] + _KNOT_BLOCK if a else _KNOT_BLOCK
        b = max(a + 1, int(np.searchsorted(merged, cap, side="right")))
        value[a:b], end_values[a:b] = _pair_block(
            gen, lams[:, a:b], betas[:, a:b], lo[a:b], hi[a:b], first[:, a:b], count[:, a:b]
        )
        a = b
    lp, lq = lams
    reach = np.maximum(np.abs(lo), np.abs(hi))
    radius = max(abs(s_lo), abs(s_hi))
    values[live] = value
    # a bound past the float range is an infinite bound, as in scalar arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        slope_term = gen.lipschitz * (3.0 * (lp + lq) * reach + 2.0 * radius)
        edges = 2.0 * reach * end_values
        errors[live] = _UNIT_ROUNDOFF * (
            (hi - lo) * gen.peak * (16.0 * gen.peak + slope_term) + edges + np.abs(value)
        )
    return values, errors


def _closed_form_pairs(gen: GeneratorSpec, lp, bp, lq, bq, tol: float) -> tuple:
    """Pairings of a generator with a closed form (GeneratorSpec.pair_closed_form).

    The error bounds cover rounding only, whatever tol asks; an entry or a
    bound past the float range is a BadParameterError naming both points.
    """
    values, errors = gen.pair_closed_form(lp, bp, lq, bq)
    bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(errors)))
    if bad.size:
        k = bad[0]
        raise BadParameterError(
            f"points ({lp[k]:g}, {bp[k]:g}) and ({lq[k]:g}, {bq[k]:g}) give a Gram entry "
            f"out of float range: {values[k]:g} with error bound {errors[k]:g}"
        )
    return values, errors


def _quadrature_pairs(gen: GeneratorSpec, lp, bp, lq, bq, tol: float) -> tuple:
    """Pairings of an unbounded generator at pairs of points, by one batch of quadratures."""
    integrand, lo, hi, edges, rounding, tail = gen.pair_quadrature(lp, bp, lq, bq, tol)
    result = integrate_adaptive(integrand, lo, hi, 0.5 * tol, breakpoints=edges)
    return result.value, result.error_estimate + rounding * result.abs_integral + tail


def _pairing(gen: GeneratorSpec) -> tuple:
    """The kernel that pairs gen's dilated translates, and how many entries it takes at once.

    Every kernel maps (gen, lp, bp, lq, bq, tol), with arrays of the two
    points of each entry, to (values, error bounds).  Sampled generators
    pair exactly on merged knots; generators with a closed form
    (``gen.closed_form``) pair by it; the others (sech, log_exp_ratio and
    rationals with clustered poles) by batched adaptive quadrature.
    """
    if isinstance(gen, SampledGenerator):
        return _sampled_pairs, _PAIR_CHUNK
    if gen.closed_form:
        return _closed_form_pairs, _PAIR_CHUNK
    return _quadrature_pairs, _QUADRATURE_CHUNK


def inner_product(
    gen: GeneratorSpec, p: WaveletPoint, q: WaveletPoint, tol: float = 1.0e-10
) -> tuple:
    """L2 pairing of the dilated translates of gen at points p and q.

    Returns (value, error bound).  Sampled (piecewise-linear) generators pair
    exactly on the intersection of supports, and generators with a closed
    form by it; both report a rounding bound as the error.  The others are
    integrated adaptively on a truncation window, with the tail bound and,
    in time, the rounding of lambda x - beta folded into the error (see
    GeneratorSpec.pair_quadrature); catalog generators defined through
    their Fourier transform pair in the Fourier domain.  This is the
    one-pair call of the kernel that gram runs on the whole matrix.
    """
    params = (np.array([v]) for v in (p.dilation, p.translation, q.dilation, q.translation))
    kernel, _ = _pairing(gen)
    values, errors = kernel(gen, *params, tol)
    return complex(values[0]), float(errors[0])


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


def _gram_matrix(system: WaveletSystem, tol: float) -> tuple:
    """Hermitian Gram matrix of the system and its largest entry error bound.

    The upper triangle is filled and mirrored, in batched passes of the
    generator's pairing kernel (see _pairing).  A system with more than
    GRID_BUDGET entries in its triangle is refused before anything is
    allocated for it.
    """
    n = len(system)
    entries = n * (n + 1) // 2
    if entries > GRID_BUDGET:
        raise BudgetExceededError(
            f"{n} points give {entries} Gram entries, beyond the budget of {GRID_BUDGET}"
        )
    gen = system.generator
    kernel, chunk = _pairing(gen)
    rows, cols = np.triu_indices(n)
    lam = np.array([p.dilation for p in system.points])
    beta = np.array([p.translation for p in system.points])
    values = np.zeros(rows.size, dtype=np.complex128)
    errors = np.empty(rows.size)
    for start in range(0, rows.size, chunk):
        part = slice(start, start + chunk)
        i, j = rows[part], cols[part]
        values[part], errors[part] = kernel(gen, lam[i], beta[i], lam[j], beta[j], tol)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[rows, cols] = values
    matrix[cols, rows] = np.conjugate(values, out=values)
    # fmax skips a NaN bound, as a running max(worst, err) from 0 does
    return matrix, float(np.fmax.reduce(errors, initial=0.0))


def gram(system: WaveletSystem, tol: float = 1.0e-10) -> GramReport:
    """Gram matrix of the system.

    The upper triangle is filled and mirrored, so the matrix is Hermitian by
    construction; quad_error records the largest entrywise error bound.
    """
    matrix, worst = _gram_matrix(system, tol)
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
