"""Finite wavelet systems: Gram matrices, numeric verdicts, certificates.

A system is a generator plus finitely many points (dilation, translation);
its elements are the dilated translates ``phi(dilation * x - translation)``.
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
from .generators import _TINY, GeneratorSpec, SampledGenerator, refuse_pairs
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

_UNIT_ROUNDOFF = 2.0**-53


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


# Sampled pairings run in blocks of at most this many candidate knots,
# window ends included (a pair with more forms a block of its own), so the
# temporaries of one pass stay bounded however many points the system has.
_KNOT_BLOCK = 2**13
# gram pairs a system's triangle this many entries at a time, which bounds
# the per-entry arrays of every pairing
_PAIR_CHUNK = 2**16
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


def _candidate_knots(gen: SampledGenerator, r, s, lo, hi) -> tuple:
    """First index and count of the candidate knots of each window, in two rows.

    Row 0 holds the grid knots t_k of the factor phi(y), row 1 the knots
    (t_k + s) / r of phi(r y - s).  The candidates are the grid indices
    between the clipped preimages of the window ends: every knot strictly
    inside the window, and a few on or past its ends, which _pair_block
    clips onto those ends.
    """
    start, step = gen.sampled.start, gen.sampled.step
    last = gen.values.size - 1
    # the preimages of lo and hi under each factor's argument y and r y - s
    index = np.clip((np.stack([lo, r * lo - s, hi, r * hi - s]) - start) / step, 0, last)
    first = np.floor(index[:2]).astype(np.int64)
    return first, np.ceil(index[2:]).astype(np.int64) - first + 1


def _pair_block(gen: SampledGenerator, r, s, lo, hi, first, count) -> tuple:
    """J(r, s) on [lo, hi] for one block of distinct keys, |product| at lo plus at hi,
    and the number of Simpson pieces.

    Rows 0 and 1 of first and count hold the candidate knots of phi(y) and
    of phi(r y - s) (see _candidate_knots).
    """
    m = lo.size
    # merged knots tagged (key index, position): complex numbers sort
    # lexicographically, and the four runs below (window starts, candidate knots
    # of phi(y), of phi(r y - s), window ends) are each sorted already, so a
    # stable (run-merging) sort puts every key's knots in order at once
    inner = m + int(count.sum())
    tagged = np.empty(inner + m, dtype=np.complex128)
    ids = np.arange(m)
    tagged.real[:m] = tagged.real[inner:] = ids
    tagged.imag[:m] = lo
    tagged.imag[inner:] = hi
    # the candidate knots, key by key, t_k then (t_k + s) / r, clipped into
    # the window: one on or past an end becomes that end and is dropped
    # below as a repeat of the end's tag
    counts = count.ravel()
    tagged.real[m:inner] = np.repeat(np.tile(ids, 2), counts)
    k = np.arange(inner - m) + np.repeat(first.ravel() - (np.cumsum(counts) - counts), counts)
    x = tagged.imag[m:inner]
    own = int(counts[:m].sum())
    x[:own] = gen.grid[k[:own]]
    np.add(gen.grid[k[own:]], np.repeat(s, count[1]), out=x[own:])
    np.divide(x[own:], np.repeat(r, count[1]), out=x[own:])
    np.maximum(x, np.repeat(np.tile(lo, 2), counts), out=x)
    np.minimum(x, np.repeat(np.tile(hi, 2), counts), out=x)
    tagged.sort(kind="stable")
    repeated = np.flatnonzero(tagged[1:] == tagged[:-1]) + 1
    knots = 2 + count.sum(axis=0) - np.bincount(tagged.real[repeated].astype(np.intp), minlength=m)
    ys = np.delete(tagged.imag, repeated)
    # pieces between consecutive knots; the piece that would straddle two
    # keys is made empty (its right end moved onto its left end) and left
    # out of the sums
    first = np.cumsum(knots) - knots
    last = first + knots - 1
    left = ys[:-1]
    width = ys[1:].copy()
    width[last[:-1]] = left[last[:-1]]
    mid = left + width
    mid *= 0.5
    width -= left
    at = [np.repeat(v, knots) for v in (r, s)]

    def product(y: np.ndarray, r, s) -> np.ndarray:
        # y lies inside both supports up to rounding, so np.interp clamps to
        # the end samples instead of dropping to zero just past a grid end
        g = np.interp(y, gen.grid, gen.values)
        u = r * y
        u -= s
        g *= np.interp(u, gen.grid, gen.values)
        return g

    g_knot = product(ys, *at)
    g = product(mid, *(v[:-1] for v in at))
    # Simpson: width / 6 * (g(left) + 4 g(mid) + g(right)), in that order
    g *= 4.0
    g += g_knot[:-1]
    g += g_knot[1:]
    width /= 6.0
    width *= g
    width[last[:-1]] = 0.0
    return _segment_fsums(width, first), np.abs(g_knot[first]) + np.abs(g_knot[last]), knots - 1


def _sampled_pairs(gen: SampledGenerator, lp, bp, lq, bq) -> tuple:
    """Exact pairings of many pairs of dilated translates of a linear interpolant.

    Each entry is (1/lambda_p) J(r, s), J(r, s) = int phi(y) phi(r y - s) dy,
    with p the point of smaller dilation (of the two of equal dilation, the
    one of smaller translation), r = lambda_q / lambda_p >= 1 and
    s = beta_q - r beta_p: the substitution y = lambda_p x - beta_p.  The
    entries with overlapping supports are keyed by (r, s), and J is formed
    once per distinct key (one np.unique), in blocks of at most _KNOT_BLOCK
    merged knots.  Between consecutive knots of the merged set
    {t_i} U {(t_i + s) / r} the product is quadratic, so Simpson's rule on
    each piece is exact, and J is the correctly rounded sum (math.fsum) of
    its pieces.  Every entry is, bit for bit, what pairing its own key
    alone and dividing by lambda_p gives.

    The error bound charges J's rounding by the one-pair formula at the
    points (1, 0) and (r, s): value rounding, and the slope times the
    rounding of the argument r y - s and of the knots and midpoints.  It
    adds the rounding of r and s, which moves r y - s by at most
    drift = reach dr + ds on the window and each window end by at most
    drift / r (slope times drift over the window, peak^2 times drift / r at
    the two ends; dr = 0 and r beta_p is exact when the dilations are a
    power of two apart), underflow, at _TINY per Simpson piece and per unit
    of window width, and the rounding of the division by lambda_p.
    Returns (values, error bounds) as float arrays, 0 for disjoint pairs.
    A pair whose key, windows or products leave the float range is a
    BadParameterError naming both points, in the caller's order.
    """
    s_lo, s_hi = gen.time_support()
    with np.errstate(over="ignore"):
        for lam, beta in ((lp, bp), (lq, bq)):
            # an element whose support in x reaches 2^1023 is out of float range
            far = np.maximum(np.abs(s_lo + beta), np.abs(s_hi + beta)) / lam
            bad = np.flatnonzero(~(far < 2.0**1023))
            if bad.size:
                raise BadParameterError(
                    f"point ({lam[bad[0]]:g}, {beta[bad[0]]:g}) maps the support out of float range"
                )
    caller = (lp, bp, lq, bq)
    swap = (lq < lp) | ((lq == lp) & (bq < bp))
    lp, lq = np.where(swap, lq, lp), np.where(swap, lp, lq)
    bp, bq = np.where(swap, bq, bp), np.where(swap, bp, bq)
    with np.errstate(over="ignore", invalid="ignore"):
        r = lq / lp
        shift = r * bp
        s = bq - shift
        lo_q, hi_q = (s_lo + s) / r, (s_hi + s) / r
    refuse_pairs(
        np.isfinite(lo_q) & np.isfinite(hi_q), *caller,
        "normalize to a key r = lambda_q / lambda_p, s = beta_q - r beta_p out of float range",
    )
    # the window in y, with Python's max and min: the first argument wins ties
    lo = np.where(lo_q > s_lo, lo_q, s_lo)
    hi = np.where(hi_q < s_hi, hi_q, s_hi)
    values = np.zeros(lo.size)
    errors = np.zeros(lo.size)
    live = np.flatnonzero(hi > lo)
    lp, bp, lq, bq, r, shift, s, lo, hi = (v[live] for v in (lp, bp, lq, bq, r, shift, s, lo, hi))
    key = np.empty(live.size, dtype=np.complex128)
    key.real, key.imag = r, s
    _, first_of, inverse = np.unique(key, return_index=True, return_inverse=True)
    kr, ks, klo, khi = r[first_of], s[first_of], lo[first_of], hi[first_of]
    # every product, Simpson sum, piece and partial sum of J is at most
    # 6 peak^2 (hi - lo) in size
    with np.errstate(over="ignore", invalid="ignore"):
        size = 6.0 * gen.peak * gen.peak * (khi - klo)
    refuse_pairs(
        np.isfinite(size)[inverse], *(v[live] for v in caller),
        "overlap where products of the sampled values leave the float range",
    )
    first, count = _candidate_knots(gen, kr, ks, klo, khi)
    pairing = np.empty(kr.size)
    end_values = np.empty(kr.size)
    pieces = np.empty(kr.size)
    merged = np.cumsum(2 + count.sum(axis=0))
    a = 0
    while a < kr.size:
        cap = merged[a - 1] + _KNOT_BLOCK if a else _KNOT_BLOCK
        b = max(a + 1, int(np.searchsorted(merged, cap, side="right")))
        pairing[a:b], end_values[a:b], pieces[a:b] = _pair_block(
            gen, kr[a:b], ks[a:b], klo[a:b], khi[a:b], first[:, a:b], count[:, a:b]
        )
        a = b
    reach = np.maximum(np.abs(klo), np.abs(khi))
    radius = max(abs(s_lo), abs(s_hi))
    # |r - r*| and |s - s*| against the exact key; r and r beta_p are exact
    # when the dilations differ by a power of two (equal mantissas)
    exact = np.frexp(lp)[0] == np.frexp(lq)[0]
    dr = np.where(exact, 0.0, _UNIT_ROUNDOFF * r)
    ds = np.where(exact, 0.0, _UNIT_ROUNDOFF * np.abs(shift) + dr * np.abs(bp))
    ds += _UNIT_ROUNDOFF * np.abs(s)
    # a bound past the float range is refused with its entry (_pair)
    with np.errstate(over="ignore", invalid="ignore"):
        slope_term = gen.lipschitz * (3.0 * (1.0 + kr) * reach + 2.0 * radius)
        edges = 2.0 * reach * end_values
        rounding = _UNIT_ROUNDOFF * (
            (khi - klo) * gen.peak * (16.0 * gen.peak + slope_term) + edges + np.abs(pairing)
        )
        # a subnormal product or piece rounds by up to 2^-1075, which costs
        # a piece of width w at most (w + 1) 2^-1075, a quarter of the charge
        rounding += _TINY * (pieces + (khi - klo))
        # on the window r y - s moves by at most drift = reach dr + ds, and
        # each of its two ends by at most drift / r
        drift = reach[inverse] * dr + ds
        moved = drift * gen.peak * (gen.lipschitz * (hi - lo) + 2.0 * gen.peak / r)
        value = pairing[inverse] / lp
        error = (rounding[inverse] + moved) / lp + _UNIT_ROUNDOFF * np.abs(value) + _TINY
    values[live], errors[live] = value, error
    return values, errors


def _pair(gen: GeneratorSpec, lp, bp, lq, bq, tol: float) -> tuple:
    """Pairings of gen's dilated translates at pairs of points (arrays lp, bp,
    lq, bq of the two points of each entry): (values, error bounds).

    A sampled generator pairs exactly on merged knots (_sampled_pairs).
    Every other generator pairs by its own ``pair``: a closed form (the
    Gaussian, the two-sided exponentials, every rational and the
    band-limited catalog entries), or for sech and log_exp_ratio a
    fixed-step rule in the Fourier domain (CatalogGenerator.pair).  Every
    bound is a priori, and only the fixed-step rules' depends on tol: no
    pairing calls adaptive quadrature.  Each entry depends on its own two
    points only, not on the others of the batch.  A tol that is not a
    positive number is a BadParameterError before any pairing runs, and so
    is an entry or bound past the float range, naming both points.
    """
    if not (tol > 0.0):  # NaN too; infinity passes
        raise BadParameterError(f"tol must be a positive number, not {tol!r}")
    if isinstance(gen, SampledGenerator):
        values, errors = _sampled_pairs(gen, lp, bp, lq, bq)
    else:
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
