"""Symmetric Bernoulli convolution approximants.

The contraction ``alpha in (0, 1)`` parameterizes the compactly supported
probability measure solving ``phi(x) = (lambda/2)(phi(lambda x - 1) +
phi(lambda x + 1))`` with ``lambda = 1/alpha``; equivalently the law of the
random series ``sum_{j>=1} (+-1) alpha^j`` with fair independent signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParameterError
from .refinement import _fourier_product, check_grid_budget, preset

__all__ = [
    "BernoulliModel",
    "DensityHistogram",
    "SmoothnessVerdict",
    "threshold",
    "smoothness_verdict",
    "fourier",
    "density",
]

# sign bits summed into the sorted tail; the rest are prefix bits
_TAIL_BITS = 20
# largest number of (prefix, edge) searches made at once
_CHUNK = 2**_TAIL_BITS


@dataclass(frozen=True)
class BernoulliModel:
    """Contraction ratio alpha = 1/lambda of the two-term equation."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise BadParameterError(
                f"alpha must lie in (0, 1); the dilation regime lambda < 1 "
                f"(alpha >= 1) is out of scope (got alpha={self.alpha!r})"
            )

    @property
    def lam(self) -> float:
        return 1.0 / self.alpha

    def support_radius(self) -> float:
        return self.alpha / (1.0 - self.alpha)


@dataclass(frozen=True, eq=False)
class DensityHistogram:
    """Exact dyadic-weight histogram of the depth-truncated sign series.

    Bins are half-open [left, right) with the last bin closed, matching
    numpy's histogram convention; an atom exactly on an interior edge lands
    in the bin opening at that edge.  Masses are counts times 2^-depth, so
    they sum to exactly 1.  Truncation at ``depth`` displaces each atom by
    at most alpha^(depth+1)/(1-alpha), recorded as ``positional_error``.
    """

    bin_edges: np.ndarray
    masses: np.ndarray
    depth: int
    positional_error: float

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


class SmoothnessVerdict(str, Enum):
    RULED_OUT = "RuledOut"
    UNKNOWN = "Unknown"


def threshold(n: int) -> float:
    """Contraction cutoff 2^(-1/(n+1)) below which no C^n solution exists."""
    if n < 0:
        raise BadParameterError("smoothness order must be nonnegative")
    # -1 / (n + 1) divides the integers exactly: a float n + 1 would overflow for huge n
    return 2.0 ** (-1 / (n + 1))


def smoothness_verdict(alpha: float, n: int) -> SmoothnessVerdict:
    """RuledOut iff alpha < threshold(n); no claim is made above it.

    The cutoff is strict, so equality classifies as Unknown.
    """
    if not (0.0 < alpha < 1.0):
        raise BadParameterError("alpha must lie in (0, 1)")
    if alpha < threshold(n):
        return SmoothnessVerdict.RULED_OUT
    return SmoothnessVerdict.UNKNOWN


def fourier(model: BernoulliModel, gamma, tol: float):
    """Characteristic function: truncated product of cos(2 pi alpha^j gamma).

    The Fourier product of ``refinement.preset("bernoulli", 1/alpha)``, whose
    mask is cos(2 pi s), under ``solve_fourier``'s depth rule: the neglected
    factors' product is within tol/2 of 1.  The result is real because the
    measure is symmetric.  Accepts a scalar or an ndarray of frequencies;
    each point's value depends on that point alone.  Points times the
    deepest truncation beyond the grid budget raise BudgetExceededError.
    """
    g = np.asarray(gamma, dtype=np.float64)
    values = _fourier_product(preset("bernoulli", model.lam), g.ravel(), tol)[0]
    return float(values[0]) if g.ndim == 0 else values.reshape(g.shape)


def _sign_sums(alpha: float, exponents: range) -> np.ndarray:
    """All 2^len(exponents) values of sum_j (+-1) alpha^j, ordered by sign bits.

    Formed in place in one array: after the sums over the first k exponents
    fill sums[:n], n = 2^k, the next term makes sums[n:2n] = sums[:n] + term
    and then sums[:n] -= term.
    """
    sums = np.zeros(2 ** len(exponents))
    n = 1
    for j in exponents:
        term = alpha**j
        np.add(sums[:n], term, out=sums[n : 2 * n])
        sums[:n] -= term
        n *= 2
    return sums


def _prefix_offsets(terms: list, start: int, stop: int) -> np.ndarray:
    """Sums of +-terms[b] for prefixes start..stop-1, bit b the sign of terms[b].

    Each offset starts at 0.0 and adds its terms in bit order, as a scalar
    loop over the bits would.
    """
    index = np.arange(start, stop)
    offsets = np.zeros(index.size)
    for bit, term in enumerate(terms):
        offsets += np.where((index >> bit) & 1, term, -term)
    return offsets


def _count_below(tail: np.ndarray, offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """#{t in tail : fl(o + t) < e} for each pair of broadcast offset o and target e.

    ``tail`` is sorted.  fl(o + t) is monotone in t, so the atoms below e
    are a leading run of the tail: binary search for e - o gives its length
    up to rounding, and stepping until the float test agrees makes it exact.
    """
    index = tail.searchsorted(targets - offsets)
    last = tail.size
    while True:
        down = (index > 0) & (offsets + tail[np.maximum(index - 1, 0)] >= targets)
        up = (index < last) & (offsets + tail[np.minimum(index, last - 1)] < targets)
        if not (down.any() or up.any()):
            return index
        index += up
        index -= down


def _symmetric_edges(radius: float, bins: int) -> np.ndarray:
    idx = np.arange(bins + 1, dtype=np.float64) - bins / 2.0
    edges = idx * (2.0 * radius / bins)
    edges[0] = -radius
    edges[-1] = radius
    return edges


def density(model: BernoulliModel, depth: int, bins: int) -> DensityHistogram:
    """Exact counts of the depth-truncated sign series, binned.

    Each of the 2^depth sign patterns has weight 2^-depth, so the masses are
    exact dyadic rationals.  The deepest 20 terms are summed into a sorted
    tail once; every atom is fl(o + t) for a prefix offset o over the other
    terms and a tail sum t, and the atoms of one prefix below each edge are
    counted by a search of the tail, with the comparisons np.histogram would
    make.  That is 2^(depth - 20) prefixes x (bins + 1) edges searches,
    which must fit the grid budget, or BudgetExceededError is raised before
    anything is allocated.
    """
    if depth < 1:
        raise BadParameterError("depth must be positive")
    if bins < 1:
        raise BadParameterError("bin count must be positive")
    tail_bits = min(depth, _TAIL_BITS)
    prefix_bits = depth - tail_bits
    # a depth too large to form 2^prefix_bits is past any budget
    prefixes = 2**prefix_bits if prefix_bits <= 64 else math.inf
    check_grid_budget(bins + 1, prefixes, "prefix sums")

    alpha = model.alpha
    radius = model.support_radius()
    edges = _symmetric_edges(radius, bins)
    # x <= e iff x < next float above e, so the closed last edge is a strict one too
    targets = edges.copy()
    targets[-1] = np.nextafter(targets[-1], np.inf)

    # sums over the deepest tail_bits exponents, reused for every prefix
    tail = _sign_sums(alpha, range(prefix_bits + 1, depth + 1))
    tail.sort()
    terms = [alpha**j for j in range(1, prefix_bits + 1)]

    # below[k]: atoms under edge k (at or under the last one); np.histogram's
    # counts are the differences
    below = np.zeros(bins + 1, dtype=np.int64)
    rows = max(1, _CHUNK // targets.size)
    cols = min(targets.size, _CHUNK)
    for start in range(0, prefixes, rows):
        offsets = _prefix_offsets(terms, start, min(start + rows, prefixes))[:, None]
        for left in range(0, targets.size, cols):
            block = targets[None, left : left + cols]
            below[left : left + cols] += _count_below(tail, offsets, block).sum(axis=0)
    counts = np.diff(below)

    weight = 2.0 ** (-depth)
    masses = counts * weight
    positional_error = alpha ** (depth + 1) / (1.0 - alpha)
    return DensityHistogram(
        bin_edges=edges,
        masses=masses,
        depth=depth,
        positional_error=positional_error,
    )
