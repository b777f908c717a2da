import math

import numpy as np

from twoscale.generators import Hat, SampledGenerator
from twoscale.refinement import SampledFunction
from twoscale.wavelet_system import WaveletPoint


def smooth_bump_generator(tags=("schwartz",), count=4097):
    """C-infinity bump exp(-1/(1-x^2)) on (-1, 1), sampled and tagged."""
    xs = np.linspace(-1.0, 1.0, count)
    values = np.zeros(count)
    interior = np.abs(xs) < 1.0
    values[interior] = np.exp(-1.0 / (1.0 - xs[interior] ** 2))
    sampled = SampledFunction(
        start=-1.0, step=2.0 / (count - 1), values=values, support=(-1.0, 1.0)
    )
    return SampledGenerator(sampled, extra_tags=tags)


def gaussian_gram_closed_form(points) -> np.ndarray:
    """Exact Gram matrix for the Gaussian generator exp(-x^2), entry by entry.

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


def hat_gram_closed_form(points) -> np.ndarray:
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
