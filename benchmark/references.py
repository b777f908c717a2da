"""Reference values computed without twoscale.

Every function here works from the wire-format documents and the
mathematics of the problem alone: closed forms where they exist, Simpson's
rule on merged knots for piecewise-linear generators (exact for their
piecewise-quadratic products), ``scipy.integrate.quad`` at a tolerance 100x
finer than the command's, products of masks or cosines taken to full depth,
and brute-force enumeration for densities.  ``test_references.py`` tests
each one against a second method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# rounding allowance for the closed forms and the exact Simpson pairing
EXACT_ERR = 1.0e-13
QUAD_REFINEMENT = 100.0


# ------------------------------------------------------------ closed forms


def gaussian_entry(p, q) -> float:
    """<exp(-(lp x - bp)^2), exp(-(lq x - bq)^2)>."""
    (lp, bp), (lq, bq) = p, q
    rate = lp * lp + lq * lq
    return math.sqrt(math.pi / rate) * math.exp(-((lp * bq - lq * bp) ** 2) / rate)


def two_sided_exp_entry(n: int, p, q) -> float:
    """<exp(-n|lp x - bp|), exp(-n|lq x - bq|)>, integrated piece by piece.

    Between and beyond the two kinks b/l the product is exp(a x + c) with
    constant a and c, which integrates in closed form.
    """
    (lp, bp), (lq, bq) = p, q
    k1, k2 = sorted((bp / lp, bq / lq))
    total = 0.0
    for lo, hi in ((-math.inf, k1), (k1, k2), (k2, math.inf)):
        if not hi > lo:
            continue
        probe = hi - 1.0 if lo == -math.inf else (lo + 1.0 if hi == math.inf else 0.5 * (lo + hi))
        sp = 1.0 if lp * probe - bp > 0.0 else -1.0
        sq = 1.0 if lq * probe - bq > 0.0 else -1.0
        a = -n * (sp * lp + sq * lq)
        c = n * (sp * bp + sq * bq)
        if a == 0.0:
            total += math.exp(c) * (hi - lo)
        elif lo == -math.inf:
            total += math.exp(a * hi + c) / a
        elif hi == math.inf:
            total -= math.exp(a * lo + c) / a
        else:
            total += (math.exp(a * hi + c) - math.exp(a * lo + c)) / a
    return total


def cauchy_entry(p, q) -> float:
    """<1/(1 + (lp x - bp)^2), 1/(1 + (lq x - bq)^2)> in closed form.

    Each factor is pi/l times a Cauchy density with location b/l and scale
    1/l; the integral of a product of two Cauchy densities is the Cauchy
    density of their difference at 0.
    """
    (lp, bp), (lq, bq) = p, q
    scale = 1.0 / lp + 1.0 / lq
    shift = bp / lp - bq / lq
    return (math.pi / lp) * (math.pi / lq) * scale / (math.pi * (scale * scale + shift * shift))


def ft_box_entry(p, q) -> float:
    """Entry of the generator whose Fourier transform is the indicator of
    [-1/2, 1/2]: sin(pi s m) / (pi s lp lq) with m = min(lp, lq) and
    s = bp/lp - bq/lq (the entry is real)."""
    (lp, bp), (lq, bq) = p, q
    m = min(lp, lq)
    s = bp / lp - bq / lq
    if s == 0.0:
        return m / (lp * lq)
    return math.sin(math.pi * s * m) / (math.pi * s * lp * lq)


def sech_equal_dilation_entry(lam: float, bp: float, bq: float) -> float:
    """<sech(pi(l x - bp)), sech(pi(l x - bq))> = 2d / (l sinh(pi d)), d = bp - bq."""
    d = bp - bq
    if d == 0.0:
        return 2.0 / (math.pi * lam)
    return 2.0 * d / (lam * math.sinh(math.pi * d))


# ------------------------------------------------------------ generators


def sech_pi(x):
    """sech(pi x), without overflow."""
    e = np.exp(-math.pi * np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def rational_inverse_square(x):
    return 1.0 / (1.0 + np.square(x))


def ft_log_exp_ratio(g):
    """g ln|g| / (e^g + e^-g), 0 at g = 0, without overflow."""
    g = np.asarray(g, dtype=np.float64)
    a = np.abs(g)
    e = np.exp(-a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g * np.log(a) * e / (1.0 + e * e)
    return np.where(a == 0.0, 0.0, out)


def ft_box(g):
    return np.where(np.abs(g) <= 0.5, 1.0, 0.0)


def ft_annulus_tent(g):
    return np.maximum(0.0, 1.0 - 2.0 * np.abs(np.abs(g) - 1.5))


# ------------------------------------------------------------ quadrature


def _quad_pieces(f, edges, tol) -> tuple:
    """scipy quad over consecutive edges; (value, summed error estimate)."""
    value, error = 0.0, 0.0
    pieces = len(edges) - 1
    for lo, hi in zip(edges, edges[1:]):
        v, e = integrate.quad(f, lo, hi, epsabs=tol / pieces, epsrel=0.0, limit=1000)
        value += v
        error += e
    return value, error


def time_quad_entry(f, p, q, tol: float) -> tuple:
    """scipy quad of f(lp x - bp) f(lq x - bq) over the line, split at both centres."""
    (lp, bp), (lq, bq) = p, q
    centres = sorted({bp / lp, bq / lq})
    edges = [-math.inf, *centres, math.inf]
    value, error = _quad_pieces(
        lambda x: float(f(lp * x - bp) * f(lq * x - bq)), edges, tol / QUAD_REFINEMENT
    )
    return complex(value), error


def fourier_quad_entry(ft, p, q, tol: float, reach: float, kinks=()) -> tuple:
    """scipy quad of the Fourier-side pairing over [-reach, reach].

    (1/(lp lq)) ft(g/lp) ft(g/lq) exp(-2 pi i s g), s = bp/lp - bq/lq, split
    at 0, at the kinks of ft (scaled by lp and lq) and at the support ends.
    """
    (lp, bp), (lq, bq) = p, q
    s = bp / lp - bq / lq
    scale = 1.0 / (lp * lq)
    cuts = {0.0, -reach, reach}
    for k in kinks:
        for lam in (lp, lq):
            cuts.update((k * lam, -k * lam))
    edges = sorted(c for c in cuts if -reach <= c <= reach)

    def amplitude(g):
        return scale * float(ft(g / lp) * ft(g / lq))

    re, re_err = _quad_pieces(
        lambda g: amplitude(g) * math.cos(2.0 * math.pi * s * g), edges, tol / QUAD_REFINEMENT
    )
    im, im_err = _quad_pieces(
        lambda g: -amplitude(g) * math.sin(2.0 * math.pi * s * g), edges, tol / QUAD_REFINEMENT
    )
    return complex(re, im), re_err + im_err


def log_exp_ratio_reach(p, q, tol: float) -> float:
    """Radius beyond which the log_exp_ratio pairing is below tol / 1000.

    |ft(u)| <= |u|^2 e^-|u| for |u| >= e, so the integrand is below
    g^4 e^(-g (1/lp + 1/lq)) / (lp lq)^3 there.
    """
    lp, lq = p[0], q[0]
    rate = 1.0 / lp + 1.0 / lq
    radius = math.e * max(lp, lq)
    while radius**4 * math.exp(-rate * radius) / rate > 1.0e-3 * tol:
        radius *= 1.25
    return radius


# ------------------------------------------------------------ piecewise linear


def piecewise_linear_entry(xs, ys, p, q) -> float:
    """<f(lp x - bp), f(lq x - bq)> for the linear interpolant f of (xs, ys).

    f vanishes outside [xs[0], xs[-1]].  The product is quadratic between
    consecutive merged knots, so Simpson's rule on each piece is exact.
    """
    (lp, bp), (lq, bq) = p, q
    lo = max((xs[0] + bp) / lp, (xs[0] + bq) / lq)
    hi = min((xs[-1] + bp) / lp, (xs[-1] + bq) / lq)
    if not hi > lo:
        return 0.0
    knots = np.concatenate(([lo, hi], (xs + bp) / lp, (xs + bq) / lq))
    knots = np.unique(knots[(knots >= lo) & (knots <= hi)])
    a, b = knots[:-1], knots[1:]
    mid = 0.5 * (a + b)

    def product(t):
        return np.interp(lp * t - bp, xs, ys, left=0.0, right=0.0) * np.interp(
            lq * t - bq, xs, ys, left=0.0, right=0.0
        )

    return math.fsum((b - a) / 6.0 * (product(a) + 4.0 * product(mid) + product(b)))


HAT_KNOTS = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))


def cascade_samples(equation: dict, resolution: float, iterations: int) -> tuple:
    """Samples of the cascade phi_{n+1}(x) = sum_k c_k phi_n(lambda x - beta_k).

    The grid spans the support [beta_first, beta_last] / (lambda - 1) with
    the given step, starting from the indicator of the support (half value
    at both ends); the final samples are scaled to trapezoid integral 1.
    Each dilated grid point lambda x - beta_k falls on the grid for the
    equations used here, so the map is pure index arithmetic, no
    interpolation.
    """
    lam = float(equation["lambda"])
    terms = sorted((float(t["beta"]), float(t["c"][0])) for t in equation["terms"])
    if any(float(t["c"][1]) != 0.0 for t in equation["terms"]):
        raise ValueError("cascade reference handles real coefficients only")
    lo = terms[0][0] / (lam - 1.0)
    hi = terms[-1][0] / (lam - 1.0)
    cells = (hi - lo) / resolution
    if cells != round(cells) or lam != round(lam):
        raise ValueError("grid must map onto itself under x -> lambda x - beta")
    count = int(round(cells)) + 1
    index = np.arange(count)
    sources = []
    for beta, c in terms:
        offset = (lam * lo - beta - lo) / resolution
        if offset != round(offset):
            raise ValueError("grid must map onto itself under x -> lambda x - beta")
        j = int(round(lam)) * index + int(round(offset))
        inside = (j >= 0) & (j < count)
        sources.append((c, j, inside))
    values = np.full(count, 1.0 / (hi - lo))
    values[0] = values[-1] = 0.5 / (hi - lo)
    for _ in range(iterations):
        new = np.zeros(count)
        for c, j, inside in sources:
            term = np.zeros(count)
            term[inside] = values[j[inside]]
            new = new + c * term
        values = new
    integral = resolution * (values.sum() - 0.5 * (values[0] + values[-1]))
    return lo + resolution * index, values / integral


def generator_knots(generator: dict) -> tuple:
    """(xs, ys) of a piecewise-linear generator document."""
    kind = generator["kind"]
    if kind == "hat":
        return HAT_KNOTS
    if kind == "sampled":
        values = np.asarray(generator["values"], dtype=np.float64)
        return generator["start"] + generator["step"] * np.arange(values.size), values
    if kind == "refinement":
        return cascade_samples(
            generator["equation"], float(generator["resolution"]), int(generator["iterations"])
        )
    raise ValueError(f"{kind} is not piecewise linear")


# ------------------------------------------------------------ Gram matrices


def gram_reference(system: dict, tol: float) -> tuple:
    """(reference Gram matrix, bound on its entry errors) of a system document."""
    gen = system["generator"]
    kind = gen["kind"]
    points = [(float(p["lambda"]), float(p["beta"])) for p in system["points"]]

    if kind in ("hat", "sampled", "refinement"):
        xs, ys = generator_knots(gen)
        entry = lambda p, q: (piecewise_linear_entry(xs, ys, p, q), EXACT_ERR)  # noqa: E731
    elif kind == "gaussian":
        entry = lambda p, q: (gaussian_entry(p, q), EXACT_ERR)  # noqa: E731
    elif kind == "two_sided_exp":
        rate = int(gen["n"])
        entry = lambda p, q: (two_sided_exp_entry(rate, p, q), EXACT_ERR)  # noqa: E731
    elif kind == "rational":
        if gen["numerator"] != [1.0] or gen["denominator"] != [1.0, 0.0, 1.0]:
            raise ValueError("reference covers the rational 1/(1+x^2) only")
        entry = lambda p, q: time_quad_entry(rational_inverse_square, p, q, tol)  # noqa: E731
    elif kind == "le_catalog" and gen["id"] == "sech":
        entry = lambda p, q: time_quad_entry(sech_pi, p, q, tol)  # noqa: E731
    elif kind == "le_catalog" and gen["id"] == "ft_box":
        entry = lambda p, q: (ft_box_entry(p, q), EXACT_ERR)  # noqa: E731
    elif kind == "le_catalog" and gen["id"] == "ft_annulus_tent":
        entry = lambda p, q: fourier_quad_entry(  # noqa: E731
            ft_annulus_tent, p, q, tol, 2.0 * min(p[0], q[0]), kinks=(1.0, 1.5, 2.0)
        )
    elif kind == "le_catalog" and gen["id"] == "log_exp_ratio":
        entry = lambda p, q: fourier_quad_entry(  # noqa: E731
            ft_log_exp_ratio, p, q, tol, log_exp_ratio_reach(p, q, tol)
        )
    else:
        raise ValueError(f"no reference for generator {gen}")

    n = len(points)
    matrix = np.zeros((n, n), dtype=np.complex128)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            value, err = entry(points[i], points[j])
            matrix[i, j] = value
            matrix[j, i] = np.conj(value)
            worst = max(worst, err)
    return matrix, worst


# ------------------------------------------------------------ Fourier profiles


def mask_product(equation: dict, gamma) -> np.ndarray:
    """prod_{j>=1} m(gamma / lambda^j), m(g) = (1/lambda) sum_k c_k e^{-2 pi i beta_k g},
    taken until every factor rounds to 1."""
    lam = float(equation["lambda"])
    terms = [(complex(*t["c"]), float(t["beta"])) for t in equation["terms"]]
    reach = 2.0 * math.pi * max(abs(b) for _, b in terms)
    g = np.asarray(gamma, dtype=np.float64) / lam
    out = np.ones(g.shape, dtype=np.complex128)
    while reach * np.max(np.abs(g)) > 1.0e-17:
        m = sum(c * np.exp(-2.0j * np.pi * beta * g) for c, beta in terms) / lam
        out *= m
        g = g / lam
    return out


def cosine_product(alpha: float, gamma) -> np.ndarray:
    """prod_{j>=1} cos(2 pi alpha^j gamma), taken until every factor rounds to 1."""
    g = np.asarray(gamma, dtype=np.float64)
    out = np.ones(g.shape)
    scale = alpha
    while 2.0 * math.pi * scale * np.max(np.abs(g)) > 1.0e-9:
        out *= np.cos(2.0 * math.pi * scale * g)
        scale *= alpha
    return out


def hat_profile(gamma) -> np.ndarray:
    """Fourier transform of the hat on [0, 2]: e^{-2 pi i gamma} (sin(pi gamma)/(pi gamma))^2."""
    g = np.asarray(gamma, dtype=np.float64)
    return np.exp(-2.0j * np.pi * g) * np.sinc(g) ** 2


# ------------------------------------------------------------ densities


def _signed_sums(alpha: float, exponents) -> np.ndarray:
    sums = np.zeros(1)
    for j in exponents:
        sums = (sums[:, None] + np.array([-(alpha**j), alpha**j])[None, :]).ravel()
    return sums


def bernoulli_masses(alpha: float, depth: int, edges) -> np.ndarray:
    """Masses of sum_{j=1..depth} (+-1) alpha^j over the given bin edges.

    Enumerates all 2^depth sign patterns as the sums of a head half and a
    tail half, one head value at a time; bins follow numpy's convention
    (half-open, last bin closed).
    """
    edges = np.asarray(edges, dtype=np.float64)
    half = depth // 2
    head = _signed_sums(alpha, range(1, half + 1))
    tail = _signed_sums(alpha, range(half + 1, depth + 1))
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for block in np.array_split(head, max(1, head.size // 256)):
        counts += np.histogram((block[:, None] + tail[None, :]).ravel(), bins=edges)[0]
    return counts / float(2**depth)
