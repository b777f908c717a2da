"""Checks of every command's output.

Two kinds of finding come out of a check:

* a *miss*: the output disagrees with its reference (``references.py``), or
  the command exited non-zero.  The command counts as failed.
* a *broken invariant*: the output lacks a property the method must have
  whatever its accuracy (a Gram matrix that is not Hermitian, density
  masses that do not sum to 1, ...).  The whole run is then incorrect.

The paper's independence results are kept here as the benchmark's own table
(``PAPER_RULES`` and ``generator_facts``), to judge certificates by.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

import references as ref
import workloads

DEPENDENCE_THRESHOLD = 1.0e-8

# ------------------------------------------------------------ the paper's table

# rule id -> (properties the generator must have, condition on the points)
PAPER_RULES = {
    # Lemma 3.1(a)
    "ExpDecay_L31a": ({"faster_than_exponential_decay", "noncompact_support"}, None),
    # Lemma 3.1(b)
    "PolyDecayMaxDilation_L31b": (
        {"faster_than_polynomial_decay", "noncompact_support"},
        "unique_max_dilation",
    ),
    # Lemma 3.1(c)
    "SmoothMinDilation_L31c": ({"smooth_all_derivs_L1"}, "unique_min_dilation"),
    # Corollary 3.2
    "ThreePointSchwartz_C32": ({"schwartz"}, "three_points"),
    # Lemma 3.3(i), (ii)
    "FTVanishNearZero_L33i": ({"ft_vanishes_near_zero"}, None),
    "FTCompact_L33ii": ({"ft_compact_support"}, None),
    # Theorem 3.4
    "UltimatelyDecreasingFT_T34": ({"schwartz", "ft_abs_ultimately_decreasing"}, None),
    # Theorem 4.2
    "LECombination_T42": ({"ft_le_combination"}, None),
}

_FACTS = {
    # exp(-x^2); its transform is a Gaussian again
    "gaussian": {
        "schwartz", "faster_than_exponential_decay", "faster_than_polynomial_decay",
        "noncompact_support", "ft_abs_ultimately_decreasing", "ft_le_combination",
        "smooth_all_derivs_L1",
    },
    # exp(-n|x|): kink at 0; transform 2n / (n^2 + 4 pi^2 gamma^2)
    "two_sided_exp": {
        "faster_than_polynomial_decay", "noncompact_support",
        "ft_abs_ultimately_decreasing", "ft_le_combination",
    },
    # 1/(1+x^2): transform pi exp(-2 pi |gamma|)
    "rational": {
        "noncompact_support", "smooth_all_derivs_L1", "ft_abs_ultimately_decreasing",
        "ft_le_combination",
    },
    # sech(pi x) is its own transform
    "sech": {
        "schwartz", "faster_than_polynomial_decay", "noncompact_support",
        "ft_abs_ultimately_decreasing", "ft_le_combination", "smooth_all_derivs_L1",
    },
    "log_exp_ratio": {"noncompact_support", "ft_le_combination"},
    # sinc: band-limited
    "ft_box": {"noncompact_support", "ft_compact_support"},
    "ft_annulus_tent": {"noncompact_support", "ft_compact_support", "ft_vanishes_near_zero"},
    "hat": {"compact_support"},
    "sampled": {"compact_support"},
    "refinement": {"compact_support"},
}


def generator_facts(generator: dict) -> set:
    kind = generator["kind"]
    return _FACTS[generator["id"] if kind == "le_catalog" else kind]


def _point_condition(condition, dilations) -> bool:
    if condition is None:
        return True
    if condition == "three_points":
        return len(dilations) in (1, 3)
    target = max(dilations) if condition == "unique_max_dilation" else min(dilations)
    return dilations.count(target) == 1


def rule_holds(rule_id: str, system: dict) -> bool:
    if rule_id not in PAPER_RULES:
        return False
    needed, condition = PAPER_RULES[rule_id]
    dilations = [float(p["lambda"]) for p in system["points"]]
    return needed <= generator_facts(system["generator"]) and _point_condition(
        condition, dilations
    )


def paper_proves_independent(system: dict) -> bool:
    return any(rule_holds(rule_id, system) for rule_id in PAPER_RULES)


# ------------------------------------------------------------ findings


class Findings:
    """Misses and broken invariants of one command."""

    def __init__(self):
        self.misses: list = []
        self.broken: list = []

    def miss(self, ok: bool, what: str) -> None:
        if not ok:
            self.misses.append(what)

    def invariant(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken.append(what)


def _option(argv: list, name: str, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _csv(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


# ------------------------------------------------------------ wavelet systems


def _check_certificate_fields(f: Findings, system: dict, rule_id, checklist) -> None:
    if rule_id is None:
        return
    f.invariant(all(ok for _, ok in checklist), f"certificate {rule_id} has a false hypothesis")
    f.miss(rule_holds(rule_id, system), f"rule {rule_id} does not hold for this system")


def check_gram(f: Findings, out: dict, argv: list, system: dict, expect: dict) -> None:
    tol = _option(argv, "--tol", workloads.CLI_DEFAULT_TOL)
    n = len(system["points"])
    g = _matrix(out["matrix"])
    eig = np.array(out["eigenvalues"])
    f.invariant(g.shape == (n, n) and eig.shape == (n,), "matrix or spectrum has the wrong size")
    if g.shape != (n, n) or eig.shape != (n,):
        return
    f.invariant(np.array_equal(g, g.conj().T), "Gram matrix is not Hermitian")
    f.invariant(bool(np.all(np.diff(eig) >= 0.0)), "eigenvalues are not ascending")
    scale = max(abs(out["sigma_max"]), 1.0e-300)
    f.invariant(
        abs(math.fsum(eig) - float(np.trace(g).real)) <= 1.0e-12 * n * scale,
        "eigenvalues do not sum to the trace",
    )
    f.invariant(out["sigma_max"] == eig[-1], "sigma_max is not the largest eigenvalue")
    f.invariant(out["sigma_min"] == max(0.0, eig[0]), "sigma_min is not the smallest eigenvalue")
    f.invariant(
        out["relative_gap"] == out["sigma_min"] / out["sigma_max"], "relative_gap is not sigma_min/sigma_max"
    )
    f.invariant(out["quad_error"] <= tol, f"quad_error {out['quad_error']:.3e} exceeds --tol {tol:g}")
    null = out["null_vector"]
    if null is not None:
        f.invariant(abs(np.linalg.norm(_vector(null)) - 1.0) <= 1.0e-12, "null vector is not a unit vector")

    r, r_err = ref.gram_reference(system, tol)
    bound = tol + r_err
    worst = float(np.max(np.abs(g - r)))
    f.miss(worst <= bound, f"largest entry error {worst:.3e} exceeds {bound:.1e}")
    weyl = float(np.max(np.abs(eig - np.linalg.eigvalsh(r))))
    f.miss(weyl <= n * bound, f"eigenvalues off by {weyl:.3e}, Weyl bound {n * bound:.1e}")
    if "null_count" in expect:
        small = int(np.sum(eig < DEPENDENCE_THRESHOLD * out["sigma_max"]))
        f.miss(small == expect["null_count"], f"{small} small eigenvalues, expected {expect['null_count']}")
        f.miss(null is not None, "no null vector reported")
        if null is not None:
            residual = float(np.linalg.norm(r @ _vector(null)))
            f.miss(residual <= n * bound, f"||G v|| = {residual:.3e} for the null vector")


def check_certify(f: Findings, out: dict, argv: list, system: dict, expect: dict) -> None:
    cert = out["certificate"]
    if cert is None:
        f.miss(not paper_proves_independent(system), "no certificate for a system the paper covers")
        return
    _check_certificate_fields(f, system, cert["rule_id"], cert["checklist"])


def check_analyze(f: Findings, out: dict, argv: list, system: dict, expect: dict) -> None:
    outcome = out["outcome"]
    independent = paper_proves_independent(system)
    f.miss(not (independent and outcome == "Dependent"), "a system the paper proves independent came out Dependent")
    if outcome == "IndependentCertified":
        _check_certificate_fields(f, system, out["rule_id"], out["checklist"])
        return
    f.miss(not independent, "no certificate for a system the paper covers")
    tol = _option(argv, "--tol", workloads.CLI_DEFAULT_TOL)
    n = len(system["points"])
    f.invariant(out["quad_error"] <= tol, f"quad_error {out['quad_error']:.3e} exceeds --tol {tol:g}")
    r, r_err = ref.gram_reference(system, tol)
    mu = np.linalg.eigvalsh(r)
    ref_gap = max(0.0, mu[0]) / mu[-1]
    slack = n * (tol + r_err) / mu[-1]
    f.miss(abs(out["relative_gap"] - ref_gap) <= slack, f"relative_gap {out['relative_gap']:.3e} vs reference {ref_gap:.3e}")
    if ref_gap + slack <= DEPENDENCE_THRESHOLD:
        f.miss(outcome == "Dependent", f"{outcome} for a dependent system")
        if out["null_vector"] is not None:
            v = _vector(out["null_vector"])
            f.invariant(abs(np.linalg.norm(v) - 1.0) <= 1.0e-12, "null vector is not a unit vector")
            residual = float(np.linalg.norm(r @ v))
            f.miss(residual <= n * (tol + r_err), f"||G v|| = {residual:.3e} for the null vector")
    elif ref_gap - slack >= 100.0 * DEPENDENCE_THRESHOLD:
        f.miss(outcome == "IndependentNumeric", f"{outcome} for an independent system")


# ------------------------------------------------------------ refinement, bernoulli


def _check_scaling(f: Findings, grid, values, lam: float, mask, tol: float) -> None:
    """phi_hat(0) = 1 and phi_hat(lam g) = m(g) phi_hat(g) wherever lam g is on the grid."""
    zero = np.flatnonzero(grid == 0.0)
    f.invariant(zero.size == 1 and values[zero[0]] == 1.0, "value at gamma = 0 is not 1")
    step = grid[1] - grid[0]
    target = lam * grid
    k = np.rint((target - grid[0]) / step).astype(np.int64)
    on_grid = (k >= 0) & (k < grid.size) & (np.abs(grid[np.clip(k, 0, grid.size - 1)] - target) <= 1.0e-9)
    lhs = values[k[on_grid]]
    rhs = mask(grid[on_grid]) * values[on_grid]
    worst = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    f.invariant(lhs.size > 0 and worst <= 2.0 * tol + 1.0e-12, f"scaling relation off by {worst:.3e}")


def check_refine_solve(f: Findings, data, argv: list, doc, expect) -> None:
    tol = _option(argv, "--tol", workloads.CLI_DEFAULT_TOL)
    grid, values = data[:, 0], data[:, 1] + 1.0j * data[:, 2]
    step = _option(argv, "--resolution", 2.0**-6)
    half = round(_option(argv, "--gamma-max", 8.0) / step)
    f.miss(np.array_equal(grid, step * np.arange(-half, half + 1)), "frequency grid differs from the requested one")
    if _option(argv, "--preset", "") == "bernoulli":
        alpha = _option(argv, "--alpha", 0.5)
        equation = {"lambda": 1.0 / alpha, "terms": [{"c": [0.5 / alpha, 0.0], "beta": -1.0}, {"c": [0.5 / alpha, 0.0], "beta": 1.0}]}
        reference = ref.cosine_product(alpha, grid)
    else:
        equation = workloads.RHAM
        reference = ref.mask_product(equation, grid)
    lam = float(equation["lambda"])

    def mask(g):
        return sum(complex(*t["c"]) * np.exp(-2.0j * np.pi * t["beta"] * g) for t in equation["terms"]) / lam

    _check_scaling(f, grid, values, lam, mask, tol)
    worst = float(np.max(np.abs(values - reference)))
    f.miss(worst <= tol + 1.0e-12, f"profile off the full-depth product by {worst:.3e}")


def check_refine_cascade(f: Findings, data, argv: list, doc, expect) -> None:
    xs, values = data[:, 0], data[:, 1]
    step = _option(argv, "--resolution", 2.0**-10)
    integral = step * (math.fsum(values) - 0.5 * (values[0] + values[-1]))
    f.invariant(abs(integral - 1.0) <= 1.0e-12, f"cascade integral {integral!r} is not 1")
    ref_x, ref_v = ref.cascade_samples(workloads.RHAM, step, _option(argv, "--iterations", 15))
    f.miss(xs.shape == ref_x.shape and np.array_equal(xs, ref_x), "cascade grid differs from the reference grid")
    if values.shape == ref_v.shape:
        worst = float(np.max(np.abs(values - ref_v)))
        f.miss(worst <= 1.0e-12 * float(np.max(np.abs(ref_v))), f"cascade off the reference by {worst:.3e}")


def check_bernoulli_density(f: Findings, data, argv: list, doc, expect) -> None:
    left, right, masses = data[:, 0], data[:, 1], data[:, 2]
    alpha = _option(argv, "--alpha", 0.5)
    depth = _option(argv, "--depth", 20)
    bins = _option(argv, "--bins", 64)
    f.invariant(math.fsum(masses) == 1.0, f"masses sum to {math.fsum(masses)!r}")
    f.invariant(np.array_equal(masses, masses[::-1]), "masses are not symmetric bin by bin")
    f.invariant(np.array_equal(left, -right[::-1]), "bin edges are not symmetric")
    radius = alpha / (1.0 - alpha)
    edges = np.append(left, right[-1])
    f.miss(
        edges.size == bins + 1 and np.allclose(edges, np.linspace(-radius, radius, bins + 1), rtol=0.0, atol=1.0e-15),
        "bin edges differ from an even split of the support",
    )
    reference = ref.bernoulli_masses(alpha, depth, edges)
    f.miss(np.array_equal(masses, reference), "masses differ from brute-force enumeration")


def check_bernoulli_fourier(f: Findings, out: dict, argv: list, doc, expect) -> None:
    tol = _option(argv, "--tol", workloads.CLI_DEFAULT_TOL)
    alpha = float(out["alpha"])
    grid, values = np.array(out["grid"]), np.array(out["values"])
    f.invariant(np.array_equal(values, values[::-1]), "characteristic function is not even")
    _check_scaling(f, grid, values, 1.0 / alpha, lambda g: np.cos(2.0 * np.pi * g), tol)
    worst = float(np.max(np.abs(values - ref.cosine_product(alpha, grid))))
    f.miss(worst <= tol + 1.0e-12, f"off the full-depth cosine product by {worst:.3e}")


def check_refine_validate(f: Findings, out: dict, argv: list, equation: dict, expect) -> None:
    lam = float(equation["lambda"])
    coeffs = [complex(*t["c"]) for t in sorted(equation["terms"], key=lambda t: t["beta"])]
    total = sum(coeffs)
    f.miss(out["lemma_endpoint_pass"] == (abs(coeffs[0]) < lam and abs(coeffs[-1]) < lam), "wrong endpoint verdict")
    f.miss(abs(complex(*out["coefficient_sum"]) - total) <= 1.0e-12, "wrong coefficient sum")
    f.miss(out["normalized"] == (abs(total - lam) <= 1.0e-12), "wrong normalization flag")
    f.miss((out["two_term_class"] is None) == (len(coeffs) != 2), "two-term class on the wrong equation")


def check_refine_bound(f: Findings, out: dict, argv: list, doc, expect) -> None:
    alpha = _option(argv, "--alpha", 0.5)
    lam = 1.0 / alpha
    c = lam / 2.0
    mu = max(0.0, -math.log(c) / math.log(lam))
    f.miss(abs(out["mu_upper"] - mu) <= 1.0e-12, f"mu_upper {out['mu_upper']!r}, expected {mu!r}")
    f.miss(abs(out["log_lambda"] - math.log(lam)) <= 1.0e-12, "wrong log lambda")
    f.miss(out["discontinuous"] == (c >= 1.0), "wrong discontinuity flag")


def check_bernoulli_threshold(f: Findings, out: dict, argv: list, doc, expect) -> None:
    n = _option(argv, "--n", 0)
    f.miss(out["n"] == n and abs(out["threshold"] - 2.0 ** (-1.0 / (n + 1))) <= 1.0e-15, "wrong threshold")


def check_bernoulli_verdict(f: Findings, out: dict, argv: list, doc, expect) -> None:
    n = _option(argv, "--n", 0)
    alpha = _option(argv, "--alpha", 0.5)
    expected = "RuledOut" if alpha < 2.0 ** (-1.0 / (n + 1)) else "Unknown"
    f.miss(out["verdict"] == expected, f"verdict {out['verdict']}, expected {expected}")


# ------------------------------------------------------------ dispatch

# command -> (parser of its standard output, check)
_CHECKS = {
    "gram": (json.loads, check_gram),
    "certify": (json.loads, check_certify),
    "analyze": (json.loads, check_analyze),
    "refine-solve": (_csv, check_refine_solve),
    "refine-cascade": (_csv, check_refine_cascade),
    "bernoulli-density": (_csv, check_bernoulli_density),
    "bernoulli-fourier": (json.loads, check_bernoulli_fourier),
    "refine-validate": (json.loads, check_refine_validate),
    "refine-bound": (json.loads, check_refine_bound),
    "bernoulli-threshold": (json.loads, check_bernoulli_threshold),
    "bernoulli-verdict": (json.loads, check_bernoulli_verdict),
}


def check_command(command: dict, code: int, stdout: str, run_dir) -> Findings:
    """Findings for one command from its exit code and standard output."""
    f = Findings()
    f.miss(code == 0, f"exit code {code}")
    if code != 0:
        return f
    doc = None
    if command["doc"] is not None:
        doc = json.loads((run_dir / command["doc"]).read_text(encoding="utf-8"))
    parse, check = _CHECKS[command["argv"][0]]
    try:
        check(f, parse(stdout), command["argv"], doc, command["expect"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        f.miss(False, f"malformed output: {type(exc).__name__}: {exc}")
    return f
