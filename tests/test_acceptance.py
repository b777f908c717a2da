"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a report:
run ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import gaussian_gram_closed_form, hat_gram_closed_form, smooth_bump_generator
from twoscale import cli
from twoscale.bernoulli import BernoulliModel, SmoothnessVerdict, density, fourier
from twoscale.bernoulli import smoothness_verdict, threshold
from twoscale.generators import CatalogGenerator, Gaussian, Hat
from twoscale.refinement import (
    TwoScaleEquation,
    cascade_solve,
    estimate_regularity,
    mask,
    preset,
    regularity_upper_bound,
    solve_fourier,
    validate_equation,
)
from twoscale.serialize import dump_json, system_to_dict
from twoscale.wavelet_system import (
    WaveletPoint,
    WaveletSystem,
    analyze,
    certify,
    gram,
    gram_report_from_matrix,
    numeric_verdict,
)

P = WaveletPoint
HAT_LATTICE = (P(1, 0), P(2, 0), P(2, 1), P(2, 2))


def report(number, name, ok):
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_01_rham_regularity_bound(capsys):
    cli.run(["refine-bound", "--preset", "rham"])  # warm imports and parser
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.run(["refine-bound", "--preset", "rham"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    mu = json.loads(out)["mu_upper"]
    with capsys.disabled():
        report(
            1,
            "rham bound",
            code == 0 and abs(mu - 0.36907024642) <= 1e-9 and elapsed < 0.010,
        )


def test_02_bernoulli_fourier_identity(capsys):
    model = BernoulliModel(0.5)
    start = time.perf_counter()
    worst = 0.0
    for g in np.linspace(-10.0, 10.0, 401):
        g = float(g)
        exact = 1.0 if g == 0.0 else math.sin(2 * math.pi * g) / (2 * math.pi * g)
        worst = max(worst, abs(fourier(model, g, 1e-12) - exact))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, "bernoulli fourier", worst <= 1e-10 and elapsed < 1.0)


def test_03_bernoulli_density(capsys):
    start = time.perf_counter()
    hist = density(BernoulliModel(0.5), 20, 64)
    elapsed = time.perf_counter() - start
    interior = hist.masses[1:-1]
    ok = (
        float(np.max(np.abs(interior - 1.0 / 64.0))) <= 5e-3
        and np.array_equal(hist.masses, hist.masses[::-1])
        and float(np.sum(hist.masses)) == 1.0
        and elapsed < 5.0
    )
    with capsys.disabled():
        report(3, "bernoulli density", ok)


def test_04_smoothness_threshold(capsys):
    ok = (
        abs(threshold(1) - 0.7071067811865476) <= 1e-12
        and smoothness_verdict(0.6, 1) is SmoothnessVerdict.RULED_OUT
        and smoothness_verdict(0.9, 1) is SmoothnessVerdict.UNKNOWN
    )
    with capsys.disabled():
        report(4, "smoothness threshold", ok)


def test_05_gaussian_gram_oracle(capsys):
    points = [P(1, 0), P(1, 1), P(2, 0), P(2, 1), P(3, -1)]
    start = time.perf_counter()
    rep = gram(WaveletSystem(Gaussian(), points), 1e-10)
    elapsed = time.perf_counter() - start
    closed = gaussian_gram_closed_form(points)
    rel = float(np.max(np.abs(rep.matrix.real - closed) / np.abs(closed)))
    ok = rel <= 1e-8 and rep.eigenvalues[0] > 0.0 and elapsed < 5.0
    with capsys.disabled():
        report(5, "gaussian gram oracle", ok)


def test_06_dependent_system_reproduction(capsys):
    exact = gram_report_from_matrix(hat_gram_closed_form(HAT_LATTICE))
    paired = gram(WaveletSystem(Hat(), HAT_LATTICE), 1e-10)
    target = np.array([1.0, -0.5, -1.0, -0.5])
    target = target / np.linalg.norm(target)

    def null_distance(rep):
        v = rep.null_vector.real
        v = v / np.linalg.norm(v)
        return min(float(np.max(np.abs(v - target))), float(np.max(np.abs(v + target))))

    ok = (
        exact.relative_gap <= 1e-10
        and paired.relative_gap <= 1e-10
        and paired.quad_error < 1e-14
        and float(np.max(np.abs(paired.matrix - exact.matrix))) <= paired.quad_error
        and null_distance(exact) <= 1e-6
        and null_distance(paired) <= 1e-6
    )
    with capsys.disabled():
        report(6, "dependent hat lattice", ok)


def test_07_functional_equation_residual(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in ("rham", "hat", "bernoulli(2)"):
        eq = preset(name)
        gammas = rng.uniform(-8.0, 8.0, size=100)
        grid = np.unique(np.concatenate([gammas, gammas / eq.lam]))
        prof = solve_fourier(eq, grid, 1e-11)
        lookup = dict(zip(prof.grid, prof.values))
        for g in gammas:
            residual = abs(lookup[g] - mask(eq, g / eq.lam) * lookup[g / eq.lam])
            worst = max(worst, residual)
    with capsys.disabled():
        report(7, "functional equation residual", worst <= 1e-10)


def test_08_cascade_convergence(capsys):
    sampled, residuals = cascade_solve(preset("hat"), 2.0**-10, 15)
    exact = np.maximum(0.0, 1.0 - np.abs(sampled.grid - 1.0))
    ok = (
        float(np.max(np.abs(sampled.values - exact))) <= 1e-3
        and all(b < a for a, b in zip(residuals[3:], residuals[4:]))
    )
    with capsys.disabled():
        report(8, "cascade convergence", ok)


def test_09_regularity_estimator(capsys):
    step = 1.0 / 32.0
    grid = np.arange(0.0, 256.0 + step / 2, step)
    mu_hat, _ = estimate_regularity(solve_fourier(preset("hat"), grid, 1e-10))
    mu_rham, _ = estimate_regularity(solve_fourier(preset("rham"), grid, 1e-10))
    ok = (
        0.8 <= mu_hat <= 1.2
        and 0.25 <= mu_rham <= 0.50
        and mu_rham <= 0.36907 + 0.05
    )
    with capsys.disabled():
        report(9, "regularity estimator", ok)


def test_10_certificate_engine(capsys, tmp_path):
    gaussian_any = certify(WaveletSystem(Gaussian(), [P(0.5, 1), P(2, -3), P(7, 0)]))
    ft_compact = certify(WaveletSystem(CatalogGenerator("ft_box"), [P(1, 0), P(2, 1)]))
    le_catalog = certify(WaveletSystem(CatalogGenerator("log_exp_ratio"), [P(1, 0), P(3, 2)]))
    # sech is Schwartz by its kind; the sampled bump only by declaration
    sech_system = WaveletSystem(CatalogGenerator("sech"), [P(1, 0), P(1, 1), P(1, 2)])
    sech3 = certify(sech_system)
    path = tmp_path / "sech.json"
    path.write_text(dump_json(system_to_dict(sech_system)), encoding="utf-8")
    sech3_code = cli.run(["analyze", "--input", str(path)])
    sech3_cli = json.loads(capsys.readouterr().out)
    bump = smooth_bump_generator()
    schwartz3 = certify(WaveletSystem(bump, [P(1, 0), P(1, 1), P(2, 0)]))
    hat_system = WaveletSystem(Hat(), HAT_LATTICE)
    ok = (
        gaussian_any is not None
        and gaussian_any.rule_id == "ExpDecay_L31a"
        and ft_compact is not None
        and ft_compact.rule_id == "FTCompact_L33ii"
        and le_catalog is not None
        and le_catalog.rule_id == "LECombination_T42"
        and sech3 is not None
        and sech3.rule_id == "ThreePointSchwartz_C32"
        and sech3_code == 0
        and sech3_cli["outcome"] == "IndependentCertified"
        and sech3_cli["rule_id"] == "ThreePointSchwartz_C32"
        and schwartz3 is not None
        and schwartz3.rule_id == "ThreePointSchwartz_C32"
        and certify(hat_system) is None
        and analyze(hat_system).outcome == "Dependent"
    )
    with capsys.disabled():
        report(10, "certificate engine", ok)


def test_11_validator(capsys):
    endpoint = validate_equation(TwoScaleEquation(2.0, [(3.0, 0.0), (-1.0, 1.0)]))
    unbounded = validate_equation(preset("bernoulli(2.5)"))
    lam = 2.0 ** (2.0 / 3.0)
    capped = validate_equation(preset("bernoulli", lam=lam))
    bound = regularity_upper_bound(preset("bernoulli", lam=lam))
    ok = (
        endpoint.lemma_endpoint_pass is False
        and unbounded.two_term_class.kind == "unbounded_only"
        and capped.two_term_class.kind == "hoelder_capped"
        and abs(capped.two_term_class.cap - 0.5) <= 1e-12
        and abs(bound.mu_upper - 0.5) <= 1e-12
    )
    with capsys.disabled():
        report(11, "two-term validator", ok)


def test_12_psd_property_suite(capsys):
    rng = np.random.default_rng(314159)
    gen = Gaussian()
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        while True:
            dils = rng.uniform(0.5, 4.0, size=n)
            betas = rng.uniform(-3.0, 3.0, size=n)
            pts = list(zip(dils, betas))
            separated = all(
                abs(a[0] - b[0]) + abs(a[1] - b[1]) > 0.1
                for i, a in enumerate(pts)
                for b in pts[i + 1 :]
            )
            if separated:
                break
        system = WaveletSystem(gen, [P(float(d), float(b)) for d, b in pts])
        rep = gram(system, 1e-8)
        if rep.eigenvalues[0] < -n * rep.quad_error:
            ok = False
        if numeric_verdict(rep).outcome == "Dependent":
            ok = False
    with capsys.disabled():
        report(12, "gaussian psd suite", ok)
