"""The benchmark's tracer wraps program names that still exist, and reaches
the program through them."""

import importlib.util
import json
from pathlib import Path

from twoscale import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    # loaded from its file, so the benchmark directory stays off sys.path
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in tracing._targets()
        if name not in vars(owner)
    ]
    assert not missing


HAT_EQUATION = {
    "lambda": 2.0,
    "terms": [
        {"c": [0.5, 0.0], "beta": 0.0},
        {"c": [1.0, 0.0], "beta": 1.0},
        {"c": [0.5, 0.0], "beta": 2.0},
    ],
}
POINTS = [{"lambda": 1.0, "beta": 0.0}, {"lambda": 2.0, "beta": 1.0}, {"lambda": 3.0, "beta": -1.0}]


def test_a_traced_pass_reaches_every_layer_the_workloads_read(tmp_path, monkeypatch, capsys):
    # a name the tracer wraps but the program no longer calls through (a
    # class or function moved to another module) reads 0 instead of failing
    documents = {
        "refinement.json": {
            "generator": {
                "kind": "refinement", "equation": HAT_EQUATION,
                "resolution": 2.0**-6, "iterations": 20,
            },
            "points": POINTS,
        },
        "sech.json": {"generator": {"kind": "le_catalog", "id": "sech"}, "points": POINTS},
    }
    for name, doc in documents.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = (
        ["analyze", "--input", "refinement.json"],
        ["gram", "--input", "sech.json"],
        ["refine-solve", "--preset", "hat", "--gamma-max", "4", "--resolution", "0.125"],
        ["refine-cascade", "--preset", "hat", "--resolution", "0.015625", "--iterations", "10",
         "--format", "csv"],
        ["bernoulli-density", "--alpha", "0.6", "--depth", "8", "--bins", "16", "--format", "csv"],
        ["bernoulli-fourier", "--alpha", "0.6", "--gamma-max", "4", "--resolution", "0.125"],
    )
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [tracer.call("cli", cli.run, (argv,), {}) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    readings = tracer.take()
    # adaptive quadrature has no production caller (ROADMAP item 7)
    dead = {name for name in readings if name.startswith("numerics.quad")}
    assert {"numerics.quad_s", "numerics.quad_calls", "numerics.quad_evals"} == dead
    assert {name for name, value in readings.items() if not value} == dead
    for name in (
        "generators.build_s", "generators.window_calls", "generators.integrand_points",
        "wavelet_system.entries", "refinement.cascade_points",
    ):
        assert readings[name] > 0
