"""The benchmark's tracer wraps program names that still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_exists():
    # loaded from its file, so the benchmark directory stays off sys.path
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in tracing._targets()
        if name not in vars(owner)
    ]
    assert not missing
