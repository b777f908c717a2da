"""Which modules each command loads, and what compiling a module costs.

A refinement or Bernoulli command must not load the wavelet-system stack
(``generators``, ``wavelet_system``, ``numerics``): without a bytecode cache
every call would compile it again.  Each case runs in a fresh interpreter,
since a module once loaded stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import twoscale

PACKAGE = Path(twoscale.__file__).resolve().parent
STACK = {"twoscale.generators", "twoscale.wavelet_system", "twoscale.numerics"}

HAT_EQUATION = {
    "lambda": 2.0,
    "terms": [
        {"c": [0.5, 0.0], "beta": 0.0},
        {"c": [1.0, 0.0], "beta": 1.0},
        {"c": [0.5, 0.0], "beta": 2.0},
    ],
}
GAUSSIAN_SYSTEM = {
    "generator": {"kind": "gaussian"},
    "points": [{"lambda": 1.0, "beta": 0.0}, {"lambda": 2.0, "beta": 1.0}],
}


def loaded_after(code: str, cwd: Path) -> set:
    """The twoscale modules in ``sys.modules`` once ``code`` ran in a fresh interpreter."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('twoscale'))))\n"
    )
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_command(argv: list, cwd: Path) -> set:
    code = f"from twoscale import cli\nassert cli.run({argv + ['--output', 'out.txt']!r}) == 0"
    return loaded_after(code, cwd)


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "equation.json").write_text(json.dumps(HAT_EQUATION), encoding="utf-8")
    (tmp_path / "system.json").write_text(json.dumps(GAUSSIAN_SYSTEM), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    (
        ["refine-solve", "--preset", "hat"],
        ["refine-validate", "--input", "equation.json"],
        ["bernoulli-density", "--alpha", "0.6", "--depth", "12"],
        ["bernoulli-fourier", "--alpha", "0.6"],
    ),
    ids=lambda argv: argv[0],
)
def test_refinement_and_bernoulli_commands_load_no_wavelet_stack(argv, inputs):
    loaded = run_command(argv, inputs)
    assert "twoscale.refinement" in loaded
    assert not loaded & STACK


@pytest.mark.parametrize("command", ("gram", "certify", "analyze"))
def test_system_commands_load_the_wavelet_stack(command, inputs):
    assert STACK <= run_command([command, "--input", "system.json"], inputs)


def test_package_loads_its_modules_on_first_access(tmp_path):
    assert loaded_after("import twoscale", tmp_path) == {"twoscale", "twoscale.errors"}
    code = "import twoscale\nassert callable(twoscale.wavelet_system.gram)"
    assert STACK <= loaded_after(code, tmp_path)
    code = "from twoscale import *\nassert callable(wavelet_system.gram) and callable(bernoulli.density)"
    assert STACK <= loaded_after(code, tmp_path)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        twoscale.no_such_module  # noqa: B018


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_compile_peak_memory(path):
    # without a bytecode cache every call compiles the modules it loads; the
    # largest, generators.py, peaks at 4.5 MiB and the others at 1.7 MiB or less
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20
