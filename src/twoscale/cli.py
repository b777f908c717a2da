"""Command-line frontend.

Parses a command plus flags, runs the corresponding library operation, and
emits machine-readable JSON or CSV.  Exit codes: 0 success, 1 domain errors
(validation failures, non-convergence, malformed input files), 2 usage
errors.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bernoulli as bern
from . import refinement as ref
from . import serialize as ser
from . import wavelet_system as ws
from .errors import TwoscaleError

__all__ = ["RunConfig", "run", "main"]

COMMANDS = (
    "refine-solve",
    "refine-bound",
    "refine-validate",
    "refine-cascade",
    "bernoulli-fourier",
    "bernoulli-density",
    "bernoulli-threshold",
    "bernoulli-verdict",
    "gram",
    "certify",
    "analyze",
)


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    tol: float = 1.0e-8
    format: str = "json"
    threads: int = 1
    preset: str | None = None
    n: int | None = None
    alpha: float | None = None
    depth: int = 20
    bins: int = 64
    gamma_max: float = 8.0
    resolution: float | None = None
    iterations: int = 15


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description=(
            "Solve and validate two-scale refinement equations, compute "
            "Bernoulli convolution approximants, and analyze finite wavelet "
            "systems for linear independence."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", dest="input_path", help="input JSON file")
        p.add_argument("--output", dest="output_path", help="output file (default: stdout)")
        p.add_argument("--tol", type=float, default=1.0e-8, help="tolerance (default 1e-8)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=1, help="deprecated; accepted and ignored")
        return p

    p = add("refine-solve", "Fourier-domain solution values on a frequency grid")
    p.add_argument("--preset", help="rham | hat | bernoulli (see --alpha)")
    p.add_argument("--alpha", type=float, help="contraction for the bernoulli preset")
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=8.0)
    p.add_argument("--resolution", type=float, default=2.0**-6, help="frequency step")

    p = add("refine-bound", "regularity upper bound from endpoint coefficients")
    p.add_argument("--preset", help="rham | hat | bernoulli (see --alpha)")
    p.add_argument("--alpha", type=float)

    p = add("refine-validate", "necessary-condition report for an equation")
    p.add_argument("--preset", help="rham | hat | bernoulli (see --alpha)")
    p.add_argument("--alpha", type=float)

    p = add("refine-cascade", "time-domain cascade iteration")
    p.add_argument("--preset", help="rham | hat | bernoulli (see --alpha)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--resolution", type=float, default=2.0**-10, help="grid step")
    p.add_argument("--iterations", type=int, default=15)

    p = add("bernoulli-fourier", "characteristic function on a frequency grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=8.0)
    p.add_argument("--resolution", type=float, default=2.0**-6)

    p = add("bernoulli-density", "exact enumeration histogram")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--bins", type=int, default=64)

    p = add("bernoulli-threshold", "smoothness exclusion cutoff 2^(-1/(n+1))")
    p.add_argument("--n", type=int, required=True)

    p = add("bernoulli-verdict", "smoothness verdict for (alpha, n)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    add("gram", "Gram matrix report for a wavelet system (--input required)")
    add("certify", "independence certificate for a wavelet system (--input required)")
    add("analyze", "certificate first, numeric Gram verdict otherwise")

    return parser


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=ns.command)
    for name in vars(config):
        if hasattr(ns, name) and getattr(ns, name) is not None:
            setattr(config, name, getattr(ns, name))
    if not (config.tol > 0.0):
        raise _UsageError("--tol must be positive")
    if config.threads < 1:
        raise _UsageError("--threads must be at least 1")
    return config


def _equation_from_config(config: RunConfig) -> ref.TwoScaleEquation:
    if config.preset:
        name = config.preset
        lam = None
        if name.strip().lower() == "bernoulli":
            if config.alpha is None:
                raise _UsageError("--preset bernoulli needs --alpha (dilation is 1/alpha)")
            lam = 1.0 / config.alpha
        return ref.preset(name, lam)
    if config.input_path:
        doc = ser.load_json(_read_text(config.input_path))
        return ser.equation_from_dict(doc)
    raise _UsageError("provide --preset or --input")


def _system_from_config(config: RunConfig) -> ws.WaveletSystem:
    if not config.input_path:
        raise _UsageError("this command needs --input pointing to a system JSON file")
    doc = ser.load_json(_read_text(config.input_path))
    return ser.system_from_dict(doc)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ser.ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _frequency_grid(gamma_max: float, resolution: float) -> np.ndarray:
    if not (gamma_max > 0.0) or not (resolution > 0.0):
        raise _UsageError("--gamma-max and --resolution must be positive")
    ref.check_grid_budget(2.0 * gamma_max / resolution + 1.0)
    half = int(round(gamma_max / resolution))
    return resolution * np.arange(-half, half + 1)


def _cmd_refine_solve(config: RunConfig) -> str:
    eq = _equation_from_config(config)
    grid = _frequency_grid(config.gamma_max, config.resolution or 2.0**-6)
    profile = ref.solve_fourier(eq, grid, config.tol)
    if config.format == "csv":
        return ser.profile_to_csv(profile)
    return ser.dump_json(ser.profile_to_dict(profile))


def _cmd_refine_bound(config: RunConfig) -> str:
    eq = _equation_from_config(config)
    bound = ref.regularity_upper_bound(eq)
    return ser.dump_json(
        {
            "mu_upper": bound.mu_upper,
            "log_lambda": bound.log_lambda,
            "endpoint_logs": [bound.endpoint_logs[0], bound.endpoint_logs[1]],
            "discontinuous": bound.discontinuous,
        }
    )


def _cmd_refine_validate(config: RunConfig) -> str:
    eq = _equation_from_config(config)
    report = ref.validate_equation(eq)
    two_term = None
    if report.two_term_class is not None:
        two_term = {
            "kind": report.two_term_class.kind,
            "cap": report.two_term_class.cap,
            "unit_coeffs": report.two_term_class.unit_coeffs,
        }
    return ser.dump_json(
        {
            "lemma_endpoint_pass": report.lemma_endpoint_pass,
            "coefficient_sum": [report.coefficient_sum.real, report.coefficient_sum.imag],
            "normalized": report.normalized,
            "two_term_class": two_term,
            "messages": list(report.messages),
        }
    )


def _cmd_refine_cascade(config: RunConfig) -> str:
    eq = _equation_from_config(config)
    sampled, residuals = ref.cascade_solve(
        eq, config.resolution or 2.0**-10, config.iterations
    )
    if config.format == "csv":
        return ser.sampled_to_csv(sampled)
    return ser.dump_json(ser.sampled_to_dict(sampled, residuals))


def _cmd_bernoulli_fourier(config: RunConfig) -> str:
    model = bern.BernoulliModel(config.alpha)
    grid = _frequency_grid(config.gamma_max, config.resolution or 2.0**-6)
    values = [bern.fourier(model, float(g), config.tol) for g in grid]
    if config.format == "csv":
        return ser.frequency_to_csv(grid, values)
    return ser.dump_json(ser.characteristic_to_dict(config.alpha, grid, values))


def _cmd_bernoulli_density(config: RunConfig) -> str:
    model = bern.BernoulliModel(config.alpha)
    hist = bern.density(model, config.depth, config.bins)
    if config.format == "csv":
        return ser.histogram_to_csv(hist)
    return ser.dump_json(ser.histogram_to_dict(hist))


def _cmd_bernoulli_threshold(config: RunConfig) -> str:
    if config.n is None:
        raise _UsageError("--n is required")
    return ser.dump_json({"n": config.n, "threshold": bern.threshold(config.n)})


def _cmd_bernoulli_verdict(config: RunConfig) -> str:
    if config.n is None:
        raise _UsageError("--n is required")
    verdict = bern.smoothness_verdict(config.alpha, config.n)
    return ser.dump_json(
        {
            "alpha": config.alpha,
            "n": config.n,
            "threshold": bern.threshold(config.n),
            "verdict": verdict.value,
        }
    )


def _cmd_gram(config: RunConfig) -> str:
    system = _system_from_config(config)
    report = ws.gram(system, config.tol)
    return ser.dump_json(ser.gram_report_to_dict(report))


def _cmd_certify(config: RunConfig) -> str:
    system = _system_from_config(config)
    cert = ws.certify(system)
    return ser.dump_json(
        {"certificate": None if cert is None else ser.certificate_to_dict(cert)}
    )


def _cmd_analyze(config: RunConfig) -> str:
    system = _system_from_config(config)
    verdict = ws.analyze(system, config.tol)
    return ser.dump_json(ser.verdict_to_dict(verdict))


_HANDLERS = {
    "refine-solve": _cmd_refine_solve,
    "refine-bound": _cmd_refine_bound,
    "refine-validate": _cmd_refine_validate,
    "refine-cascade": _cmd_refine_cascade,
    "bernoulli-fourier": _cmd_bernoulli_fourier,
    "bernoulli-density": _cmd_bernoulli_density,
    "bernoulli-threshold": _cmd_bernoulli_threshold,
    "bernoulli-verdict": _cmd_bernoulli_verdict,
    "gram": _cmd_gram,
    "certify": _cmd_certify,
    "analyze": _cmd_analyze,
}


def _emit_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    line = getattr(exc, "line", None)
    column = getattr(exc, "column", None)
    if line is not None:
        doc["line"] = line
        doc["column"] = column
    sys.stderr.write(json.dumps(doc) + "\n")


def run(argv) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        config = _config_from_namespace(namespace)
        output = _HANDLERS[config.command](config)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (TwoscaleError, ValueError) as exc:
        _emit_error(exc)
        return 1
    if config.output_path:
        try:
            Path(config.output_path).write_text(output, encoding="utf-8")
        except OSError as exc:
            _emit_error(exc)
            return 1
    else:
        sys.stdout.write(output)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
