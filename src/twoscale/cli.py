"""Command-line frontend.

Parses a command plus flags, runs the corresponding library operation, and
emits machine-readable JSON or CSV.  Each command accepts exactly the flags
its handler reads, plus the deprecated ``--threads``.  Exit codes: 0
success, 1 domain errors (validation failures, non-convergence, malformed
input files), 2 usage errors.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import bernoulli as bern
from . import refinement as ref
from . import serialize as ser
from .errors import TwoscaleError

if TYPE_CHECKING:
    # the gram, certify and analyze handlers import it: no other command runs it
    from . import wavelet_system as ws

__all__ = ["run", "main"]

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


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ser.ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _equation(args) -> ref.TwoScaleEquation:
    bernoulli = args.input_path is None and args.preset.strip().lower() == "bernoulli"
    if bernoulli and args.alpha is None:
        raise _UsageError("--preset bernoulli needs --alpha (dilation is 1/alpha)")
    if not bernoulli and args.alpha is not None:
        raise _UsageError("--alpha applies only to --preset bernoulli")
    if args.input_path is not None:
        return ser.equation_from_dict(ser.load_json(_read_text(args.input_path)))
    return ref.preset(args.preset, bern.BernoulliModel(args.alpha).lam if bernoulli else None)


def _system(args) -> ws.WaveletSystem:
    return ser.system_from_dict(ser.load_json(_read_text(args.input_path)))


def _frequency_grid(gamma_max: float, resolution: float) -> np.ndarray:
    # divided first: 2 gamma_max alone may overflow
    ref.check_grid_budget(2.0 * (gamma_max / resolution) + 1.0)
    half = int(round(gamma_max / resolution))
    return resolution * np.arange(-half, half + 1)


def _cmd_refine_solve(args) -> str:
    eq = _equation(args)
    grid = _frequency_grid(args.gamma_max, args.resolution)
    profile = ref.solve_fourier(eq, grid, args.tol)
    if args.format == "csv":
        return ser.profile_to_csv(profile)
    return ser.dump_json(ser.profile_to_dict(profile))


def _cmd_refine_bound(args) -> str:
    bound = ref.regularity_upper_bound(_equation(args))
    return ser.dump_json(
        {
            "mu_upper": bound.mu_upper,
            "log_lambda": bound.log_lambda,
            "endpoint_logs": [bound.endpoint_logs[0], bound.endpoint_logs[1]],
            "discontinuous": bound.discontinuous,
        }
    )


def _cmd_refine_validate(args) -> str:
    report = ref.validate_equation(_equation(args))
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


def _cmd_refine_cascade(args) -> str:
    sampled, residuals = ref.cascade_solve(_equation(args), args.resolution, args.iterations)
    if args.format == "csv":
        return ser.sampled_to_csv(sampled)
    return ser.dump_json(ser.sampled_to_dict(sampled, residuals))


def _cmd_bernoulli_fourier(args) -> str:
    model = bern.BernoulliModel(args.alpha)
    grid = _frequency_grid(args.gamma_max, args.resolution)
    values = bern.fourier(model, grid, args.tol)
    if args.format == "csv":
        return ser.frequency_to_csv(grid, values)
    return ser.dump_json(ser.characteristic_to_dict(args.alpha, grid, values))


def _cmd_bernoulli_density(args) -> str:
    hist = bern.density(bern.BernoulliModel(args.alpha), args.depth, args.bins)
    if args.format == "csv":
        return ser.histogram_to_csv(hist)
    return ser.dump_json(ser.histogram_to_dict(hist))


def _cmd_bernoulli_threshold(args) -> str:
    return ser.dump_json({"n": args.n, "threshold": bern.threshold(args.n)})


def _cmd_bernoulli_verdict(args) -> str:
    verdict = bern.smoothness_verdict(args.alpha, args.n)
    return ser.dump_json(
        {
            "alpha": args.alpha,
            "n": args.n,
            "threshold": bern.threshold(args.n),
            "verdict": verdict.value,
        }
    )


def _cmd_gram(args) -> str:
    from . import wavelet_system as ws

    report = ws.gram(_system(args), args.tol)
    return ser.dump_json(ser.gram_report_to_dict(report))


def _cmd_certify(args) -> str:
    from . import wavelet_system as ws

    cert = ws.certify(_system(args))
    return ser.dump_json(
        {"certificate": None if cert is None else ser.certificate_to_dict(cert)}
    )


def _cmd_analyze(args) -> str:
    from . import wavelet_system as ws

    verdict = ws.analyze(_system(args), args.tol)
    return ser.dump_json(ser.verdict_to_dict(verdict))


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
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    # argparse types; a usage error names them ("invalid positive value: '0'")
    def positive(text: str) -> float:
        value = float(text)
        if not (value > 0.0):  # NaN too; infinity passes
            raise ValueError(text)
        return value

    def at_least_one(text: str) -> int:
        value = int(text)
        if value < 1:
            raise ValueError(text)
        return value

    def tol(p):
        p.add_argument("--tol", type=positive, default=1.0e-8,
                       help="tolerance (default %(default)g)")

    def output_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def system_input(p):
        p.add_argument("--input", dest="input_path", required=True, help="system JSON file")

    def equation(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", help="rham | hat | bernoulli (see --alpha)")
        source.add_argument("--input", dest="input_path", help="equation JSON file")
        p.add_argument("--alpha", type=float, help="contraction for the bernoulli preset")

    def frequency_grid(p):
        p.add_argument("--gamma-max", dest="gamma_max", type=positive, default=8.0)
        p.add_argument("--resolution", type=positive, default=2.0**-6, help="frequency step")

    def command(name: str, handler, help_text: str, *flag_groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", dest="output_path", help="output file (default: stdout)")
        p.add_argument("--threads", type=at_least_one, help="deprecated; accepted and ignored")
        for add_flags in flag_groups:
            add_flags(p)
        return p

    command(
        "refine-solve", _cmd_refine_solve, "Fourier-domain solution values on a frequency grid",
        equation, tol, output_format, frequency_grid,
    )
    command(
        "refine-bound", _cmd_refine_bound, "regularity upper bound from endpoint coefficients",
        equation,
    )
    command(
        "refine-validate", _cmd_refine_validate, "necessary-condition report for an equation",
        equation,
    )
    p = command(
        "refine-cascade", _cmd_refine_cascade, "time-domain cascade iteration",
        equation, output_format,
    )
    p.add_argument("--resolution", type=positive, default=2.0**-10, help="grid step")
    p.add_argument("--iterations", type=int, default=15)

    p = command(
        "bernoulli-fourier", _cmd_bernoulli_fourier, "characteristic function on a frequency grid",
        tol, output_format, frequency_grid,
    )
    p.add_argument("--alpha", type=float, required=True)
    p = command(
        "bernoulli-density", _cmd_bernoulli_density,
        "exact histogram of the depth-truncated series, by counting", output_format,
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--bins", type=int, default=64)
    p = command(
        "bernoulli-threshold", _cmd_bernoulli_threshold, "smoothness exclusion cutoff 2^(-1/(n+1))"
    )
    p.add_argument("--n", type=int, required=True)
    p = command("bernoulli-verdict", _cmd_bernoulli_verdict, "smoothness verdict for (alpha, n)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    command("gram", _cmd_gram, "Gram matrix report for a wavelet system", system_input, tol)
    command("certify", _cmd_certify, "independence certificate for a wavelet system", system_input)
    command(
        "analyze", _cmd_analyze, "certificate first, numeric Gram verdict otherwise",
        system_input, tol,
    )
    return parser


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
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        output = args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (TwoscaleError, ValueError) as exc:
        _emit_error(exc)
        return 1
    if args.output_path:
        try:
            Path(args.output_path).write_text(output, encoding="utf-8")
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
