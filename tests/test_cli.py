"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import json
import math
import shlex
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from twoscale import cli
from twoscale import serialize as ser
from twoscale.generators import Gaussian, Hat, SampledGenerator, TwoSidedExp
from twoscale.refinement import cascade_solve, preset
from twoscale.wavelet_system import WaveletPoint, WaveletSystem

README = Path(__file__).resolve().parents[1] / "README.md"
HAT_EQUATION = ser.equation_to_dict(preset("hat"))
# coefficients 0.5 + 0.3i, 1, 0.5 - 0.3i: a cascade with complex values
COMPLEX_EQUATION = {
    "lambda": 2,
    "terms": [{"c": [0.5, 0.3], "beta": 0}, {"c": [1, 0], "beta": 1}, {"c": [0.5, -0.3], "beta": 2}],
}


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def at_origin(generator):
    """A system document of the generator at the one point (1, 0)."""
    return {"generator": generator, "points": [{"lambda": 1, "beta": 0}]}


def sampled_at(values, step, *points):
    """A system document of the samples from 0 at the given step, at the points."""
    generator = {"kind": "sampled", "start": 0.0, "step": step, "values": values,
                 "support": [0.0, step * (len(values) - 1)]}
    return {"generator": generator, "points": [{"lambda": lam, "beta": beta} for lam, beta in points]}


def write_system(tmp_path, name, system):
    path = tmp_path / name
    path.write_text(ser.dump_json(ser.system_to_dict(system)), encoding="utf-8")
    return str(path)


# every flag of every command; each one but --threads is read by the handler
COMMAND_FLAGS = {
    "refine-solve": {"--output", "--threads", "--preset", "--input", "--alpha", "--tol", "--format",
                     "--gamma-max", "--resolution"},
    "refine-bound": {"--output", "--threads", "--preset", "--input", "--alpha"},
    "refine-validate": {"--output", "--threads", "--preset", "--input", "--alpha"},
    "refine-cascade": {"--output", "--threads", "--preset", "--input", "--alpha", "--format",
                       "--resolution", "--iterations"},
    "bernoulli-fourier": {"--output", "--threads", "--alpha", "--tol", "--format", "--gamma-max",
                          "--resolution"},
    "bernoulli-density": {"--output", "--threads", "--alpha", "--format", "--depth", "--bins"},
    "bernoulli-threshold": {"--output", "--threads", "--n"},
    "bernoulli-verdict": {"--output", "--threads", "--alpha", "--n"},
    "gram": {"--output", "--threads", "--input", "--tol"},
    "certify": {"--output", "--threads", "--input"},
    "analyze": {"--output", "--threads", "--input", "--tol"},
}


class TestRefineCommands:
    def test_bound_rham_golden(self, capsys):
        code, out, _ = run_cli(capsys, "refine-bound", "--preset", "rham")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mu_upper"] - 0.36907024642) <= 1e-9

    def test_validate_hat(self, capsys):
        code, out, _ = run_cli(capsys, "refine-validate", "--preset", "hat")
        doc = json.loads(out)
        assert code == 0
        assert doc["lemma_endpoint_pass"] is True
        assert doc["normalized"] is True
        assert doc["two_term_class"] is None

    def test_validate_bernoulli_two_term(self, capsys):
        code, out, _ = run_cli(capsys, "refine-validate", "--preset", "bernoulli", "--alpha", "0.5")
        doc = json.loads(out)
        assert doc["two_term_class"]["kind"] == "bounded_forces_unit_coeffs"

    def test_solve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "refine-solve", "--preset", "hat", "--format", "csv",
            "--gamma-max", "1", "--resolution", "0.5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,re,im"
        assert len(lines) == 6
        center = lines[3].split(",")
        assert float(center[0]) == 0.0 and float(center[1]) == 1.0

    def test_solve_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "refine-solve", "--preset", "rham", "--gamma-max", "2", "--resolution", "0.25")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_cascade_json_residuals(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-cascade", "--preset", "hat",
            "--resolution", "0.0078125", "--iterations", "8",
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["residuals"]) == 8
        assert doc["support"] == [0.0, 2.0]

    def test_cascade_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine-cascade", "--preset", "hat",
            "--resolution", "0.25", "--iterations", "4", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "x,value"

    def test_complex_cascade_json_pairs(self, capsys, tmp_path):
        eq = ser.equation_from_dict(COMPLEX_EQUATION)
        sampled, _ = cascade_solve(eq, 2.0**-6, 40)
        values, grid = sampled.values, sampled.grid
        assert values.dtype == np.complex128 and np.max(np.abs(values.imag)) > 0.4
        # phi(x) = sum c phi(2x - beta), with phi interpolated part by part
        image = sum(
            c * (np.interp(2.0 * grid - beta, grid, values.real, left=0.0, right=0.0)
                 + 1j * np.interp(2.0 * grid - beta, grid, values.imag, left=0.0, right=0.0))
            for c, beta in eq.terms
        )
        assert np.max(np.abs(values - image)) <= 1e-9
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(COMPLEX_EQUATION), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "refine-cascade", "--input", str(path),
            "--resolution", "0.015625", "--iterations", "40",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["values"] == [[v.real, v.imag] for v in values.tolist()]

    def test_equation_file_input(self, capsys, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(ser.dump_json(ser.equation_to_dict(preset("rham"))), encoding="utf-8")
        code, out, _ = run_cli(capsys, "refine-bound", "--input", str(path))
        assert code == 0
        assert abs(json.loads(out)["mu_upper"] - 0.36907024642) <= 1e-9


class TestBernoulliCommands:
    def test_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli-threshold", "--n", "1")
        assert code == 0
        assert abs(json.loads(out)["threshold"] - 0.7071067811865476) <= 1e-12

    def test_verdict_json(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli-verdict", "--alpha", "0.6", "--n", "1")
        doc = json.loads(out)
        assert doc == {
            "alpha": 0.6,
            "n": 1,
            "threshold": 0.7071067811865476,
            "verdict": "RuledOut",
        }

    @pytest.mark.parametrize(
        "argv",
        (["bernoulli-threshold"], ["bernoulli-verdict", "--alpha", "0.6"]),
        ids=("threshold", "verdict"),
    )
    def test_huge_order_is_a_result(self, capsys, argv):
        # n + 1 is past the float range: the exponent -1 / (n + 1) is formed
        # from the integers, and 2^(-1/(n+1)) rounds to 1
        n = 10**400
        code, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["n"] == n and doc["threshold"] == 1.0
        assert doc.get("verdict", "RuledOut") == "RuledOut"

    def test_fourier_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli-fourier", "--alpha", "0.5",
            "--gamma-max", "0.5", "--resolution", "0.25", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "gamma,re,im\n"
            "-0.5,3.8981718384912362e-17,0\n"
            "-0.25,0.63661977334286024,0\n"
            "0,1,0\n"
            "0.25,0.63661977334286024,0\n"
            "0.5,3.8981718384912362e-17,0\n"
        )

    def test_fourier_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli-fourier", "--alpha", "0.5", "--gamma-max", "0.5", "--resolution", "0.25",
        )
        assert code == 0
        assert json.loads(out) == {
            "alpha": 0.5,
            "grid": [-0.5, -0.25, 0.0, 0.25, 0.5],
            "values": [3.898171838491236e-17, 0.6366197733428602, 1.0, 0.6366197733428602,
                       3.898171838491236e-17],
        }

    def test_density_csv_mass(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli-density", "--alpha", "0.5",
            "--depth", "10", "--bins", "16", "--format", "csv",
        )
        lines = out.strip().splitlines()
        masses = [float(line.split(",")[2]) for line in lines[1:]]
        assert code == 0
        assert sum(masses) == 1.0

    def test_alpha_out_of_range_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli-density", "--alpha", "1.5", "--depth", "4")
        assert code == 1
        assert json.loads(err)["error"] == "BadParameterError"


class TestSystemCommands:
    def test_analyze_certified(self, capsys, tmp_path):
        system = WaveletSystem(Gaussian(), [WaveletPoint(1, 0), WaveletPoint(2, 1), WaveletPoint(3, -1)])
        path = write_system(tmp_path, "gaussian.json", system)
        code, out, _ = run_cli(capsys, "analyze", "--input", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == "IndependentCertified"
        assert doc["rule_id"] == "ExpDecay_L31a"
        assert doc["citation"]

    def test_analyze_dependent_hat_lattice(self, capsys, tmp_path):
        system = WaveletSystem(
            Hat(),
            [WaveletPoint(1, 0), WaveletPoint(2, 0), WaveletPoint(2, 1), WaveletPoint(2, 2)],
        )
        path = write_system(tmp_path, "hat.json", system)
        code, out, _ = run_cli(capsys, "analyze", "--input", path, "--tol", "1e-10")
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == "Dependent"
        null = np.array([complex(re, im) for re, im in doc["null_vector"]])
        target = np.array([1.0, -0.5, -1.0, -0.5])
        target = target / np.linalg.norm(target)
        null = null.real / np.linalg.norm(null.real)
        assert min(np.max(np.abs(null - target)), np.max(np.abs(null + target))) <= 1e-6

    def test_sampled_hat_declared_ft_vanishes_near_zero_is_refused(self, capsys, tmp_path):
        # hat(x) = hat(2x) / 2 + hat(2x - 1) + hat(2x - 2) / 2: the samples are dependent,
        # and a compactly supported transform vanishing near 0 would make them 0
        points = [WaveletPoint(1, 0), WaveletPoint(2, 0), WaveletPoint(2, 1), WaveletPoint(2, 2)]
        doc = ser.system_to_dict(WaveletSystem(SampledGenerator(Hat().sampled), points))
        doc["generator"]["tags"] = ["ft_vanishes_near_zero"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "InconsistentTagsError"
        assert "'compact_support'" in error["message"] and "'ft_vanishes_near_zero'" in error["message"]
        path = write_system(tmp_path, "hat.json", WaveletSystem(Hat(), points))
        code, out, _ = run_cli(capsys, "analyze", "--input", path)
        assert code == 0 and json.loads(out)["outcome"] == "Dependent"

    @pytest.mark.parametrize(
        "generator,points,untagged",
        (
            # hat(x) = hat(2x) / 2 + hat(2x - 1) + hat(2x - 2) / 2: a dependent system
            ({"kind": "hat", "tags": ["schwartz", "ft_abs_ultimately_decreasing_both_sides"]},
             ((1, 0), (2, 0), (2, 1), (2, 2)), ("Dependent", None)),
            ({"kind": "two_sided_exp", "n": 1, "tags": ["schwartz"]},
             ((1, 0), (1, 1), (1, 2)), ("IndependentCertified", "LECombination_T42")),
            ({"kind": "gaussian", "tags": ["ft_compact_support"]},
             ((1, 0), (2, 1)), ("IndependentCertified", "ExpDecay_L31a")),
            # 1 / (1 + x^4): no pole is purely imaginary
            ({"kind": "rational", "numerator": [1], "denominator": [1, 0, 0, 0, 1],
              "tags": ["ft_le_combination"]},
             ((1, 0), (2, 1)), ("IndependentCertified", "SmoothMinDilation_L31c")),
        ),
        ids=("hat", "two_sided_exp", "gaussian", "rational"),
    )
    def test_tags_the_kind_lacks_are_refused(self, capsys, tmp_path, generator, points, untagged):
        doc = {"generator": generator, "points": [{"lambda": a, "beta": b} for a, b in points]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("analyze", "certify", "gram"):
            code, out, err = run_cli(capsys, command, "--input", str(path))
            assert code == 1 and out == ""
            error = json.loads(err)
            assert error["error"] == "InconsistentTagsError"
            assert all(repr(tag) in error["message"] for tag in generator["tags"])
            assert generator["kind"] in error["message"]
        doc["generator"] = {key: value for key, value in generator.items() if key != "tags"}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        verdict = json.loads(out)
        assert code == 0 and (verdict["outcome"], verdict["rule_id"]) == untagged

    def test_gram_report(self, capsys, tmp_path):
        system = WaveletSystem(Hat(), [WaveletPoint(1, 0), WaveletPoint(2, 0)])
        path = write_system(tmp_path, "pair.json", system)
        code, out, _ = run_cli(capsys, "gram", "--input", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["sigma_min"] > 0
        assert len(doc["matrix"]) == 2

    def test_certify_none_for_hat(self, capsys, tmp_path):
        system = WaveletSystem(Hat(), [WaveletPoint(1, 0)])
        path = write_system(tmp_path, "hat1.json", system)
        code, out, _ = run_cli(capsys, "certify", "--input", path)
        assert code == 0
        assert json.loads(out)["certificate"] is None

    @pytest.mark.parametrize("generator", (TwoSidedExp(1), Gaussian()), ids=("exp1", "gaussian"))
    def test_subnormal_translation_is_silent(self, capsys, tmp_path, generator):
        # the two origins beta / lambda are 0 and 5e-324, closer than any
        # panel can be narrow
        system = WaveletSystem(generator, [WaveletPoint(1, 0), WaveletPoint(1, 5e-324)])
        path = write_system(tmp_path, "subnormal.json", system)
        code, out, err = run_cli(capsys, "gram", "--input", path)
        assert code == 0 and err == ""
        assert len(json.loads(out)["matrix"]) == 2

    def test_far_gaussian_translation_is_a_result(self, capsys, tmp_path):
        # origins 0.45 and 3.2e299: a truncation window there collapses in
        # rounding, the closed form pairs them in relative coordinates
        doc = {"generator": {"kind": "gaussian"},
               "points": [{"lambda": 2.47, "beta": 1.1}, {"lambda": 3.11, "beta": 1e300}]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "gram", "--input", str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        matrix = np.array([[complex(*z) for z in row] for row in report["matrix"]])
        exact = np.diag([math.sqrt(math.pi / 2.0) / lam for lam in (2.47, 3.11)])
        assert report["quad_error"] <= 1e-15
        assert np.max(np.abs(matrix - exact)) <= report["quad_error"]

    def test_threads_flag_output_identical(self, capsys, tmp_path):
        system = WaveletSystem(Hat(), [WaveletPoint(1, 0), WaveletPoint(2, 0), WaveletPoint(2, 1)])
        path = write_system(tmp_path, "threads.json", system)
        _, out1, _ = run_cli(capsys, "gram", "--input", path, "--threads", "1")
        _, out2, _ = run_cli(capsys, "gram", "--input", path, "--threads", "4")
        assert out1 == out2


class TestProcessContract:
    def test_help_lists_every_command(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for command in cli.COMMANDS:
            assert command in out

    def test_subcommand_help(self, capsys):
        code, out, _ = run_cli(capsys, "refine-solve", "--help")
        assert code == 0
        for flag in ("--input", "--output", "--tol", "--format", "--gamma-max", "--resolution"):
            assert flag in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "refine-bound", "--bogus")
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 2

    def test_missing_input_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gram")
        assert code == 2

    def test_bad_tol_is_usage_error(self, capsys, tmp_path):
        path = write_system(tmp_path, "sys.json", WaveletSystem(Hat(), [WaveletPoint(1, 0)]))
        code, out, _ = run_cli(capsys, "gram", "--input", path, "--tol", "-1")
        assert code == 2 and out == ""

    def test_each_command_declares_the_flags_it_reads(self):
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {flag for action in command._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, command in sub.choices.items()
        }
        assert declared == COMMAND_FLAGS and set(declared) == set(cli.COMMANDS)
        assert sum(len(flags) for flags in declared.values()) == 58

    @pytest.mark.parametrize(
        "argv",
        (
            ["gram", "--input", "{system}", "--format", "csv"],
            ["certify", "--input", "{system}", "--tol", "1e-3"],
            ["bernoulli-threshold", "--n", "1", "--input", "{system}"],
            ["refine-bound", "--preset", "hat", "--input", "{equation}"],
            ["refine-bound", "--alpha", "0.5"],
            ["refine-solve", "--preset", "hat", "--resolution", "0"],
            ["refine-cascade", "--preset", "hat", "--resolution", "0"],
            ["refine-cascade", "--preset", "hat", "--resolution", "-1"],
            ["bernoulli-fourier", "--alpha", "0.5", "--resolution", "0"],
            ["bernoulli-fourier", "--alpha", "0.5", "--gamma-max", "nan"],
            ["gram", "--input", "{system}", "--tol", "nan"],
            ["gram", "--input", "{system}", "--threads", "0"],
        ),
        ids=("gram-format", "certify-tol", "threshold-input", "preset-and-input", "no-equation",
             "solve-resolution-0", "cascade-resolution-0", "cascade-resolution-negative",
             "fourier-resolution-0", "fourier-gamma-max-nan", "tol-nan", "threads-0"),
    )
    def test_undeclared_flag_or_bad_value_is_usage_error(self, capsys, tmp_path, argv):
        system = WaveletSystem(Hat(), [WaveletPoint(1, 0)])
        files = {"system": write_system(tmp_path, "sys.json", system), "equation": tmp_path / "eq"}
        files["equation"].write_text(ser.dump_json(HAT_EQUATION))
        code, out, err = run_cli(capsys, *(arg.format(**files) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("usage: twoscale ")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([command, "--preset", "bernoulli", "--alpha", a], id=f"{command}-{a}")
            for command in ("refine-solve", "refine-bound", "refine-validate", "refine-cascade")
            for a in ("0", "-0.0", "1.5")
        ]
        + [pytest.param(["refine-cascade", "--preset", "hat", "--iterations", "-1"], id="cascade")],
    )
    def test_bad_parameter_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadParameterError"

    @pytest.mark.parametrize(
        "argv",
        (
            ["refine-bound", "--preset", "rham", "--alpha", "7"],
            ["refine-solve", "--input", "{equation}", "--alpha", "0.5"],
            ["refine-validate", "--preset", "bernoulli(2)", "--alpha", "0.9"],
        ),
        ids=("other-preset", "input", "inline-bernoulli"),
    )
    def test_alpha_without_bernoulli_preset_is_usage_error(self, capsys, tmp_path, argv):
        equation = tmp_path / "eq.json"
        equation.write_text(ser.dump_json(HAT_EQUATION), encoding="utf-8")
        code, out, err = run_cli(capsys, *(arg.format(equation=equation) for arg in argv))
        assert code == 2 and out == ""
        assert err == "usage error: --alpha applies only to --preset bernoulli\n"

    @pytest.mark.parametrize(
        "argv",
        (
            ["refine-solve", "--preset", "rham", "--tol", "inf"],
            ["refine-solve", "--preset", "bernoulli", "--alpha", "0.6", "--tol", "inf"],
            ["refine-solve", "--preset", "bernoulli", "--alpha", "1e-300"],
            ["bernoulli-fourier", "--alpha", "0.6", "--tol", "inf"],
            ["bernoulli-fourier", "--alpha", "1e-300"],
        ),
        ids=("solve-rham-tol-inf", "solve-bernoulli-tol-inf", "solve-alpha-1e-300",
             "fourier-tol-inf", "fourier-alpha-1e-300"),
    )
    def test_fourier_product_takes_one_level_where_the_tail_is_negligible(self, capsys, argv):
        # an infinite tolerance accepts any tail; at lambda = 1e300 the
        # quadratic term's lambda^2 - 1 overflows and every later level rounds to 1
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        doc = json.loads(out)
        values = np.array(doc["values"], dtype=float)
        assert values.shape[0] == 1025 and np.all(np.isfinite(values))
        if argv[0] == "refine-solve":
            assert doc["truncation_depth"] == 1 and math.isfinite(doc["tail_bound"])
        else:
            grid = np.array(doc["grid"])
            assert np.array_equal(values, np.cos(2.0 * np.pi * (grid / (1.0 / doc["alpha"]))))

    @pytest.mark.parametrize("command", ("refine-solve", "bernoulli-fourier"))
    def test_alpha_whose_reciprocal_overflows_is_invalid_equation(self, capsys, command):
        argv = [command, "--alpha", "1e-320"]
        if command == "refine-solve":
            argv += ["--preset", "bernoulli"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InvalidEquationError"

    def test_readme_commands_run(self, capsys, tmp_path, monkeypatch):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.splitlines()]
        assert {argv[1] for argv in commands} == set(cli.COMMANDS)
        system = WaveletSystem(Gaussian(), [WaveletPoint(1, 0), WaveletPoint(2, 1)])
        write_system(tmp_path, "system.json", system)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert argv[0] == "twoscale"
            code, out, err = run_cli(capsys, *argv[1:])
            assert (code, err) == (0, ""), argv
            assert out

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"generator": {\n  "kind": }\n}', encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ParseError"
        assert doc["line"] == 2

    @pytest.mark.parametrize(
        "command,prefix",
        (
            ("analyze", '{"generator": {"kind": "gaussian"}, "points": '),
            ("refine-solve", '{"lambda": 2, "terms": '),
        ),
        ids=("system", "equation"),
    )
    def test_deeply_nested_json_is_a_parse_error(self, capsys, tmp_path, command, prefix):
        # 1,100 nested lists, past the depth the JSON parser recurses to
        path = tmp_path / "nested.json"
        path.write_text(prefix + "[" * 1100 + "]" * 1100 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError", "message": "invalid JSON: nested too deeply"
        }

    @pytest.mark.parametrize(
        "command,doc,error",
        (
            (
                "gram",
                {"generator": {"kind": "gaussian"}, "points": [{"lambda": [1], "beta": 0}]},
                "ParseError",
            ),
            (
                "gram",
                {
                    "generator": {
                        "kind": "sampled", "start": 0.0, "step": None,
                        "values": [0.0, 1.0, 0.0], "support": [0.0, 2.0],
                    },
                    "points": [{"lambda": 1, "beta": 0}],
                },
                "ParseError",
            ),
            (
                "refine-validate",
                {"lambda": 2, "terms": [{"c": [None, 0], "beta": 0}, {"c": [1, 0], "beta": 1}]},
                "ParseError",
            ),
            ("refine-validate", {"lambda": float("inf"), "terms": [{"c": 1, "beta": 0}]},
             "InvalidEquationError"),
            (
                "refine-validate",
                {"lambda": 2, "terms": [{"c": 1, "beta": float("nan")}, {"c": 1, "beta": 1}]},
                "InvalidEquationError",
            ),
            (
                "refine-validate",
                {"lambda": 2, "terms": [{"c": [float("nan"), 0], "beta": 0}, {"c": 1, "beta": 1}]},
                "InvalidEquationError",
            ),
            # finite shift and window, but a phase 2 pi |shift| gamma past the float range
            (
                "gram",
                {"generator": {"kind": "le_catalog", "id": "sech"},
                 "points": [{"lambda": 1.7e308, "beta": 1e308}, {"lambda": 1, "beta": -1e308}]},
                "BadParameterError",
            ),
            ("gram", {"generator": {"kind": "gaussian"}, "points": [{"lambda": -1, "beta": 0}]},
             "BadParameterError"),
            ("gram", {"generator": {"kind": "gaussian"},
                      "points": [{"lambda": float("inf"), "beta": 0}]}, "BadParameterError"),
            ("gram", at_origin({"kind": "rational", "numerator": [1], "denominator": [1, 0, -1]}),
             "BadParameterError"),
            ("gram", at_origin({"kind": "rational", "numerator": [0], "denominator": [1, 0, 1]}),
             "BadParameterError"),
            ("gram", at_origin({"kind": "two_sided_exp", "n": 0}), "BadParameterError"),
            ("gram", at_origin({"kind": "le_catalog", "id": "nope"}), "BadParameterError"),
            ("gram", at_origin({"kind": "sampled", "start": 0.0, "step": 1.0,
                                "values": [0.0, 0.0, 0.0], "support": [0.0, 2.0]}),
             "BadParameterError"),
            ("gram", at_origin({"kind": "refinement", "equation": HAT_EQUATION,
                                "resolution": 0, "iterations": 4}), "BadParameterError"),
            ("gram", at_origin({"kind": "refinement", "equation": HAT_EQUATION,
                                "resolution": 0.25, "iterations": -1}), "BadParameterError"),
            # products of sampled values, their sums or their integrals past the float range
            ("gram", sampled_at([0, 1e200, 0], 1.0, (1, 0), (2, 0)), "BadParameterError"),
            ("gram", sampled_at([0, 1e200, -1e200, 0], 1.0, (1, 0), (1.5, 0)),
             "BadParameterError"),
            ("gram", sampled_at([0, 1e10, 0], 1e300, (1, 0), (2, 0)), "BadParameterError"),
            ("gram", sampled_at([0, 5e153, 5e153, 5e153, 5e153, 0], 5.0, (1, 0), (1, 1)),
             "BadParameterError"),
            ("gram", sampled_at([0, 1.5e308, -1.5e308, 0], 1.0, (1, 0)), "BadParameterError"),
            # a complex cascade is refused, not paired or written by its real part
            ("gram", {"generator": {"kind": "refinement", "equation": COMPLEX_EQUATION},
                      "points": [{"lambda": 1, "beta": 0}, {"lambda": 2, "beta": 0}]},
             "InvalidEquationError"),
            ("refine-cascade --format csv", COMPLEX_EQUATION, "BadParameterError"),
        ),
        ids=("point-list", "sampled-null-step", "null-coefficient", "infinite-lambda",
             "nan-beta", "nan-coefficient", "sech-phase-overflow", "negative-dilation",
             "infinite-dilation", "rational-real-poles", "rational-zero-numerator",
             "exp-rate-0", "unknown-catalog-id", "zero-sampled", "refinement-resolution-0",
             "refinement-negative-iterations", "sampled-product-overflow",
             "sampled-sum-overflow", "sampled-width-overflow", "sampled-fsum-overflow",
             "sampled-slope-overflow", "complex-refinement-gram", "complex-cascade-csv"),
    )
    def test_bad_field_is_domain_error(self, capsys, tmp_path, command, doc, error):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, *command.split(), "--input", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("command", ("gram", "analyze"))
    @pytest.mark.parametrize(
        "doc,named",
        (
            # r = lambda_q / lambda_p overflows
            (sampled_at([0, 1, 0], 1.0, (1e-300, 0), (1e10, 0)), "(1e-300, 0) and (1e+10, 0)"),
            # r beta_p overflows
            (sampled_at([0, 1, 0], 1.0, (1, 1e300), (1e10, 0)), "(1, 1e+300) and (1e+10, 0)"),
            # s = beta_q - r beta_p overflows
            (sampled_at([0, 1, 0], 1.0, (1, -8e307), (1.5, 8e307)),
             "(1, -8e+307) and (1.5, 8e+307)"),
            # J / lambda_p overflows
            (sampled_at([0, 1e3, 0], 1.0, (1e-303, 0)), "(1e-303, 0) and (1e-303, 0)"),
        ),
        ids=("ratio", "scaled-translation", "shift", "scaled-entry"),
    )
    def test_overflowing_normalization_is_domain_error(self, capsys, tmp_path, command, doc, named):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        report = json.loads(err)
        assert report["error"] == "BadParameterError"
        assert f"points {named}" in report["message"]

    @pytest.mark.parametrize(
        "denominator",
        ([math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0], [1e300, 0.0, 1e-300]),
        ids=("nan", "inf", "companion-overflow"),
    )
    def test_unusable_rational_coefficients_are_domain_errors(self, capsys, tmp_path, denominator):
        # np.roots raised an untyped LinAlgError on these, after an overflow
        # warning for the last, whose companion matrix holds 1e600
        doc = at_origin({"kind": "rational", "numerator": [1.0], "denominator": denominator})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "gram", "--input", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadParameterError"

    @pytest.mark.parametrize(
        "argv,doc",
        (
            (["refine-solve", "--preset", "hat", "--gamma-max", "1e6", "--resolution", "1e-6"], None),
            (["bernoulli-fourier", "--alpha", "0.5", "--gamma-max", "inf"], None),
            (["refine-cascade", "--preset", "hat", "--resolution", "1e-9"], None),
            (["bernoulli-fourier", "--alpha", "0.9999999", "--gamma-max", "1", "--resolution", "0.5"], None),
            (["refine-solve", "--preset", "bernoulli", "--alpha", "0.9999999", "--gamma-max", "1",
              "--resolution", "0.5"], None),
            # tol/2 rounds to 0, so no finite depth meets it
            (["refine-solve", "--preset", "rham", "--tol", "5e-324"], None),
            (["bernoulli-fourier", "--alpha", "0.6", "--tol", "5e-324"], None),
            (["bernoulli-density", "--alpha", "0.5", "--depth", "4", "--bins", "1099511627776"], None),
            (["bernoulli-density", "--alpha", "0.5", "--depth", "1000000000000", "--bins", "4"], None),
            (
                ["gram"],
                {
                    "generator": {"kind": "refinement", "equation": ser.equation_to_dict(preset("hat")),
                                  "resolution": 2.0**-10, "iterations": 1e9},
                    "points": [{"lambda": 1, "beta": 0}],
                },
            ),
        ),
        ids=("solve-grid", "fourier-infinite-grid", "cascade-grid", "fourier-depth", "solve-depth",
             "solve-tol-subnormal", "fourier-tol-subnormal", "density-bins", "density-depth",
             "cascade-iterations"),
    )
    def test_grid_budget_is_domain_error(self, capsys, tmp_path, argv, doc):
        if doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = argv + ["--input", str(path)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BudgetExceededError"

    def test_system_size_budget_is_domain_error(self, capsys, tmp_path):
        # 3,000 points give 4,501,500 Gram entries, above GRID_BUDGET; the
        # matrix alone would take 144 MB
        doc = {"generator": {"kind": "gaussian"},
               "points": [{"lambda": 1.0, "beta": float(k)} for k in range(3000)]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "gram", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BudgetExceededError"
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "argv",
        (
            ["bernoulli-fourier", "--alpha", "0.5", "--gamma-max", "1e300", "--resolution", "1e299"],
            ["bernoulli-fourier", "--alpha", "0.6", "--gamma-max", "1e200", "--resolution", "1e199"],
            ["refine-solve", "--preset", "hat", "--gamma-max", "1e300", "--resolution", "1e299"],
        ),
        ids=("fourier-overflow", "fourier-1e200", "solve-overflow"),
    )
    def test_huge_finite_frequencies_run(self, capsys, argv):
        # the depth rule's quotient passes the float range, its log does not
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        values = np.array(json.loads(out)["values"], dtype=float)
        assert values.shape[0] == 21 and np.all(np.isfinite(values))

    @pytest.mark.parametrize(
        "argv",
        (
            ["bernoulli-fourier", "--alpha", "0.6", "--gamma-max", "8e307", "--resolution", "1e307"],
            ["refine-solve", "--preset", "rham", "--gamma-max", "8e307", "--resolution", "1e307"],
            # 35 points: 2 gamma_max alone would overflow
            ["bernoulli-fourier", "--alpha", "0.6", "--gamma-max", "1.7e308", "--resolution", "1e307"],
            ["refine-solve", "--preset", "rham", "--gamma-max", "1.7e308", "--resolution", "1e307"],
        ),
        ids=("fourier", "solve", "fourier-35-points", "solve-35-points"),
    )
    def test_overflowing_phase_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadParameterError"

    def test_grid_near_float_max_fits_the_budget(self):
        assert cli._frequency_grid(1.7e308, 1e307).size == 35

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "/nonexistent/zzz.json")
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_unknown_preset_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "refine-bound", "--preset", "mystery")
        assert code == 1
        assert json.loads(err)["error"] == "BadParameterError"

    def test_output_file_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out_path in (out1, out2):
            code = cli.run(
                ["refine-solve", "--preset", "hat", "--gamma-max", "4",
                 "--resolution", "0.125", "--output", str(out_path)]
            )
            capsys.readouterr()
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_emitted_json_reparses_identically(self, capsys, tmp_path):
        system = WaveletSystem(Gaussian(), [WaveletPoint(1, 0)])
        path = write_system(tmp_path, "sys.json", system)
        # points (2^j, k) for j < 3 and k = 0 .. 2^(j+1) - 2: a dependent system
        lattice = [WaveletPoint(2.0**j, k) for j in range(3) for k in range(2 ** (j + 1) - 1)]
        lattice_path = write_system(tmp_path, "lattice.json", WaveletSystem(Hat(), lattice))
        for argv in (
            ["refine-bound", "--preset", "rham"],
            ["refine-validate", "--preset", "bernoulli", "--alpha", "0.4"],
            ["bernoulli-threshold", "--n", "3"],
            ["analyze", "--input", path],
            ["gram", "--input", lattice_path],
            ["bernoulli-fourier", "--alpha", "0.6", "--gamma-max", "4", "--resolution", "0.125"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.dumps(json.loads(out), indent=2) + "\n" == out
