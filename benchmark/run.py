"""Benchmark of the twoscale command line, driven in process.

Usage (from the root of a checkout):
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

One run:
  1. set-up: ``SETUP_REPEATS`` fresh interpreters each import twoscale and
     write the workload's input documents (prepare.py); ``setup_s`` is the
     median of their wall times;
  2. passes: one more interpreter (worker.py) runs whole passes over the
     workload's commands through ``twoscale.cli.run`` for S seconds;
     ``pass_s`` is the median pass time, each pass scaled to the reference
     host speed by the probes timed during it (see worker.py), and
     ``peak_rss_mib`` that interpreter's peak resident memory;
  3. checks: every command's first-pass output is checked against references
     computed without twoscale (checks.py, references.py); later passes must
     repeat it byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Findings go to
standard error.  Run files are kept under ``.bench_run/`` only while the run
lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
# worker.probe's time at the reference host speed; pass_s is reported at it
PROBE_REFERENCE_S = 0.00055


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _setup(workload: str, seed: int, run_dir: Path, env: dict) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(run_dir)],
            cwd=ROOT, env=env,
        )
        # a wait with a timeout polls in steps of up to 50 ms, which would
        # show in the time; wait without one and let a timer kill a hung child
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return statistics.median(times)


def _run_worker(run_dir: Path, seconds: int, trace: bool, env: dict) -> dict:
    result_path = run_dir / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "manifest.json", str(seconds),
         "1" if trace else "0", str(result_path)],
        cwd=run_dir, env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _per_layer(result: dict) -> dict:
    """Medians over the traced passes, plus the tracing overhead.

    These are raw wall times: traced and untraced passes alternate, so the
    host's drift falls on both alike.
    """
    layers = result["layers"]
    out = {}
    for name in list(tracing.SELF_TIME_METRICS.values()) + list(tracing.COUNT_METRICS):
        out[name] = statistics.median(layer[name] for layer in layers)
    busy = [layer["numerics.quad_s"] + layer["generators.integrand_s"] for layer in layers]
    evals = [layer["numerics.quad_evals"] for layer in layers]
    out["numerics.evals_per_s"] = statistics.median(
        e / b if b > 0.0 else 0.0 for e, b in zip(evals, busy)
    )
    traced = statistics.median(t for t, _ in result["traced_pass_s"])
    out["trace.pass_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(t for t, _ in result["pass_s"])
    out["trace.unaccounted_s"] = statistics.median(
        t - sum(layer[m] for m in tracing.SELF_TIME_METRICS.values())
        for (t, _), layer in zip(result["traced_pass_s"], layers)
    )
    return out


def _host_scaled_pass_s(passes: list) -> float:
    """Median pass time at the reference host speed (see worker.probe)."""
    return statistics.median(t * PROBE_REFERENCE_S / probe for t, probe in passes)


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "twoscale" / "cli.py").is_file():
        sys.stderr.write(f"no twoscale sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = _environment()
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = _setup(args.workload, args.seed, run_dir, env)
        result = _run_worker(run_dir, args.seconds, bool(args.trace), env)
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        commands = manifest["commands"]

        correct = True
        problems = []
        if Path(result["twoscale_file"]).resolve().parent != ROOT / "src" / "twoscale":
            correct = False
            problems.append(f"worker imported twoscale from {result['twoscale_file']}")
        if result["mismatches"]:
            correct = False
            problems.append(f"outputs differ between passes: {result['mismatches'][:5]}")
        for k in result["thread_mismatches"]:
            correct = False
            problems.append(f"--threads 1 output differs: {commands[k]['argv']}")
        failed_per_pass = 0
        for command, output in zip(commands, result["outputs"]):
            findings = checks.check_command(command, output["code"], output["stdout"], run_dir)
            label = " ".join(command["argv"])
            if findings.broken:
                correct = False
                problems.append(f"{label}: broken invariant: {'; '.join(findings.broken)}")
            if findings.misses:
                failed_per_pass += 1
                fault = f" (known fault {command['fault']})" if command["fault"] else ""
                problems.append(f"{label}: failed{fault}: {'; '.join(findings.misses)}")
                if output["stderr"]:
                    problems.append(output["stderr"].strip()[-2000:])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = result["passes"]
    if args.trace:
        values = _per_layer(result)
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": _host_scaled_pass_s(result["pass_s"]),
            "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        }
    units = _units()
    for line in problems:
        sys.stderr.write(line + "\n")
    summary = (
        f"{args.workload} seed {args.seed}: {passes} passes of {len(commands)} commands, "
        f"{failed_per_pass} failed per pass"
    )
    if not args.trace:
        raw = statistics.median(t for t, _ in result["pass_s"])
        probe = statistics.median(p for _, p in result["pass_s"])
        summary += f"; unscaled pass {raw:.4f} s, probe {probe * 1e3:.4f} ms"
    sys.stderr.write(summary + "\n")
    report = {
        "correct": correct,
        "attempted": passes * len(commands),
        "failed": passes * failed_per_pass,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
