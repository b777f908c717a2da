"""Run the benchmark on several seeds and print each metric's spread.

Usage (from the root of a checkout):
  python3 benchmark/steadiness.py --workload NAME --seeds 1-10 [--trace 0|1]

For every metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, which is how the benchmark's bounds are judged.  The
run length is ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(report)
        print(f"seed {seed}: correct={report['correct']} attempted={report['attempted']} "
              f"failed={report['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()), flush=True)
    if len(runs) < 2:
        return 0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name}: median {median:.6g}  quartile spread {spread:.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share(s): {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
