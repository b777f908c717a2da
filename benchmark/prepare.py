"""Set-up step of one run: import twoscale and write the workload's inputs.

Usage: python3 benchmark/prepare.py WORKLOAD SEED RUN_DIR

run.py starts this in a fresh interpreter several times and reports the
median wall time as ``setup_s``.  It writes every input document and
``manifest.json`` (the command list of one pass) into RUN_DIR.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import twoscale.cli  # noqa: F401  (the import is part of what set-up measures)

import workloads


def main(argv: list) -> int:
    workload, seed, run_dir = argv[0], int(argv[1]), Path(argv[2])
    docs, commands = workloads.build(workload, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (run_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "commands": commands}
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
