"""Timed passes of one workload, in one process, through ``twoscale.cli.run``.

Usage: python3 worker.py MANIFEST SECONDS TRACE RESULT   (cwd: the run dir)

A closed loop with one client: the commands of a pass run back to back, and
passes repeat until SECONDS have gone by (at least ``MIN_PASSES`` of each
kind), so every run attempts whole passes.  Standard output and error of
each command are captured in memory.  The first pass's outputs go to RESULT
for checking; every later pass must reproduce them byte for byte.

The host's speed drifts by a fifth or more within seconds, and a pass slows
with it.  So during untraced passes a ``SIGALRM`` handler runs a fixed probe
of interpreter and small-array numpy work (``probe``, no twoscale) every
``SAMPLE_EVERY_S`` of wall time, on the same thread and core as the
commands.  Each pass reports its wall time less the probes' time, and the
mean probe time during it; run.py scales the one by the other.

With TRACE = 1, traced and untraced passes alternate, with no probes: the
traced ones give the per-layer metrics, the untraced ones the base for the
tracing overhead.  After the timed passes, every command run with
``--threads N`` is run once more with ``--threads 1`` (untimed) to compare
their outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
import traceback

import numpy as np

import twoscale
from twoscale import cli

MIN_PASSES = 3
SAMPLE_EVERY_S = 0.05
_PROBE_VECTOR = np.arange(15.0)


def probe() -> float:
    """Wall time of a fixed piece of interpreter and small-array numpy work."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(150):
        total += float(np.dot(_PROBE_VECTOR, np.abs(_PROBE_VECTOR * 0.5 - 1.0)))
    return time.perf_counter() - start


class HostSpeedSampler:
    """Times ``probe`` from a SIGALRM handler while the context is open."""

    def __init__(self):
        self.samples: list = []

    def _handler(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _peak_rss_kib() -> int:
    """High-water resident set of this process's own address space.

    ``getrusage`` is no use here: after fork and exec it reports at least
    the parent's resident set at the fork, and run.py holds scipy.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_command(argv: list, run=cli.run) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_pass(commands: list, run, sampler: HostSpeedSampler | None, first: list | None) -> tuple:
    """(outputs, indices differing from ``first``, wall seconds less probe
    time, mean probe seconds or None).

    Without ``first`` the outputs are kept.  With it each output is compared
    as soon as it is made and dropped, so that the memory the benchmark holds
    while a command runs does not depend on the order of the commands.
    """
    outputs, differ = [], []
    seen = len(sampler.samples) if sampler else 0
    start = time.perf_counter()
    for k, command in enumerate(commands):
        output = run_command(command, run)
        if first is None:
            outputs.append(output)
        elif output != first[k]:
            differ.append(k)
    elapsed = time.perf_counter() - start
    if sampler is None:
        return outputs, differ, elapsed, None
    probes = sampler.samples[seen:]
    if not probes:  # a pass shorter than the sampling interval
        return outputs, differ, elapsed, probe()
    return outputs, differ, elapsed - sum(probes), sum(probes) / len(probes)


def main(argv: list) -> int:
    manifest_path, seconds, trace, result_path = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with open(manifest_path, encoding="utf-8") as fh:
        commands = [c["argv"] for c in json.load(fh)["commands"]]

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    first = None
    mismatches = []
    passes = {"untraced": [], "traced": []}  # (seconds, mean probe seconds)
    layers = []
    started = time.perf_counter()
    index = 0
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    with contextlib.ExitStack() as stack:
        sampler = None if trace else stack.enter_context(HostSpeedSampler())
        while index < min_passes or time.perf_counter() - started < seconds:
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.install()
                run = lambda a: tracer.call("cli", cli.run, (a,), {})  # noqa: E731
            else:
                run = cli.run
            outputs, differ, elapsed, speed = run_pass(commands, run, sampler, first)
            passes["traced" if traced else "untraced"].append((elapsed, speed))
            if traced:
                tracer.uninstall()
                layers.append(tracer.take())
            if first is None:
                first = outputs
            mismatches.extend({"pass": index, "command": k} for k in differ)
            index += 1
    peak_rss_kib = _peak_rss_kib()

    thread_mismatches = []
    for k, command in enumerate(commands):
        if "--threads" in command:
            serial = list(command)
            serial[serial.index("--threads") + 1] = "1"
            if run_command(serial) != first[k]:
                thread_mismatches.append(k)

    result = {
        "twoscale_file": twoscale.__file__,
        "passes": index,
        "pass_s": passes["untraced"],
        "traced_pass_s": passes["traced"],
        "layers": layers,
        "peak_rss_kib": peak_rss_kib,
        "outputs": [{"code": c, "stdout": o, "stderr": e} for c, o, e in first],
        "mismatches": mismatches,
        "thread_mismatches": thread_mismatches,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
