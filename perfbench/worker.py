"""Runs one workload's CLI commands in this process and writes what happened.

    python3 perfbench/worker.py PLAN.json RESULT.json

``PLAN.json`` holds ``argvs`` (one argv per command), ``seconds`` and
``trace``.  Each command calls ``latgraph.cli.main`` with stdout and stderr
captured.

Untraced: one full pass over the commands, then more passes in which a
command takes a turn only if its last turn still fits in ``seconds``, so
the run ends near ``seconds``.
Set-up, a fresh interpreter importing ``latgraph.cli``, is timed a few times
before the first pass and then between turns all through the run.
Traced: one traced pass, so call counts do not depend on timing, then one
untraced pass to measure the tracing overhead.  The traced pass comes first
so that the rise of the peak RSS, a high-water mark, shows in its spans.
``RESULT.json`` holds every execution (command index, seconds, exit code,
stdout, stderr), the peak RSS of this process, and either the set-up times
or, when traced, the spans and both pass times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import latgraph.cli
from tracing import Tracer

# After the first pass, cheap commands repeat back to back for at least this
# long per turn, so a command of a few milliseconds collects several samples
# each time it runs.  The first pass runs each command once, so that its
# allocations, and with them the garbage collector's timing and the peak
# RSS, do not depend on how fast the machine is.
MIN_BATCH_S = 0.05

# Set-up is timed this many times before the first pass, then between turns
# at most once every IMPORT_EVERY_S, so that its samples cover the whole
# run and not one spell of a shared machine.
SETUP_BEFORE = 5
IMPORT_EVERY_S = 3.0


def execute(argv: list[str]) -> tuple[float, int, str, str]:
    """Time one CLI call.  An exception escaping the CLI is recorded as exit
    code -1 with its traceback, so it counts as one wrong execution instead
    of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = latgraph.cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def batch(i: int, argv: list[str], runs: list, min_seconds: float) -> float:
    """Run command i back to back until ``min_seconds`` have passed (at
    least once), recording each execution; return the batch's duration."""
    start = perf_counter()
    while True:
        runs.append((i, *execute(argv)))
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed


class SetupTimer:
    """Times a fresh interpreter importing ``latgraph.cli``: the set-up every
    CLI call pays.  The child's memory is not this process's peak RSS."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def take(self) -> None:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import latgraph.cli"], check=True)
        self.samples.append(perf_counter() - start)
        self.due = perf_counter() + IMPORT_EVERY_S

    def between_turns(self) -> None:
        if perf_counter() >= self.due:
            self.take()


def no_op() -> None:
    pass


def full_pass(argvs, runs, between=no_op) -> dict[int, float]:
    last = {}
    for i, argv in enumerate(argvs):
        last[i] = batch(i, argv, runs, 0.0)
        between()
    return last


def fill(argvs, runs, last: dict[int, float], deadline: float, between) -> None:
    """Passes in which the longest commands that still fit go first: they
    make up most of a workload's time, so more samples of them steady its
    total most."""
    ran = True
    while ran:
        ran = False
        for i in sorted(last, key=last.get, reverse=True):
            if perf_counter() + last[i] <= deadline:
                last[i] = batch(i, argvs[i], runs, MIN_BATCH_S)
                between()
                ran = True


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as f:
        plan = json.load(f)
    argvs = plan["argvs"]
    execute(["roundtrip", "--group", "Z(2)"])  # warm-up, not recorded
    runs: list[tuple] = []
    result: dict = {}
    if plan["trace"]:
        start = perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_pass_s"] = sum(full_pass(argvs, runs).values())
        finally:
            tracer.uninstall()
        result["spans"] = [s.as_dict() for s in tracer.spans]
        result["untraced_pass_s"] = sum(full_pass(argvs, runs).values())
    else:
        setup = SetupTimer()
        for _ in range(SETUP_BEFORE):
            setup.take()
        start = perf_counter()
        last = full_pass(argvs, runs, setup.between_turns)
        fill(argvs, runs, last, start + plan["seconds"], setup.between_turns)
        result["setup_s"] = setup.samples
    result["runs"] = runs
    result["measured_s"] = perf_counter() - start
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:3])
