"""latgraph benchmark: drives the ``latgraph`` CLI through two workloads.

    python3 perfbench/run.py --workload roundtrip-ladder --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the library is imported from ``src/``.
Set-up (untimed) writes the seeded Cayley CSVs.  A fresh worker process then
runs the workload and times fresh interpreters importing ``latgraph.cli``
(see ``worker.py``), and every execution's exit code and verdict lines are
checked against ``workloads.py``.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``; their names and units are read from ``BENCHMARK.json``.
The exit code is 1 when any execution was wrong, 2 on usage
errors or a missing library or ``BENCHMARK.json``.  A result file with the seed, the machine and
every execution's time is written under ``.bench_build/perfbench/``; a
traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
TIME_LIMIT_S = 170


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer`` in
    ``BENCHMARK.json``, in print order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end(commands, runs, setup_s: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """``pass_s`` is the total over distinct commands of each one's median
    time: one pass over the workload, as its user would wait for it."""
    samples = defaultdict(list)
    for i, seconds, *_ in runs:
        samples[commands[i]].append(seconds)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "pass_s": sum(statistics.median(s) for s in samples.values()),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    counts = {
        "commands": len(samples),
        "samples_per_command": {cmd.label: len(s) for cmd, s in samples.items()},
        "setup_samples": len(setup_s),
    }
    return metrics, counts


def traced_metrics(result: dict) -> dict:
    from tracing import layer_metrics

    m = layer_metrics(result["spans"])
    m["trace.overhead_frac"] = result["traced_pass_s"] / result["untraced_pass_s"] - 1
    return m


def run(workload_name: str, seed: int, seconds: int, trace: bool, commands=None) -> dict:
    """Set up, run the worker, check every execution and compute metrics.

    ``commands`` replaces the named workload's command list (the smoke test
    uses this for a small input and for a wrong expected verdict)."""
    from workloads import WORKLOADS, Workload, check_output, write_inputs

    workload = WORKLOADS[workload_name]
    if commands is not None:
        workload = Workload(workload.name, workload.why, tuple(commands))
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    stamp = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    scratch = OUT / "inputs" / stamp
    try:
        setup_start = time.perf_counter()
        # the worker runs in ROOT and reads the inputs by relative paths
        argv_of = write_inputs(workload, seed, scratch, ROOT)
        argvs = [argv_of[cmd] for cmd in workload.commands]
        setup_total_s = time.perf_counter() - setup_start
        plan_path, result_path = scratch / "plan.json", scratch / "result.json"
        plan_path.write_text(json.dumps({"argvs": argvs, "seconds": seconds, "trace": trace}))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = result["runs"]
    wrong = [
        {"command": workload.commands[i].label, "exit": code, "stdout": out, "stderr": err}
        for i, _, code, out, err in runs
        if not check_output(workload.commands[i], code, out)
    ]
    if trace:
        # a work size or count of something the workload never did is 0
        metrics = defaultdict(float, traced_metrics(result))
        units, counts = declared("per_layer"), {}
    else:
        metrics, counts = end_to_end(
            workload.commands, runs, result["setup_s"], result["peak_rss_kb"]
        )
        units = declared("end_to_end")
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "setup_total_s": setup_total_s,
        "measured_s": result["measured_s"],
        "attempted": len(runs),
        "failed": len(wrong),
        "failed_frac": len(wrong) / len(runs),
        "wrong": wrong[:10],
        "counts": counts,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "runs": [
            {"command": workload.commands[i].label, "seconds": s, "exit": code}
            for i, s, code, *_ in runs
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stamp}.json").write_text(json.dumps(report, indent=1))
    if trace:
        spans_file = OUT / f"{stamp}-spans.jsonl"
        with open(spans_file, "w") as f:
            for span in result["spans"]:
                f.write(json.dumps(span) + "\n")
        report["spans_file"] = str(spans_file)
    report["result_file"] = str((OUT / f"{stamp}.json").relative_to(ROOT))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latgraph" / "cli.py").is_file():
        print(f"error: no latgraph sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))


def print_report(report: dict) -> int:
    """Print the metrics, one per line with its unit, then the result line;
    return the exit code: 1 when any execution was wrong."""
    print(f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"measured_s={report['measured_s']:.1f} machine={json.dumps(report['machine'])}")
    if report["counts"]:
        print(f"commands={report['counts']['commands']} "
              f"executions={report['attempted']} "
              f"setup samples={report['counts']['setup_samples']}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac={report['failed_frac']:.6g} "
          f"({report['failed']}/{report['attempted']}) result_file={report['result_file']}")
    for w in report["wrong"]:
        print(f"WRONG {w['command']}: exit {w['exit']}: {w['stderr'].strip()[:200]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
