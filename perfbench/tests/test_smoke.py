"""Smoke test of the benchmark on small inputs.  Asserts nothing about timings.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from run import declared  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    census,
    compare,
    power,
    roundtrip,
    write_inputs,
)

SMALL = (roundtrip("Z(6)"), compare("Heis(3)", power("Z(3)", 3), True), census("pow"))


@pytest.mark.parametrize(
    "trace, section, seed", [(False, "end_to_end", 1), (True, "per_layer", 2)]
)
def test_every_metric_is_printed_with_its_unit(capsys, trace, section, seed):
    report = run.run("compare-census", seed, 1, trace, commands=SMALL)
    assert run.print_report(report) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SMALL)
    want = declared(section)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(
            line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name
    if trace:
        # every declared layer metric is one the spans produce, so none of
        # them reads 0 only because its name is misspelt
        with open(report["spans_file"]) as f:
            computed = layer_metrics([json.loads(line) for line in f])
        assert set(want) - set(computed) == {"trace.overhead_frac"}


def test_wrong_expected_verdict_makes_failed_frac_positive(capsys):
    # D(8) has five involutions and Q(8) one: every flag is false
    wrong = compare("D(8)", "Q(8)", True)
    report = run.run("compare-census", 1, 1, False, commands=SMALL + (wrong,))
    assert report["failed"] >= 1 and report["failed_frac"] > 0
    assert {w["command"] for w in report["wrong"]} == {wrong.label}
    assert run.print_report(report) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_inputs_depend_only_on_the_seed(tmp_path):
    small = Workload("small", "", SMALL)

    def files(seed, name):
        write_inputs(small, seed, tmp_path / name, tmp_path)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    first, again, other = files(1, "a"), files(1, "b"), files(2, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_input_paths_have_no_whitespace(tmp_path):
    # a cayley: path ends at the first whitespace, so the argv names each
    # file relative to the CLI's working directory
    cwd = tmp_path / "a checkout"
    argvs = write_inputs(Workload("small", "", SMALL), 1, cwd / "inputs", cwd)
    paths = [arg for argv in argvs.values() for arg in argv if arg.startswith("cayley:")]
    assert len(paths) == 3
    for arg in paths:
        assert not any(c.isspace() for c in arg)
        assert (cwd / arg.removeprefix("cayley:")).is_file()


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_self_time_subtracts_children():
    def span(name, start, end, parent, rss=(0, 0)):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "rss_start": rss[0], "rss_end": rss[1], "sizes": None, "raised": None}

    spans = [
        span("cli.main", 0.0, 10.0, -1, (100, 2148)),
        span("iso.lattice", 1.0, 6.0, 0, (100, 1124)),
        span("lattice.build_lattice", 2.0, 3.0, 1),
        span("lattice.build_lattice", 7.0, 9.0, 0),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["iso.self_s"] == pytest.approx(4.0)
    assert m["lattice.self_s"] == pytest.approx(3.0)
    assert m["lattice.build_lattice.calls"] == 2
    assert m["iso.rss_growth_mb"] == pytest.approx(1.0)
    assert m["cli.rss_growth_mb"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
