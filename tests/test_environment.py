"""A verdict comes from the arguments and the bytes of the input files
alone.  Each command line runs in a child process under an environment
that could otherwise steer it: a ``LATGRAPH_MAX_ORDER`` cap of 3, a fixed
hash seed, unbuffered streams, and the C locale with neither UTF-8 mode
nor locale coercion, where Python's default text encoding is ASCII.  Input
files decode as UTF-8 all the same, and a refusal is measured in the bytes
stderr writes."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import latgraph
from latgraph.cli import main

from make_golden import GOLDEN, command_lines, input_files

ENVIRONMENT = {
    "LATGRAPH_MAX_ORDER": "3", "PYTHONHASHSEED": "1", "PYTHONUNBUFFERED": "1",
    "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
}

# make_golden.py command lines: every command, and every exit code that
# golden.json holds (0, 3 and 4)
GOLDEN_LINES = {
    "graph --group S(3) --kind epow --format json",
    "graph --group Q(8) --kind dirpow --format dot",
    "lattice --group Heis(3) --format json",
    "reconstruct --direction lattice-from-epow --from @epow D(8) --format json",
    "reconstruct --direction diff-from-lattice --from @lattice A(4) --format dot",
    "roundtrip --group S(4)",
    "compare --group-a Heis(3) --group-b Z(3)xZ(3)xZ(3)",
    "census --catalog order16 --kind pow",
    "graph --group Z(30000) --kind epow",
    "lattice --group Z(2)xZ(2) --max-order 3",
    "compare --group-a Heis(3) --group-b Z(3)xZ(3)xZ(3) --budget 1",
    "reconstruct --direction lattice-from-epow --from @square",
    "reconstruct --direction pow-from-lattice --from @bad lattice",
}


def run_all(argvs: list[list[str]]) -> list[subprocess.CompletedProcess]:
    """Each argv run as ``python -m latgraph.cli`` under ``ENVIRONMENT``,
    four at a time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env |= ENVIRONMENT | {"PYTHONPATH": str(Path(latgraph.__file__).parents[1])}

    def run(argv):
        return subprocess.run([sys.executable, "-m", "latgraph.cli", *argv],
                              capture_output=True, timeout=60, env=env)

    with ThreadPoolExecutor(4) as pool:
        return list(pool.map(run, argvs))


def test_golden_lines_print_their_golden_output(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    lines = [line for line in command_lines() if " ".join(line) in GOLDEN_LINES]
    assert len(lines) == len(GOLDEN_LINES) and len({line[0] for line in lines}) == 6
    assert {golden[" ".join(line)]["code"] for line in lines} == {0, 3, 4}
    paths = input_files(tmp_path)
    argvs = [[str(paths.get(arg, arg)) for arg in line] for line in lines]
    for line, done in zip(lines, run_all(argvs)):
        assert done.stderr.isascii(), line
        assert {"code": done.returncode, "stdout": hashlib.sha256(done.stdout).hexdigest(),
                "stderr": hashlib.sha256(done.stderr).hexdigest()} == golden[" ".join(line)], line


def test_non_ascii_inputs_give_what_they_give_in_process(tmp_path, capsys):
    # Z(4)'s table with an Arabic-Indic three, and the enhanced power graph
    # of Z(2) with its two vertices named by accented letters
    csv, graph = tmp_path / "z4.csv", tmp_path / "k2.json"
    csv.write_bytes("0,1,2,٣\n1,2,3,0\n2,3,0,1\n3,0,1,2\n".encode())
    graph.write_bytes('{"kind": "simple", "vertices": ["é", "à"], "edges": [[0, 1]]}'
                      .encode())
    argvs = [["graph", "--from", str(csv), "--kind", "epow", "--format", "json"],
             ["reconstruct", "--direction", "lattice-from-epow", "--from", str(graph)]]
    for argv, done in zip(argvs, run_all(argvs)):
        code = main(argv)
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out.encode())
        assert (code, done.stderr) == (0, b"")


def test_a_long_non_ascii_cell_is_refused_in_one_short_line(tmp_path):
    csv = tmp_path / "z2.csv"
    csv.write_bytes(("0,1\n1," + "é" * 500 + "\n").encode())
    [done] = run_all([["graph", "--from", str(csv), "--kind", "epow"]])
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: row 1, column 1: not an integer: ")
    assert done.stderr.count(b"\n") == 1 and len(done.stderr) < 300
