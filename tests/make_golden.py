"""Write ``tests/golden.json``: for each command line below, the exit code
and the sha-256 of the stdout and stderr that ``cli.main`` gives it,
in-process.  ``test_golden.py`` recomputes the same table and checks that
the file is its text, byte for byte.

Run from the repository root::

    PYTHONPATH=src python tests/make_golden.py

Regenerate only for a deliberate change of output, and name the command
lines whose entries changed.  A command line reads its input files by name:
``@name`` stands for a file holding the text of ``INPUTS[name]``, which is
either the stdout of a CLI command line (every reconstruct input is a file
the CLI writes) or, for a refusal, a fixed text.

No line prints text that Python, argparse, ``json`` or NumPy write (usage
and parse errors), and none reads a Cayley table CSV: that text and that
reader differ between the Python and NumPy versions the tests run on.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from latgraph.cli import main

from conftest import CORPUS

GOLDEN = Path(__file__).with_name("golden.json")

# a dozen corpus groups, small to order 24, for the graph and reconstruct lines
GRAPH_GROUPS = (
    "Z(1)", "Z(6)", "Z(12)", "Z(2)xZ(2)", "Z(2)xZ(6)", "D(8)", "Q(8)",
    "S(3)", "S(4)", "A(4)", "Heis(3)", "G16(13)",
)
# the benchmark's compare pairs: lookalikes, self pairs and negatives
COMPARE_PAIRS = (
    ("Heis(3)", "Z(3)xZ(3)xZ(3)"), ("Heis(5)", "Z(5)xZ(5)xZ(5)"),
    ("Heis(7)", "Z(7)xZ(7)xZ(7)"), ("M(2,5)", "Z(16)xZ(2)"), ("M(3,4)", "Z(27)xZ(3)"),
    ("Z(3)xZ(3)xZ(3)xZ(3)xZ(3)",) * 2, ("S(5)",) * 2,
    ("D(256)", "SD(256)"), ("Q(256)", "D(256)"),
)
# groups whose lattice-from-epow names come from tested clique pairs: each
# of the first five tests 1 to 30 of them; Q(16) tests none, and its core
# of 2 vertices names its order-2 node across all 5 cliques
NAMED_GROUPS = ("Z(4)xZ(4)", "Z(2)xZ(8)", "SD(16)", "D(8)xZ(2)", "Z(6)xZ(6)", "Q(16)")
KINDS = ("epow", "pow", "dirpow", "diff")
DIRECTIONS = tuple(f"{kind}-from-lattice" for kind in KINDS)
# every graph, lattice and reconstruct line is pinned in each output format
FORMATS = ("json", "dot", "summary")

INPUTS: dict[str, list[str] | str] = {
    **{f"epow {g}": ["graph", "--group", g, "--kind", "epow", "--format", "json"]
       for g in GRAPH_GROUPS + NAMED_GROUPS},
    **{f"lattice {g}": ["lattice", "--group", g, "--format", "json"] for g in GRAPH_GROUPS},
    # the 4-cycle: no closed neighbourhood is a clique
    "square": '{"kind": "simple", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}',
    # two disjoint edges: the closed neighbourhoods {0,1} and {2,3} are
    # cliques, and no vertex lies in both
    "two edges": '{"kind": "simple", "vertices": 4, "edges": [[0, 1], [2, 3]]}',
    # the star K1,5: certified with five nodes of order 2, although no group
    # of order 6 has five involutions
    "star": '{"kind": "simple", "vertices": 6, '
            '"edges": [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5]]}',
    # a cover from order 1 to order 4, whose quotient is not prime
    "bad lattice": '{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 4}], '
                   '"covers": [[0, 1]]}',
}


def command_lines() -> list[list[str]]:
    lines = []
    for g in CORPUS:
        lines.append(["roundtrip", "--group", g])
        lines += [["lattice", "--group", g, "--format", f] for f in FORMATS]
    # the closure's largest groups; the lattice JSON names element ids, so it
    # pins the order in which the closure numbers the elements
    for g in ("S(6)", "A(6)"):
        lines.append(["roundtrip", "--group", g, "--max-order", "720"])
        lines.append(["lattice", "--group", g, "--max-order", "720", "--format", "json"])
    for g in GRAPH_GROUPS:
        lines += [["graph", "--group", g, "--kind", k, "--format", f]
                  for k in KINDS for f in FORMATS]
        lines += [["reconstruct", "--direction", "lattice-from-epow",
                   "--from", f"@epow {g}", "--format", f] for f in FORMATS]
        lines += [["reconstruct", "--direction", d, "--from", f"@lattice {g}", "--format", f]
                  for d in DIRECTIONS for f in FORMATS]
    # the lattice JSON pins each node's number, (order, first clique)
    lines += [["reconstruct", "--direction", "lattice-from-epow", "--from", f"@{name}",
               "--format", "json"] for name in (*(f"epow {g}" for g in NAMED_GROUPS), "star")]
    lines += [["compare", "--group-a", a, "--group-b", b] for a, b in COMPARE_PAIRS]
    for kind in (*KINDS, "lattice"):
        lines.append(["census", "--catalog", "order16", "--kind", kind])
        lines += [["census", "--catalog", "order16", "--kind", kind, "--budget", budget]
                  for budget in ("1", "2")]
    # refusals: over the cap (3), not an enhanced power graph (4) twice, an
    # invalid lattice (4) and an exhausted budget (3)
    lines += [
        ["graph", "--group", "Z(30000)", "--kind", "epow"],
        ["lattice", "--group", "Z(2)xZ(2)", "--max-order", "3"],
        ["reconstruct", "--direction", "lattice-from-epow", "--from", "@square"],
        ["reconstruct", "--direction", "lattice-from-epow", "--from", "@two edges"],
        ["reconstruct", "--direction", "pow-from-lattice", "--from", "@bad lattice"],
        ["compare", "--group-a", "Heis(3)", "--group-b", "Z(3)xZ(3)xZ(3)", "--budget", "1"],
    ]
    return lines


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def input_files(directory: Path) -> dict[str, Path]:
    """Each ``@name`` mapped to a file in ``directory`` that holds the text
    of ``INPUTS[name]``."""
    paths = {}
    for i, (name, source) in enumerate(INPUTS.items()):
        text = source if isinstance(source, str) else run(source)[1]
        paths[f"@{name}"] = path = directory / f"input{i}.json"
        path.write_text(text)
    return paths


def outputs(directory: Path) -> dict[str, dict]:
    """Each command line, its ``@`` names kept, mapped to its exit code and
    the sha-256 of its stdout and stderr; input files go to ``directory``."""
    paths = input_files(directory)
    table = {}
    for line in command_lines():
        code, out, err = run([str(paths.get(arg, arg)) for arg in line])
        table[" ".join(line)] = {
            "code": code,
            "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
        }
    return table


def golden_text(table: dict[str, dict]) -> str:
    """The text of ``golden.json`` for a table of outputs: one command line
    a line, so a diff names the lines whose output changed."""
    lines = (f"{json.dumps(line)}: {json.dumps(entry)}" for line, entry in table.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = outputs(Path(tmp))
    GOLDEN.write_text(golden_text(table))
    print(f"wrote {len(table)} command lines to {GOLDEN}")
