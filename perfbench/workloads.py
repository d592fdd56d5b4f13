"""The benchmark's workloads: which CLI commands run, on which inputs, and
what each command must print.

Every group a workload builds is written, during set-up, as a Cayley table
CSV whose element ids are relabelled by a permutation drawn from the run's
seed; the CLI sees only ``cayley:<file>``.  Expected verdicts follow from
the mathematics, so they are the same for every seed:

* ``roundtrip`` verifies five reconstructions against the oracles; for a
  genuine group all five hold, so the command prints five ``PASS`` lines,
  ``5/5 PASS`` and exits 0.
* ``compare`` prints four isomorphism flags.  Lookalike pairs and a group
  against a relabelled copy of itself have all four true; pairs that differ
  in their element-order statistics have all four false.
* ``census --catalog order16`` has no file input (the catalog is built in).
  Its classes are fixed by the classification of the 14 groups of order 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROUNDTRIP_CHECKS = (
    "lattice-from-epow",
    "epow-from-lattice",
    "pow-from-lattice",
    "dirpow-from-lattice",
    "diff-from-lattice",
)

COMPARE_FLAGS = ("lattice_iso", "dirpow_iso", "epow_iso", "pow_iso")

CENSUS_KINDS = ("pow", "epow", "dirpow", "lattice", "diff")

ORDER16 = (
    "Z16", "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2", "D16", "Q16", "SD16",
    "M(2,4)", "D8xZ2", "Q8xZ2", "Z4:Z4", "(Z4xZ2):Z2", "D8oZ4",
)

# Two pairs of order-16 groups share their cyclic subgroup lattice, and with
# it all four power-type graphs: the modular group M16 = M(2,4) and Z8xZ2
# (three involutions, two cyclic subgroups of order 4 and two of order 8,
# nested alike), and the Pauli group D8oZ4 and Z4xZ2xZ2 (seven involutions,
# four cyclic subgroups of order 4, all squaring to one central involution).
# Every other pair differs.  In a p-group each cyclic subgroup's elements
# form a chain, so the enhanced power graph equals the power graph and every
# difference graph is empty: one class.
_MERGED = ({"Z8xZ2", "M(2,4)"}, {"Z4xZ2xZ2", "D8oZ4"})
CENSUS_CLASSES = {
    kind: [set(c) for c in _MERGED]
    + [{name} for name in ORDER16 if not any(name in c for c in _MERGED)]
    for kind in ("pow", "epow", "dirpow", "lattice")
}
CENSUS_CLASSES["diff"] = [set(ORDER16)]


def power(term: str, k: int) -> str:
    """``Z(2)`` and 3 give ``Z(2)xZ(2)xZ(2)``: the CLI has no power syntax."""
    return "x".join([term] * k)


# The ladder of ROADMAP aim 1, ordered by size.
LADDER = ("S(5)", power("Z(8)", 3), power("Z(3)", 5), "D(512)", power("Z(2)", 9))

LOOKALIKES = (
    ("Heis(3)", power("Z(3)", 3)),
    ("Heis(5)", power("Z(5)", 3)),
    ("Heis(7)", power("Z(7)", 3)),
    ("M(2,5)", "Z(16)xZ(2)"),
    ("M(3,4)", "Z(27)xZ(3)"),
)
SELF_PAIRS = ((power("Z(3)", 5),) * 2, ("S(5)",) * 2)
# D(256) has 129 involutions, SD(256) 65 and Q(256) one.
NEGATIVES = (("D(256)", "SD(256)"), ("Q(256)", "D(256)"))


@dataclass(frozen=True)
class Command:
    """One CLI command: ``kind`` is roundtrip, compare or census.

    ``groups`` are the expressions whose relabelled tables the command reads,
    in argument order; ``expect`` is the expected verdict (the four compare
    flags, or the census kind)."""

    kind: str
    groups: tuple[str, ...] = ()
    expect: object = None

    @property
    def label(self) -> str:
        if self.kind == "census":
            return f"census {self.expect}"
        return f"{self.kind} " + " ".join(self.groups)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


def roundtrip(expr: str) -> Command:
    return Command("roundtrip", (expr,))


def compare(a: str, b: str, same: bool) -> Command:
    return Command("compare", (a, b), (same,) * 4)


def census(kind: str) -> Command:
    return Command("census", (), kind)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "roundtrip-ladder",
            "roundtrip on the five-group ladder; labelled-lattice isomorphism"
            " and its memory peak dominate",
            tuple(roundtrip(e) for e in LADDER),
        ),
        Workload(
            "compare-census",
            "compare on lookalike, self and negative pairs plus the order-16"
            " census; graph and digraph isomorphism dominate",
            tuple(
                [compare(a, b, True) for a, b in LOOKALIKES + SELF_PAIRS]
                + [compare(a, b, False) for a, b in NEGATIVES]
                + [census(k) for k in CENSUS_KINDS]
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# seeded inputs


def relabelled_table(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The table of the same group after renaming element x to perm[x]."""
    perm = rng.permutation(table.shape[0])
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def write_inputs(
    workload: Workload, seed: int, directory: Path, cwd: Path
) -> dict[Command, list[str]]:
    """Write one relabelled Cayley CSV per group the workload builds and
    return each distinct command's argv, for a CLI running in ``cwd``.  The
    same seed gives the same files; the two sides of a compare get different
    relabellings even for the same group.

    The argv names each file relative to ``cwd``, which holds ``directory``:
    a group expression ends a ``cayley:`` path at the first whitespace, so an
    absolute path would break in a checkout whose path has a space."""
    from latgraph.catalog import build_group, parse_group_expr

    directory.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for i, cmd in enumerate(dict.fromkeys(workload.commands)):
        paths = []
        for j, expr in enumerate(cmd.groups):
            table = np.asarray(build_group(parse_group_expr(expr)).group.table)
            rng = np.random.default_rng([seed, i, j])
            path = directory / f"c{i}g{j}.csv"
            np.savetxt(path, relabelled_table(table, rng), fmt="%d", delimiter=",")
            paths.append(f"cayley:{path.relative_to(cwd)}")
        if cmd.kind == "roundtrip":
            argvs[cmd] = ["roundtrip", "--group", paths[0]]
        elif cmd.kind == "compare":
            argvs[cmd] = ["compare", "--group-a", paths[0], "--group-b", paths[1]]
        else:
            argvs[cmd] = ["census", "--catalog", "order16", "--kind", cmd.expect]
    return argvs


# ---------------------------------------------------------------------------
# verdict checks


def check_output(cmd: Command, code: int, stdout: str) -> bool:
    """True when the exit code and verdict lines are the expected ones."""
    if code != 0:
        return False
    lines = stdout.splitlines()
    if cmd.kind == "roundtrip":
        want = [f"PASS {name}" for name in ROUNDTRIP_CHECKS]
        return lines == want + [f"{len(want)}/{len(want)} PASS"]
    if cmd.kind == "compare":
        want = [f"{name}={str(flag).lower()}" for name, flag in zip(COMPARE_FLAGS, cmd.expect)]
        return lines[:4] == want
    want_classes = CENSUS_CLASSES[cmd.expect]
    header = (
        f"catalog=order16 kind={cmd.expect} groups={len(ORDER16)} "
        f"classes={len(want_classes)}"
    )
    if not lines or lines[0] != header:
        return False
    got = [set(line.partition(": ")[2].split(" ")) for line in lines[1:]]
    return len(got) == len(want_classes) and all(c in want_classes for c in got)
