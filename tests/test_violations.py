"""``CyclicLattice.violations`` against ``reference_violations``, which adds
two checks the others imply: "minimal nodes ... differ from the bottom" and
"down-set of node v: nodes u,w do not order like the divisors", and runs the
meet test on every pair whatever the earlier checks found.  On every input
the library's list is the reference's without lines of those kinds and,
when a line of an earlier check remains, without its meet lines, so no
verdict changes.  The inputs are the corpus lattices, seeded single
mutations of them and seeded random labelled DAGs on up to 8 nodes, plus
hand-built lattices for the meet check: the pairs above a common atom when
every earlier check passes, and no meet check when one fails."""

import random
from functools import cache

import pytest

from latgraph import lattice
from latgraph.lattice import CyclicLattice, build_lattice

from conftest import CORPUS, group_of, reference_violations

MINIMAL = "minimal nodes "
DIVISOR_ORDER = " do not order like the divisors "
NO_MEET = " have no greatest common lower bound"


def implied(line: str) -> bool:
    return line.startswith(MINIMAL) or DIVISOR_ORDER in line


def expected(reference: tuple[str, ...]) -> tuple[str, ...]:
    """The library's list for a reference list: without the implied lines
    and, when a line of an earlier check remains, without the meet lines."""
    kept = [line for line in reference if not implied(line)]
    if any(not line.endswith(NO_MEET) for line in kept):
        kept = [line for line in kept if not line.endswith(NO_MEET)]
    return tuple(kept)


@cache
def corpus() -> tuple[CyclicLattice, ...]:
    return tuple(build_lattice(group_of(expr)).lattice for expr in CORPUS)


def mutate(L: CyclicLattice, rng: random.Random) -> CyclicLattice:
    """L with one cover dropped, added or redirected, or one order changed."""
    orders, covers, n = list(L.orders), set(L.covers), L.node_count
    kind = rng.choice(["drop", "add", "redirect", "order"] if covers else ["add", "order"])
    if kind == "order":
        orders[rng.randrange(n)] = rng.randint(1, 2 * max(orders))
    elif kind == "add":
        covers.add((rng.randrange(n), rng.randrange(n)))
    else:
        lo, hi = rng.choice(sorted(covers))
        covers.remove((lo, hi))
        if kind == "redirect":
            covers.add((lo, rng.randrange(n)) if rng.random() < 0.5 else (rng.randrange(n), hi))
    return CyclicLattice(orders=tuple(orders), covers=frozenset(covers))


@cache
def mutations() -> tuple[CyclicLattice, ...]:
    rng = random.Random(2024)
    return tuple(mutate(rng.choice(corpus()), rng) for _ in range(2500))


def random_dag(rng: random.Random) -> CyclicLattice:
    """Up to 8 nodes labelled by divisors of 12, with covers along a random
    numbering; at least one node has order 1."""
    n = rng.randint(1, 8)
    orders = [1] + [rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(n - 1)]
    rng.shuffle(orders)
    rank = rng.sample(range(n), n)
    density = rng.random()
    covers = frozenset(
        (u, w) for u in range(n) for w in range(n)
        if rank[u] < rank[w] and rng.random() < density
    )
    return CyclicLattice(orders=tuple(orders), covers=covers)


@cache
def random_dags() -> tuple[CyclicLattice, ...]:
    rng = random.Random(7)
    return tuple(random_dag(rng) for _ in range(6000))


FAMILIES = {"corpus": corpus, "mutations": mutations, "random_dags": random_dags}


@cache
def cases(family: str) -> tuple[tuple[CyclicLattice, tuple[str, ...]], ...]:
    return tuple((L, reference_violations(L)) for L in FAMILIES[family]())


@pytest.mark.parametrize("family", FAMILIES)
def test_violations_are_the_reference_without_the_implied_kinds(family):
    for L, reference in cases(family):
        assert L.violations == expected(reference), L
        assert bool(L.violations) == bool(reference), L


def test_each_implied_kind_occurs_in_the_reference():
    lines = [line for family in FAMILIES for _, ref in cases(family) for line in ref]
    assert any(line.startswith(MINIMAL) for line in lines)
    assert any(DIVISOR_ORDER in line for line in lines)
    # and the meet lines of refused diagrams, which the library never reaches
    assert any(
        line.endswith(NO_MEET) and line not in L.violations
        for family in FAMILIES
        for L, ref in cases(family)
        for line in ref
    )


def test_a_pair_above_two_shared_atoms_is_reported_once():
    # the bowtie: nodes 3 and 4, both of order 6, lie above both atoms 1 and
    # 2, which have no greatest element among them
    L = CyclicLattice(
        orders=(1, 2, 3, 6, 6),
        covers=frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)}),
    )
    assert L.violations == reference_violations(L)
    assert [line for line in L.violations if line.startswith("nodes 3,4 ")] == [
        "nodes 3,4 have no greatest common lower bound"
    ]


def test_a_refused_lattice_stops_before_the_meet_check():
    # two order-1 nodes: node 1 shares no atom with 0 or 2, and both of its
    # pairs lack a meet, but the order-1 line ends the list
    L = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}))
    assert L.violations == ("expected one node of order 1, found [0, 1]",)
    assert reference_violations(L) == (
        "expected one node of order 1, found [0, 1]",
        "nodes 0,1 have no greatest common lower bound",
        "nodes 1,2 have no greatest common lower bound",
    )


def test_the_meet_check_runs_only_when_every_earlier_check_passes(monkeypatch):
    def scan(rows):
        raise AssertionError("the meet check ran")

    L = build_lattice(group_of("Z(2)xZ(2)xZ(2)xZ(2)xZ(2)")).lattice
    a, b = [v for v in L.nodes() if L.orders[v] == 2][:2]
    atom_to_atom = CyclicLattice(orders=L.orders, covers=L.covers | {(a, b)})
    two_bottoms = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}))
    monkeypatch.setattr(lattice, "row_bitsets", scan)
    assert two_bottoms.violations == ("expected one node of order 1, found [0, 1]",)
    assert atom_to_atom.violations == (
        f"cover ({a},{b}) has non-prime order quotient 2/2",
        f"down-set of node {b} (order 2) has orders [1, 2, 2], expected the divisors [1, 2]",
    )
    with pytest.raises(AssertionError, match="the meet check ran"):
        CyclicLattice(orders=L.orders, covers=L.covers).violations
