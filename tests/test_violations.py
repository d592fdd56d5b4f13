"""``CyclicLattice.violations`` against ``reference_violations``, which adds
two checks the others imply: "minimal nodes ... differ from the bottom" and
"down-set of node v: nodes u,w do not order like the divisors".  On every
input the library's list is the reference's without lines of those kinds,
so no verdict changes.  The inputs are the corpus lattices, seeded single
mutations of them and seeded random labelled DAGs on up to 8 nodes, plus one
hand-built lattice for each path of the meet check: the pairs above a common
atom when every earlier check passes, and every pair when one fails."""

import random
from functools import cache

import pytest

from latgraph.lattice import CyclicLattice, build_lattice

from conftest import CORPUS, group_of, reference_violations

MINIMAL = "minimal nodes "
DIVISOR_ORDER = " do not order like the divisors "


def implied(line: str) -> bool:
    return line.startswith(MINIMAL) or DIVISOR_ORDER in line


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
    return CyclicLattice(orders=tuple(orders), covers=frozenset(covers), bottom=L.bottom)


@cache
def mutations() -> tuple[CyclicLattice, ...]:
    rng = random.Random(2024)
    return tuple(mutate(rng.choice(corpus()), rng) for _ in range(2500))


def random_dag(rng: random.Random) -> CyclicLattice:
    """Up to 8 nodes labelled by divisors of 12, with covers along a random
    numbering; the bottom is the first node of order 1, if any."""
    n = rng.randint(1, 8)
    orders = [1] + [rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(n - 1)]
    rng.shuffle(orders)
    rank = rng.sample(range(n), n)
    density = rng.random()
    covers = frozenset(
        (u, w) for u in range(n) for w in range(n)
        if rank[u] < rank[w] and rng.random() < density
    )
    return CyclicLattice(orders=tuple(orders), covers=covers, bottom=orders.index(1))


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
        assert L.violations == tuple(line for line in reference if not implied(line)), L
        assert bool(L.violations) == bool(reference), L


def test_each_implied_kind_occurs_in_the_reference():
    lines = [line for family in FAMILIES for _, ref in cases(family) for line in ref]
    assert any(line.startswith(MINIMAL) for line in lines)
    assert any(DIVISOR_ORDER in line for line in lines)


def test_a_pair_above_two_shared_atoms_is_reported_once():
    # the bowtie: nodes 3 and 4, both of order 6, lie above both atoms 1 and
    # 2, which have no greatest element among them
    L = CyclicLattice(
        orders=(1, 2, 3, 6, 6),
        covers=frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)}),
        bottom=0,
    )
    assert L.violations == reference_violations(L)
    assert [line for line in L.violations if line.startswith("nodes 3,4 ")] == [
        "nodes 3,4 have no greatest common lower bound"
    ]


def test_a_refused_lattice_gets_the_meet_test_on_every_pair():
    # two order-1 nodes: node 1 shares no atom with 0 or 2, yet both of its
    # pairs lack a meet, and both lines stay
    L = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}), bottom=0)
    assert L.violations == reference_violations(L) == (
        "expected one node of order 1, found [0, 1]",
        "nodes 0,1 have no greatest common lower bound",
        "nodes 1,2 have no greatest common lower bound",
    )
