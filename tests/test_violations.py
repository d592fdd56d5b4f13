"""``CyclicLattice.violations`` against ``reference_violations``, which adds
two checks the others imply: "minimal nodes ... differ from the bottom" and
"down-set of node v: nodes u,w do not order like the divisors", and runs the
meet test on every pair whatever the earlier checks found.  On every input
the library's lines from the other checks are the reference's without lines
of those kinds, and its meet lines, written only when no other line is, are
some of the reference's, each naming two nodes of equal order; no verdict
changes.  The inputs are the corpus lattices, seeded single mutations of
them, seeded copies of one of their nodes (the diagrams the meet check alone
refuses) and seeded random labelled DAGs on up to 8 nodes, plus hand-built
lattices for the meet check: the pairs with a shared key when every earlier
check passes, and no meet check when one fails."""

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


def expected(reference: tuple[str, ...]) -> tuple[tuple[str, ...], frozenset[str]]:
    """The library's lines from the other checks for a reference list, the
    reference's without the implied lines, and the meet lines it may write:
    some of the reference's when no other line remains, else none."""
    kept = [line for line in reference if not implied(line)]
    others = tuple(line for line in kept if not line.endswith(NO_MEET))
    meets = frozenset(line for line in kept if line.endswith(NO_MEET) and not others)
    return others, meets


def meet_pair(line: str) -> tuple[int, int]:
    u, v = line.removeprefix("nodes ").removesuffix(NO_MEET).split(",")
    return int(u), int(v)


def assert_agrees(L: CyclicLattice, reference: tuple[str, ...]) -> None:
    others, meets = expected(reference)
    lines = L.violations
    assert bool(lines) == bool(reference), L
    assert tuple(line for line in lines if not line.endswith(NO_MEET)) == others, L
    written = [line for line in lines if line.endswith(NO_MEET)]
    assert set(written) <= meets, L
    for u, v in map(meet_pair, written):
        assert L.orders[u] == L.orders[v], L


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


def duplicate(L: CyclicLattice, rng: random.Random) -> CyclicLattice:
    """L with a new copy of a node of order > 1 and its lower covers; half
    the time one of those covers moves to another node of the same order,
    and half the time the copy gets one of the original's upper covers."""
    new = L.node_count
    x = rng.choice([v for v in L.nodes() if L.orders[v] > 1])
    lower = sorted(lo for lo, hi in L.covers if hi == x)
    upper = sorted(hi for lo, hi in L.covers if lo == x)
    if rng.random() < 0.5:
        i = rng.randrange(len(lower))
        twins = [v for v in L.nodes() if L.orders[v] == L.orders[lower[i]] and v != lower[i]]
        if twins:
            lower[i] = rng.choice(twins)
    covers = L.covers | {(lo, new) for lo in lower}
    if upper and rng.random() < 0.5:
        covers |= {(new, rng.choice(upper))}
    return CyclicLattice(orders=L.orders + (L.orders[x],), covers=covers)


@cache
def duplicates() -> tuple[CyclicLattice, ...]:
    rng = random.Random(20)
    nontrivial = [L for L in corpus() if L.node_count > 1]
    return tuple(duplicate(rng.choice(nontrivial), rng) for _ in range(3000))


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


FAMILIES = {
    "corpus": corpus, "mutations": mutations, "duplicates": duplicates, "random_dags": random_dags
}


@cache
def cases(family: str) -> tuple[tuple[CyclicLattice, tuple[str, ...]], ...]:
    return tuple((L, reference_violations(L)) for L in FAMILIES[family]())


@pytest.mark.parametrize("family", FAMILIES)
def test_violations_are_the_reference_without_the_implied_kinds(family):
    for L, reference in cases(family):
        assert_agrees(L, reference)


def test_the_meet_check_alone_refuses_many_copied_nodes():
    refused = [
        L for L, _ in cases("duplicates")
        if L.violations and all(line.endswith(NO_MEET) for line in L.violations)
    ]
    assert len(refused) >= 100


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
    # 2, which have no greatest element among them; both have the key {1, 2}
    L = CyclicLattice(
        orders=(1, 2, 3, 6, 6),
        covers=frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)}),
    )
    assert L.violations == reference_violations(L)
    assert [line for line in L.violations if line.startswith("nodes 3,4 ")] == [
        "nodes 3,4 have no greatest common lower bound"
    ]


def test_each_repeated_key_is_reported_with_its_first_node():
    # three nodes of order 6 above both atoms 1 and 2: the reference names
    # all three pairs, the library each later node with the first
    L = CyclicLattice(
        orders=(1, 2, 3, 6, 6, 6),
        covers=frozenset({(0, 1), (0, 2)} | {(a, top) for a in (1, 2) for top in (3, 4, 5)}),
    )
    assert reference_violations(L) == tuple(
        f"nodes {u},{v}{NO_MEET}" for u, v in ((3, 4), (3, 5), (4, 5))
    )
    assert L.violations == (f"nodes 3,4{NO_MEET}", f"nodes 3,5{NO_MEET}")


def test_a_later_down_set_line_drops_the_meet_lines():
    # the bowtie under a node of order 12: the repeated key of node 4 comes
    # before node 5's down-set, which has two nodes of order 6 and none of 4
    L = CyclicLattice(
        orders=(1, 2, 3, 6, 6, 12),
        covers=frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)}),
    )
    assert L.violations == (
        "down-set of node 5 (order 12) has orders [1, 2, 3, 6, 6, 12], "
        "expected the divisors [1, 2, 3, 4, 6, 12]",
    )
    assert_agrees(L, reference_violations(L))


def test_a_refused_lattice_stops_before_the_meet_check():
    # two order-1 nodes: both pairs of node 1 lack a meet, but the order-1
    # line ends the list
    L = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}))
    assert L.violations == ("expected one node of order 1, found [0, 1]",)
    assert reference_violations(L) == (
        "expected one node of order 1, found [0, 1]",
        "nodes 0,1 have no greatest common lower bound",
        "nodes 1,2 have no greatest common lower bound",
    )


def test_the_meet_check_runs_only_when_every_earlier_check_passes(monkeypatch):
    def parts(d):
        raise AssertionError("the meet check ran")

    L = build_lattice(group_of("Z(2)xZ(2)xZ(2)xZ(2)xZ(2)")).lattice
    a, b = [v for v in L.nodes() if L.orders[v] == 2][:2]
    atom_to_atom = CyclicLattice(orders=L.orders, covers=L.covers | {(a, b)})
    two_bottoms = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}))
    monkeypatch.setattr(lattice, "prime_power_parts", parts)
    assert two_bottoms.violations == ("expected one node of order 1, found [0, 1]",)
    assert atom_to_atom.violations == (
        f"cover ({a},{b}) has non-prime order quotient 2/2",
        f"down-set of node {b} (order 2) has orders [1, 2, 2], expected the divisors [1, 2]",
    )
    with pytest.raises(AssertionError, match="the meet check ran"):
        CyclicLattice(orders=L.orders, covers=L.covers).violations
