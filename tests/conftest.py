"""Shared fixtures: the verification corpus and per-group cached structures."""

from __future__ import annotations

import itertools
import os
import random
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from latgraph.catalog import NamedGroup, build_group, parse_group_expr
from latgraph.formats import CayleyParseError
from latgraph.group_core import (
    CyclicSubgroup,
    FiniteGroup,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    TooLarge,
    cyclic_subgroups,
    generated_subgroup,
)
from latgraph.iso import DEFAULT_BUDGET, IsoResult, _search, _verify
from latgraph.lattice import (
    CyclicLattice,
    LatticeWithSubgroups,
    build_lattice,
    divisor_cover_pairs,
    divisors,
    is_prime,
    reachability,
)
from latgraph.power_graphs import (
    DifferenceGraph,
    Digraph,
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    maximal_cliques,
    pow_oracle,
    row_bitsets,
    twin_quotient,
)
from latgraph.reconstruct import NotAnEnhancedPowerGraph, oracle_labeling

# Fixed corpus: a representative sweep of everything the constructors can
# produce at order <= 100, plus S4 and S5.  Kept stable so expected values
# frozen in the acceptance suite stay meaningful.
CORPUS: tuple[str, ...] = (
    # cyclic groups: trivial, primes, prime powers, and composite orders
    "Z(1)", "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(7)", "Z(8)", "Z(9)",
    "Z(10)", "Z(12)", "Z(15)", "Z(16)", "Z(18)", "Z(20)", "Z(24)", "Z(25)",
    "Z(27)", "Z(30)", "Z(32)", "Z(36)", "Z(48)", "Z(60)", "Z(64)", "Z(100)",
    # abelian products
    "Z(2)xZ(2)", "Z(2)xZ(4)", "Z(2)xZ(6)", "Z(3)xZ(3)", "Z(4)xZ(4)",
    "Z(2)xZ(2)xZ(2)", "Z(2)xZ(2)xZ(3)", "Z(6)xZ(6)", "Z(10)xZ(10)",
    # dihedral, quaternion, semidihedral, modular
    "D(6)", "D(8)", "D(10)", "D(12)", "D(16)", "D(24)",
    "Q(8)", "Q(16)", "Q(32)", "SD(16)", "SD(32)",
    "M(2,4)", "M(2,5)", "M(3,3)",
    # permutation groups
    "S(3)", "S(4)", "S(5)", "A(4)", "A(5)",
    # exponent-p lookalikes and coprime products
    "Heis(3)", "Z(3)xZ(3)xZ(3)", "Heis(3)xZ(2)", "Z(3)xZ(3)xZ(3)xZ(2)",
    "Q(8)xZ(3)", "Q(8)xZ(5)",
    # the full order-16 classification
    "G16(1)", "G16(2)", "G16(3)", "G16(4)", "G16(5)", "G16(6)", "G16(7)",
    "G16(8)", "G16(9)", "G16(10)", "G16(11)", "G16(12)", "G16(13)", "G16(14)",
)

# the benchmark ladder, ordered by size: S(5), Z(8)^3, Z(3)^5, D(512), Z(2)^9
LADDER: tuple[str, ...] = (
    "S(5)", "x".join(["Z(8)"] * 3), "x".join(["Z(3)"] * 5), "D(512)", "x".join(["Z(2)"] * 9),
)


@dataclass
class GroupBundle:
    expr: str
    named: NamedGroup
    lattice: LatticeWithSubgroups
    epow: SimpleGraph
    pow: SimpleGraph
    dirpow: Digraph
    diff: DifferenceGraph
    labeling: tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.named.group


def make_bundle(expr: str) -> GroupBundle:
    named = build_group(parse_group_expr(expr))
    G = named.group
    LS = build_lattice(G)
    return GroupBundle(
        expr=expr,
        named=named,
        lattice=LS,
        epow=epow_oracle(G),
        pow=pow_oracle(G),
        dirpow=dirpow_oracle(G),
        diff=diff_oracle(G),
        labeling=oracle_labeling(G),
    )


@pytest.fixture(scope="session")
def bundles() -> dict[str, GroupBundle]:
    return {expr: make_bundle(expr) for expr in CORPUS}


def group_of(expr: str) -> FiniteGroup:
    return build_group(parse_group_expr(expr)).group


# ---------------------------------------------------------------------------
# helpers only the tests call


def element_order(G: FiniteGroup, x: int) -> int:
    """Smallest k >= 1 with x^k equal to the identity."""
    k, y = 1, x
    while y != G.identity:
        y = int(G.table[y, x])
        k += 1
    return k


def maximal_cyclic_subgroups(G: FiniteGroup) -> list[CyclicSubgroup]:
    """The cyclic subgroups not properly contained in any other one."""
    subs = cyclic_subgroups(G)
    reps = [s.generators[0] for s in subs]
    # column i counts the cyclic subgroups containing subs[i], itself included
    above = G.membership[np.ix_(reps, reps)].sum(axis=0)
    return [s for s, count in zip(subs, above) if count == 1]


def read_through_a_pipe(fifo: Path, text: str, command, timeout: float = 10):
    """``command()``, run while another thread writes ``text`` once into a
    new named pipe at ``fifo``: its result, or its exception raised again.

    A command still running after ``timeout`` seconds fails the test rather
    than hanging it.  A reader that opens the pipe a second time blocks
    there, since no writer is left, so the pipe is opened for writing once,
    without blocking, to release it."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    outcome = {}

    def call():
        try:
            outcome["result"] = command()
        except BaseException as error:
            outcome["error"] = error

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout)
    if runner.is_alive():
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader has the pipe open
            pass
        pytest.fail(f"still running after {timeout} s: a pipe has no second read")
    writer.join(timeout)
    assert not writer.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def relabel(table: np.ndarray, seed: int) -> np.ndarray:
    """The same group with element x renamed perm[x]."""
    perm = np.random.default_rng(seed).permutation(len(table))
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def toggled(g: SimpleGraph, u: int, v: int) -> SimpleGraph:
    """g with the pair {u, v} flipped between edge and non-edge."""
    adj = g.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return SimpleGraph(adj)


def graph_from_cliques(n: int, cliques) -> SimpleGraph:
    """The graph on n vertices whose edges are the pairs inside the cliques."""
    return SimpleGraph.from_edges(
        n, sorted({edge for c in cliques for edge in itertools.combinations(c, 2)})
    )


def random_cliques_over_a_core(rng: random.Random) -> SimpleGraph:
    """The union of up to 6 random cliques, each holding a core of 0 to 3
    vertices, on the at most 14 vertices they cover.  Two of the three size
    menus share many divisors, so that the core's size often divides every
    clique size but not every intersection."""
    core = list(range(rng.randint(0, 3)))
    sizes = [s for s in rng.choice([range(2, 9), (4, 6, 12), (6,)]) if s > len(core)]
    cliques = [
        core + rng.sample(range(len(core), 14), rng.choice(sizes) - len(core))
        for _ in range(rng.randint(1, 6))
    ]
    used = sorted(set().union(*cliques))
    return graph_from_cliques(len(used), [[used.index(x) for x in c] for c in cliques])


def predecessors(L: CyclicLattice, v: int) -> set[int]:
    """Immediate lower covers of v."""
    return {lo for (lo, hi) in L.covers if hi == v}


def down_set(L: CyclicLattice, v: int) -> set[int]:
    """All nodes u with u <= v, including v itself."""
    return set(np.flatnonzero(reachability(L)[v]).tolist())


def underlying_undirected(d: Digraph) -> SimpleGraph:
    return SimpleGraph.from_edges(d.vertex_count, d.arcs())


def hasse(L: CyclicLattice) -> np.ndarray:
    """The cover digraph's matrix, lower -> upper."""
    return Digraph.from_arcs(L.node_count, L.covers).adj


def poset_isomorphism(
    L1: CyclicLattice, L2: CyclicLattice, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Isomorphism of the bare Hasse diagrams, ignoring the order labels."""
    if L1.node_count != L2.node_count or len(L1.covers) != len(L2.covers):
        return IsoResult(found=False)
    blank = [0] * L1.node_count
    return _search(hasse(L1), hasse(L2), blank, blank, budget)


def reference_lift(
    S1: LatticeWithSubgroups, S2: LatticeWithSubgroups, phi: tuple[int, ...]
) -> list[int]:
    """The element map of a lattice isomorphism ``phi`` by a plain loop:
    the k-th generator of node u, in ascending id order, goes to the k-th
    generator of phi(u).  The reference for the label pairing."""
    lift = [-1] * sum(len(s.generators) for s in S1.subgroup_of)
    for u, v in enumerate(phi):
        for x, y in zip(S1.subgroup_of[u].generators, S2.subgroup_of[v].generators):
            lift[x] = y
    return lift


def full_search(adj1, adj2, keys1, keys2, *, budget: int = DEFAULT_BUDGET) -> IsoResult:
    """The search on the full structures, with no twin quotient: vertices
    are colored by their keys through one palette.  The reference for the
    library's quotient search."""
    palette = {key: c for c, key in enumerate(sorted(set(keys1) | set(keys2)))}
    return _search(adj1, adj2, [palette[k] for k in keys1], [palette[k] for k in keys2], budget)


# ---------------------------------------------------------------------------
# the reference engine: the isomorphism entry points with a coloring step
# besides refinement.  Graphs enter colored by degree, digraphs by
# (out-degree, in-degree); the quotient search compares the class-key
# multisets; refinement builds neighbour lists and signatures once per side.
# The search proper is the library's ``_search``, handed colors this
# refinement already made stable: on a stable coloring the library's
# refinement ends after one round and renames no color, so the search
# branches as it would on the reference's own colors


def reference_refine(adj1, adj2, colors1, colors2):
    """Color refinement side by side through one palette; stable colors, or
    None when the two sides' color multisets differ."""
    out1, in1, out2, in2 = (
        [np.flatnonzero(row).tolist() for row in adj] for adj in (adj1, adj1.T, adj2, adj2.T)
    )

    def signatures(colors, outs, ins):
        return [
            (c, tuple(sorted(colors[u] for u in out)), tuple(sorted(colors[u] for u in inn)))
            for c, out, inn in zip(colors, outs, ins)
        ]

    while True:
        if sorted(colors1) != sorted(colors2):
            return None
        sig1, sig2 = signatures(colors1, out1, in1), signatures(colors2, out2, in2)
        palette = {sig: c for c, sig in enumerate(sorted(set(sig1) | set(sig2)))}
        new1 = [palette[s] for s in sig1]
        new2 = [palette[s] for s in sig2]
        if len(set(new1)) == len(set(colors1)):
            if sorted(new1) != sorted(new2):
                return None
            return new1, new2
        colors1, colors2 = new1, new2


def reference_quotient_search(adj1, adj2, colors1, colors2, budget, candidate=None) -> IsoResult:
    if candidate is not None and _verify(candidate, adj1, adj2, colors1, colors2):
        return IsoResult(found=True, mapping=tuple(candidate))
    (classes1, quotient1), (classes2, quotient2) = (
        twin_quotient(adj1, colors1), twin_quotient(adj2, colors2)
    )
    keys1, keys2 = (
        [(colors[c[0]], len(c), bool(adj[c[0], c[-1]])) for c in classes]
        for classes, adj, colors in ((classes1, adj1, colors1), (classes2, adj2, colors2))
    )
    if sorted(keys1) != sorted(keys2):
        return IsoResult(found=False)
    refined = reference_refine(quotient1, quotient2, keys1, keys2)
    if refined is None:
        return IsoResult(found=False)
    result = _search(quotient1, quotient2, *refined, budget)
    if not result.found:
        return result
    mapping = [-1] * len(adj1)
    for i, j in enumerate(result.mapping):
        for v, w in zip(classes1[i], classes2[j]):
            mapping[v] = w
    assert _verify(mapping, adj1, adj2, colors1, colors2)
    return IsoResult(found=True, mapping=tuple(mapping))


def reference_graph_isomorphism(g1, g2, *, budget=DEFAULT_BUDGET) -> IsoResult:
    if g1.degree_sequence() != g2.degree_sequence():
        return IsoResult(found=False)
    deg1, deg2 = g1.adj.sum(axis=1).tolist(), g2.adj.sum(axis=1).tolist()
    return reference_quotient_search(g1.adj, g2.adj, deg1, deg2, budget)


def reference_digraph_isomorphism(d1, d2, *, budget=DEFAULT_BUDGET, candidate=None) -> IsoResult:
    pairs1, pairs2 = (list(zip(d.adj.sum(axis=1).tolist(), d.adj.sum(axis=0).tolist()))
                      for d in (d1, d2))
    if sorted(pairs1) != sorted(pairs2):
        return IsoResult(found=False)
    palette = {p: c for c, p in enumerate(sorted(set(pairs1)))}
    c1, c2 = [palette[p] for p in pairs1], [palette[p] for p in pairs2]
    return reference_quotient_search(d1.adj, d2.adj, c1, c2, budget, candidate)


def reference_lattice_isomorphism(L1, L2, *, budget=DEFAULT_BUDGET) -> IsoResult:
    if (sorted(L1.orders), len(L1.covers)) != (sorted(L2.orders), len(L2.covers)):
        return IsoResult(found=False)
    return reference_quotient_search(hasse(L1), hasse(L2), list(L1.orders), list(L2.orders), budget)


# ---------------------------------------------------------------------------
# naive reference implementations, kept deliberately independent of the
# library's vectorised versions: plain pair loops over membership sets


def naive_member_sets(G: FiniteGroup) -> list[set[int]]:
    return [set(generated_subgroup(G, x).members) for x in G.elements()]


def naive_epow_edges(G: FiniteGroup) -> set[tuple[int, int]]:
    subs = naive_member_sets(G)
    return {
        (x, y)
        for x in G.elements()
        for y in G.elements()
        if x < y and any(x in s and y in s for s in subs)
    }


def naive_pow_edges(G: FiniteGroup) -> set[tuple[int, int]]:
    subs = naive_member_sets(G)
    return {
        (x, y)
        for x in G.elements()
        for y in G.elements()
        if x < y and (y in subs[x] or x in subs[y])
    }


def naive_dirpow_arcs(G: FiniteGroup) -> set[tuple[int, int]]:
    subs = naive_member_sets(G)
    return {
        (x, y)
        for x in G.elements()
        for y in G.elements()
        if x != y and y in subs[x]
    }


def naive_diff_edges(G: FiniteGroup) -> set[tuple[int, int]]:
    """Enhanced-minus-power edges in element ids; the vertices they touch are
    exactly the difference graph's retained ones (isolated vertices drop out)."""
    return naive_epow_edges(G) - naive_pow_edges(G)


def naive_associativity_witness(table) -> tuple[int, int, int] | None:
    """The first (x, y, z) in row-major order with (x*y)*z != x*(y*z), or
    None: the full triple loop that Light's test replaces."""
    t = [list(map(int, row)) for row in table]
    n = len(t)
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            for z in range(n):
                if t[xy][z] != t[x][t[y][z]]:
                    return x, y, z
    return None


def reference_identity(table) -> int | None:
    """The two-sided identity, or None, by comparing every row and every
    column with 0..n-1: the scan that validate_group's candidate columns
    replace."""
    arr = np.asarray(table)
    ids = np.arange(len(arr))
    is_identity = (arr == ids).all(axis=1) & (arr == ids[:, None]).all(axis=0)
    return int(is_identity.argmax()) if is_identity.any() else None


def reference_inverses(table, identity: int) -> tuple[int | None, list[int] | None]:
    """``(x, None)`` for the first element x with no two-sided inverse, else
    ``(None, inverses)`` with each element's smallest two-sided inverse, by
    one n x n scan: the scan that validate_group's argmax and two gathers
    replace."""
    arr = np.asarray(table)
    two_sided = (arr == identity) & (arr.T == identity)
    has_inverse = two_sided.any(axis=1)
    if not has_inverse.all():
        return int(has_inverse.argmin()), None
    return None, two_sided.argmax(axis=1).tolist()


def reference_validate(table) -> tuple[int, list[int], tuple[int, ...]]:
    """The identity, the inverses and the elements Light's test checked, of
    a table whose entries are in range, or the :class:`NoIdentity`,
    :class:`MissingInverse` or :class:`NotAssociative` that validate_group
    raises, with the witness it names.  The reached set is closed breadth
    first, each newly reached element times each tested element, one round
    per word length: the closure that validate_group's doubling replaces."""
    arr = np.asarray(table)
    identity = reference_identity(arr)
    if identity is None:
        raise NoIdentity()
    missing, inverse = reference_inverses(arr, identity)
    if missing is not None:
        raise MissingInverse(missing)
    n = len(arr)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    tests = []
    while not reached.all():
        a = int(reached.argmin())
        fails = arr[arr[:, a]] != arr[:, arr[a]]
        if fails.any():
            x, z = map(int, np.argwhere(fails)[0])
            raise NotAssociative(x, a, z)
        tests.append(a)
        words = np.append(arr[reached, a], a)
        while True:
            new = np.zeros(n, dtype=bool)
            new[words] = True
            new &= ~reached
            if not new.any():
                break
            reached |= new
            words = arr[np.ix_(np.flatnonzero(new), tests)]
    return identity, inverse, tuple(tests)


def reference_cyclic_walk(G: FiniteGroup) -> tuple[np.ndarray, list[CyclicSubgroup], tuple[int, ...]]:
    """M, the sorted cyclic subgroups and each element's node, by one walk
    per subgroup that marks its generators one by one and copies z's row of
    M to each of them, and by a loop over every generator of every
    subgroup: the walk and the labelling that the library's array writes
    replace."""
    M = np.zeros((G.order, G.order), dtype=bool)
    subs = []
    done = [False] * G.order
    for z in G.elements():
        if done[z]:
            continue
        sub = generated_subgroup(G, z)
        subs.append(sub)
        M[z, list(sub.members)] = True
        if len(sub.generators) > 1:
            M[list(sub.generators)] = M[z]
        for x in sub.generators:
            done[x] = True
    subs.sort()
    labels = [0] * G.order
    for v, sub in enumerate(subs):
        for x in sub.generators:
            labels[x] = v
    return M, subs, tuple(labels)


def reference_covers(G: FiniteGroup) -> frozenset[tuple[int, int]]:
    """The covers of ``build_lattice(G)``, by the nodes x nodes gather of M
    that reading them off each subgroup's members replaces: (i, j) when the
    generator of node i lies in node j and the order quotient is prime."""
    subs = cyclic_subgroups(G)
    reps = [s.generators[0] for s in subs]
    # below[j, i]: the generator of subs[i] lies in subs[j]
    below = G.membership[np.ix_(reps, reps)]
    return frozenset(
        (i, j) for j, i in np.argwhere(below).tolist() if is_prime(subs[j].order // subs[i].order)
    )


def reference_product_data(factors: list[tuple[np.ndarray, list[str]]]):
    """The direct product of a chain of (table, names) factors, folded one
    pair at a time from the left, where the library folds from the right:
    ``(a*|B| + b)*|C| + c`` against ``a*|B||C| + (b*|C| + c)``."""
    (table, names), *rest = factors
    for th, names_h in rest:
        ng, nh = len(table), len(th)
        out = np.empty((ng * nh, ng * nh), dtype=np.result_type(table, th))
        view = out.reshape(ng, nh, ng, nh)
        np.multiply(table[:, None, :, None], nh, out=view)
        view += th[None, :, None, :]
        table, names = out, [f"({a},{b})" for a in names for b in names_h]
    return table, names


def reference_maximal_cliques(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique, by Bron-Kerbosch with pivoting as one
    recursive call per clique vertex, largest first then lexicographic.
    Pivot ties go to the lowest id."""
    adj = [set(np.flatnonzero(row).tolist()) for row in g.adj]
    out = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(sorted(cand | excl), key=lambda u: len(cand & adj[u]))
        for v in sorted(cand - adj[pivot]):
            expand(clique | {v}, cand & adj[v], excl & adj[v])
            cand.remove(v)
            excl.add(v)

    if g.vertex_count:
        expand(set(), set(range(g.vertex_count)), set())
    return sorted(out, key=lambda c: (-len(c), c))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def intersections_are_transitive(g: SimpleGraph) -> bool:
    """Whether, for each d, "d divides |C_i ∩ C_j|" is an equivalence on the
    maximal cliques C_i of g whose size d divides.  In the enhanced power
    graph of a group it is: two maximal cyclic subgroups share their
    subgroup of order d exactly when d divides the order of their
    intersection."""
    cliques = [set(c) for c in maximal_cliques(g)]
    meets = np.array([[len(a & b) for b in cliques] for a in cliques], dtype=np.int64)
    for d in {d for c in cliques for d in divisors(len(c))}:
        held = np.flatnonzero(meets.diagonal() % d == 0)
        related = (meets[np.ix_(held, held)] % d == 0).astype(float)
        if not np.array_equal(related @ related > 0, related > 0):
            return False
    return True


def reference_lattice_from_epow(g: SimpleGraph) -> CyclicLattice:
    """``lattice_from_epow`` without its certificate, as one pairwise set
    loop: every clique pair costs a set intersection, a ``divisors`` call and
    a union per divisor.  The reference for the bitset version's lattices and
    refusal messages, on the library's clique list."""
    if g.vertex_count == 0:
        raise NotAnEnhancedPowerGraph("a group is never empty, the graph is")
    cliques = maximal_cliques(g)
    if not cliques:
        raise NotAnEnhancedPowerGraph(
            "no closed neighbourhood is a clique, but in an enhanced power graph "
            "each maximal cyclic subgroup is the closed neighbourhood of its generators"
        )
    sizes = [len(c) for c in cliques]
    node_ids: dict[tuple[int, int], int] = {}
    for ci, size in enumerate(sizes):
        for d in divisors(size):
            node_ids[(ci, d)] = len(node_ids)
    uf = _UnionFind(len(node_ids))
    csets = [set(c) for c in cliques]
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            r = len(csets[i] & csets[j])
            if r == 0:
                raise NotAnEnhancedPowerGraph(
                    f"maximal cliques {i} and {j} are disjoint, but every "
                    "enhanced power graph has a universal identity vertex"
                )
            if sizes[i] % r or sizes[j] % r:
                raise NotAnEnhancedPowerGraph(
                    f"maximal cliques {i} and {j} intersect in {r} vertices, "
                    f"which does not divide both clique sizes {sizes[i]} and {sizes[j]}"
                )
            for d in divisors(r):
                uf.union(node_ids[(i, d)], node_ids[(j, d)])

    classes: dict[int, list[tuple[int, int]]] = {}
    for key, idx in node_ids.items():
        classes.setdefault(uf.find(idx), []).append(key)
    class_order: dict[int, int] = {}
    for root, members in classes.items():
        ds = {d for (_, d) in members}
        if len(ds) != 1:
            raise NotAnEnhancedPowerGraph(
                f"identification merged subgroup orders {sorted(ds)}"
            )
        class_order[root] = next(iter(ds))
    ordered = sorted(classes, key=lambda r: (class_order[r], sorted(classes[r])))
    node_of_root = {root: v for v, root in enumerate(ordered)}
    orders = tuple(class_order[root] for root in ordered)
    covers = {
        (node_of_root[uf.find(node_ids[(ci, d)])], node_of_root[uf.find(node_ids[(ci, dd)])])
        for ci, size in enumerate(sizes)
        for d, dd in divisor_cover_pairs(size)
    }
    for d in sorted(set(orders)):
        if g.vertex_count % d:
            raise NotAnEnhancedPowerGraph(
                f"subgroup order {d} does not divide the group order {g.vertex_count}"
            )
    lat = CyclicLattice(orders=orders, covers=frozenset(covers))
    if lat.violations:
        raise NotAnEnhancedPowerGraph(
            "reconstructed covers do not form a cyclic subgroup lattice: "
            + "; ".join(lat.violations)
        )
    return lat


def reference_violations(L: CyclicLattice) -> tuple[str, ...]:
    """``CyclicLattice.violations`` with two more checks, which the others
    imply: the minimal nodes are the bottom, and inside each down-set that
    has the divisors as orders, u <= w exactly when order(u) | order(w).
    The meet test runs on every pair, whatever the earlier checks found.
    The reference the library's list must equal without those two kinds
    and, when a line of an earlier check remains, without the meet lines."""
    out: list[str] = []
    n = L.node_count
    if n == 0:
        return ("lattice has no nodes",)
    for v, d in enumerate(L.orders):
        if d < 1:
            out.append(f"node {v} has non-positive order {d}")
    for lo, hi in L.covers:
        if not (0 <= lo < n and 0 <= hi < n):
            out.append(f"cover ({lo},{hi}) references unknown nodes")
    if out:
        return tuple(out)

    bottoms = [v for v in L.nodes() if L.orders[v] == 1]
    if len(bottoms) != 1:
        out.append(f"expected one node of order 1, found {bottoms}")
    stages, R = L._kahn_pass
    minimal = stages[0] if stages else set()
    if bottoms and minimal != set(bottoms):
        out.append(f"minimal nodes {sorted(minimal)} differ from the bottom")

    for lo, hi in sorted(L.covers):
        dlo, dhi = L.orders[lo], L.orders[hi]
        if dhi % dlo != 0 or not is_prime(dhi // dlo):
            out.append(f"cover ({lo},{hi}) has non-prime order quotient {dhi}/{dlo}")

    placed = set().union(*stages)
    if len(placed) < n:
        out.append(f"cover cycle through nodes {sorted(set(L.nodes()) - placed)}")
        return tuple(out)

    orders = np.array(L.orders)
    for v in L.nodes():
        dv = L.orders[v]
        below = np.flatnonzero(R[v])
        ob = orders[below]
        order_of = sorted(ob.tolist())
        if order_of != divisors(dv):
            out.append(
                f"down-set of node {v} (order {dv}) has orders {order_of}, "
                f"expected the divisors {divisors(dv)}"
            )
            continue
        # inside a down-set, u <= w must hold exactly when order(u) | order(w)
        le = R[np.ix_(below, below)].T
        divides = ob[None, :] % ob[:, None] == 0
        for i, j in np.argwhere(le != divides):
            u, w = below[i], below[j]
            out.append(
                f"down-set of node {v}: nodes {u},{w} do not order like "
                f"the divisors {L.orders[u]},{L.orders[w]}"
            )

    # unique greatest lower bound for every pair: a set's greatest element,
    # if any, is its last in a linear extension, here the stage order
    order = [v for stage in stages for v in sorted(stage)]
    below_bits = row_bitsets(R[np.ix_(order, order)])
    for i in range(n):
        for j in range(i + 1, n):
            common = below_bits[i] & below_bits[j]
            if not common or common & ~below_bits[common.bit_length() - 1]:
                u, v = sorted((order[i], order[j]))
                out.append(f"nodes {u},{v} have no greatest common lower bound")
    return tuple(out)


# ---------------------------------------------------------------------------
# the presentation tables as element loops: the references for the catalog's
# broadcast metacyclic and Heisenberg tables


def reference_two_generator_data(m: int, outer: int, mul, names: tuple[str, str]):
    """Table over normal forms b^j a^i (i < m, j < outer, id = j*m + i);
    ``mul(j, i, l, k)`` is the normal form of (b^j a^i)(b^l a^k)."""
    n = m * outer
    table = np.zeros((n, n), dtype=np.int64)
    a_name, b_name = names
    for j in range(outer):
        for i in range(m):
            for l in range(outer):
                for k in range(m):
                    jj, ii = mul(j, i, l, k)
                    table[j * m + i, l * m + k] = jj * m + ii
    labels = []
    for j in range(outer):
        for i in range(m):
            b_part = "" if j == 0 else (b_name if j == 1 else f"{b_name}{j}")
            a_part = "" if i == 0 else (f"{a_name}{i}" if i > 1 else a_name)
            labels.append((b_part + a_part) or "e")
    return table, labels


def reference_dihedral_data(order: int):
    m = order // 2

    def mul(j, i, l, k):
        return (j + l) % 2, (i * (-1) ** l + k) % m

    return reference_two_generator_data(m, 2, mul, ("r", "s"))


def reference_quaternion_data(order: int):
    m = order // 2

    def mul(j, i, l, k):
        ii = (i * (-1) ** l + k) % m
        if j and l:
            ii = (ii + m // 2) % m
        return (j + l) % 2, ii

    return reference_two_generator_data(m, 2, mul, ("a", "b"))


def reference_semidihedral_data(order: int):
    m = order // 2
    t = m // 2 - 1

    def mul(j, i, l, k):
        return (j + l) % 2, (i * pow(t, l, m) + k) % m

    return reference_two_generator_data(m, 2, mul, ("a", "x"))


def reference_modular_data(p: int, n: int):
    m = p ** (n - 1)
    t = 1 + p ** (n - 2)

    def mul(j, i, l, k):
        return (j + l) % p, (i * pow(t, l, m) + k) % m

    return reference_two_generator_data(m, p, mul, ("a", "x"))


def reference_heisenberg_data(p: int):
    n = p**3
    table = np.zeros((n, n), dtype=np.int64)
    labels = []

    def pack(a, b, c):
        return (a * p + b) * p + c

    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                labels.append(f"({a1},{b1},{c1})")
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            table[pack(a1, b1, c1), pack(a2, b2, c2)] = pack(
                                (a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p
                            )
    return table, labels


def reference_closure_table(degree: int, generators) -> np.ndarray:
    """The permutation group's table as a pairwise loop: the breadth-first
    closure indexed by discovery, then each product (x∘y)[i] = x[y[i]]
    looked up by its tuple."""
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        u = queue.popleft()
        for g in generators:
            w = tuple(u[g[i]] for i in range(degree))
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
                queue.append(w)
    n = len(elems)
    table = np.zeros((n, n), dtype=np.uint16)
    for xi, x in enumerate(elems):
        for yi, y in enumerate(elems):
            table[xi, yi] = index[tuple(x[y[i]] for i in range(degree))]
    return table


# ---------------------------------------------------------------------------
# the Cayley CSV reader as one cell loop per row, with no native conversion:
# the reference for the library's reader


def reference_cayley_csv_data(path: str, order_cap: int) -> tuple[np.ndarray, list[str]]:
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.strip()]
    n = len(rows)
    if n > order_cap:
        raise TooLarge(n, order_cap)
    table = np.zeros((n, n), dtype=np.int64)
    for r, line in enumerate(rows):
        cells = line.replace(",", " ").split(maxsplit=n)
        if len(cells) != n:
            found = f"more than {n}" if len(cells) > n else len(cells)
            raise CayleyParseError(r, min(len(cells), n), f"expected {n} entries, found {found}")
        try:
            table[r] = list(map(int, cells))
        except (ValueError, OverflowError):
            c, message = _reference_first_bad_cell(cells)
            raise CayleyParseError(r, c, message) from None
    return table, [str(i) for i in range(n)]


def _reference_first_bad_cell(cells: list[str]) -> tuple[int, str]:
    for c, cell in enumerate(cells):
        try:
            value = int(cell)
        except ValueError:
            return c, f"not an integer: {cell!r}"
        if not -(2**63) <= value < 2**63:
            return c, f"integer out of range: {cell!r}"
    raise AssertionError("no bad cell in a row that failed to parse")
