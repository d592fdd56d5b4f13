"""Element-free reconstructions between power-type graphs and the cyclic
subgroup lattice.

One direction starts from an unlabeled enhanced power graph and recovers the
order-labelled lattice from its maximal cliques: every maximal clique is a
maximal cyclic subgroup, the closed neighbourhood of any of its generators,
each clique of size n contributes one candidate subgroup per divisor of n,
candidates are identified across cliques through the sizes of pairwise
clique intersections, and covers are the prime-quotient divisor pairs read
off inside each clique.  Every pair shares the identity, so only pairs
meeting in more than one vertex reach the union-find; they are found from
the vertex-to-clique incidence when that visits fewer pairs than a scan of
all of them.  A lattice is returned only with a certificate that the input
is isomorphic to its enhanced power graph.

The other direction starts from the lattice alone.  Each node of order d
introduces exactly phi(d) fresh vertices (the generators of that subgroup).
With P the vertex-to-node incidence and R the reach matrix (``R[c, a]``
meaning a <= c), ``M = P·R·Pᵀ`` says x lies in <z> exactly when
``M[z, x]``, and the oracles' identities apply unchanged: dirpow = M
(arcs point downward), pow = M | Mᵀ (edges between comparable nodes),
epow = the union of cliques over the down-sets of the nodes, and
diff = epow & ~pow (incomparable nodes below a common node).  The stages and
R come from the lattice's one Kahn pass, and the lattice lays out its labels,
gathers M and builds each graph once (:attr:`CyclicLattice.power_graphs`), so
the four builders below share that work.  A vertex is labelled by its node,
the cyclic subgroup it generates; on the oracle side each element's node is
read off the generators of the subgroups in the group's lattice.  Two
labelled graphs match when the labels name a bijection
(:func:`~latgraph.power_graphs.pair_by_labels`), the k-th vertex of each
node to the k-th in id order, that carries one ``adj`` onto the other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .group_core import FiniteGroup
from .lattice import (
    CyclicLattice,
    InvalidLattice,
    LatticeWithSubgroups,
    divisor_cover_pairs,
    divisors,
    reachability,
    totient,
    validate_lattice,
)
from .power_graphs import Digraph, SimpleGraph, maximal_cliques, pair_by_labels


class NotAnEnhancedPowerGraph(ValueError):
    """The input graph cannot be the enhanced power graph of any finite group."""


@dataclass(frozen=True)
class LabeledGraph:
    """A graph or digraph and the lattice node of each of its vertices."""

    graph: SimpleGraph | Digraph
    labels: tuple[int, ...]


def label_strings(labels: tuple[int, ...]) -> list[str]:
    """Serialized vertex names, one per vertex: ``n<node>:g<k>`` for the
    k-th vertex of its node, counted from 1 in id order."""
    seen: Counter[int] = Counter()
    names = []
    for v in labels:
        seen[v] += 1
        names.append(f"n{v}:g{seen[v]}")
    return names


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


# ---------------------------------------------------------------------------
# graph -> lattice


def _larger_meets(holding: list[list[int]], masks: list[int]) -> Iterator[tuple[int, int, int]]:
    """(i, j, r) for each clique pair i < j whose intersection size r is not
    1, in row-major order.  ``holding[x]`` lists the cliques holding vertex
    x, and ``masks[i]`` is clique i as an int bitset.

    With a vertex e in every clique, a pair meets in 1 + the other vertices
    it shares, so the pairs can be counted through each vertex x != e, which
    visits c(x)(c(x) - 1)/2 pairs for c(x) the cliques holding x.  That runs
    when it visits fewer pairs in all than the k(k - 1)/2 of k cliques.
    Otherwise each pair is one AND and one ``bit_count`` of int bitsets,
    yielded as it is found."""
    k = len(masks)
    common = [x for x, cis in enumerate(holding) if len(cis) == k]
    if common:
        others = holding[: common[0]] + holding[common[0] + 1 :]
        if sum(len(cis) * (len(cis) - 1) for cis in others) < k * (k - 1):
            shared = Counter(pair for cis in others for pair in combinations(cis, 2))
            for (i, j), s in sorted(shared.items()):
                yield i, j, 1 + s
            return
    for i, mask in enumerate(masks):
        meets = [(mask & other).bit_count() for other in masks[i + 1 :]]
        if meets.count(1) < len(meets):
            yield from ((i, j, r) for j, r in enumerate(meets, i + 1) if r != 1)


@dataclass(frozen=True)
class Reconstruction:
    """A rebuilt lattice and each node's name, the lowest maximal clique above it."""

    lattice: CyclicLattice
    clique_of: tuple[tuple[int, ...], ...]


def lattice_from_epow(g: SimpleGraph) -> Reconstruction:
    """Recover the order-labelled cyclic subgroup lattice, with each node's
    name, from an unlabeled enhanced power graph, or refuse it with a
    diagnosis as :class:`NotAnEnhancedPowerGraph`.

    A returned L is certified: it passes :func:`validate_lattice`, and the
    input is isomorphic to the enhanced power graph of L that
    :func:`epow_from_lattice` builds.  The maximal cliques are the closed
    neighbourhoods that are cliques (:func:`maximal_cliques`).  Once L is
    valid, write top(i) for the node of clique i's own size, S(x) for the
    set of cliques holding vertex x, and T(u) for the set of cliques i with
    u <= top(i).  The certificate checks two things:

    1. the cliques holding each vertex x together cover N[x].  Each clique
       is one of the graph, so two vertices x, y are then adjacent exactly
       when S(x) and S(y) meet;
    2. for every set S of cliques, as many vertices x have S(x) = S as the
       nodes u with T(u) = S have generators, the sum of phi(order(u)).

    In epow(L), two vertices are adjacent exactly when their nodes lie
    below a common node, that is, below a common top, since every node lies
    below some top: exactly when their T sets meet.  So a bijection that
    sends the vertices with S(x) = S onto the generators of the nodes with
    T(u) = S, which (2) provides, carries the input onto epow(L).  T(u) is
    read off the candidates: in a valid L the down-set of top(i) has one
    node per divisor of clique i's size, so it is the nodes of clique i's
    candidates.  A failed check is refused as ``certificate: ...``.

    The certificate is a necessary condition only: a certified input need
    not be the enhanced power graph of any group.  The star K₁,₅ is
    certified with five nodes of order 2, yet no group of order 6 has five
    involutions.

    Clique i of size s gives one candidate node per divisor of s.  The
    order-1 candidates are merged into one class once; a pair meeting in
    one vertex adds nothing more, so ``divisors`` and the union-find run
    only on the larger intersections that :func:`_larger_meets` yields, in
    row-major order: the first failing pair in that order is reported.
    """
    n = g.vertex_count
    if n == 0:
        raise NotAnEnhancedPowerGraph("a group is never empty, the graph is")
    cliques = maximal_cliques(g)
    if not cliques:
        raise NotAnEnhancedPowerGraph(
            "no closed neighbourhood is a clique, but in an enhanced power graph "
            "each maximal cyclic subgroup is the closed neighbourhood of its generators"
        )
    sizes = [len(c) for c in cliques]
    cover_pairs_of = {size: divisor_cover_pairs(size) for size in set(sizes)}
    holding: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * len(cliques)
    for ci, clique in enumerate(cliques):
        for x in clique:
            holding[x].append(ci)
            masks[ci] |= 1 << x
    # the vertices per set of cliques, and the sizes in all of the unions
    # U(x) of the cliques holding each x, equal for equal sets
    vertices = Counter(map(tuple, holding))
    covered = sum(
        k * reduce(or_, map(masks.__getitem__, S), 0).bit_count() for S, k in vertices.items()
    )

    node_ids: dict[tuple[int, int], int] = {}
    for ci, size in enumerate(sizes):
        for d in divisors(size):
            node_ids[(ci, d)] = len(node_ids)
    uf = _UnionFind(len(node_ids))

    # a pair that meets unites its order-1 candidates and a disjoint pair is
    # refused, so the order-1 candidates form one class; only pairs meeting
    # in more than one vertex merge more
    for ci in range(1, len(cliques)):
        uf.union(node_ids[(0, 1)], node_ids[(ci, 1)])
    for i, j, r in _larger_meets(holding, masks):
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
        for d in divisors(r)[1:]:
            uf.union(node_ids[(i, d)], node_ids[(j, d)])
    del holding, masks  # out of validate_lattice's memory peak

    # every union joins candidates of one order, so a class has the order of
    # its first candidate, the one in the lowest clique; nodes are numbered
    # by (order, first clique)
    roots = [uf.find(idx) for idx in range(len(node_ids))]
    first: dict[int, tuple[int, int]] = {}
    for key, root in zip(node_ids, roots):
        first.setdefault(root, key)
    ordered = sorted(first, key=lambda r: first[r][::-1])
    node_of_root = {root: v for v, root in enumerate(ordered)}
    orders = tuple(first[root][1] for root in ordered)
    node = [node_of_root[root] for root in roots]  # of each candidate
    covers = {
        (node[node_ids[(ci, d)]], node[node_ids[(ci, dd)]])
        for ci, size in enumerate(sizes)
        for d, dd in cover_pairs_of[size]
    }

    for d in sorted(set(orders)):
        if n % d:
            raise NotAnEnhancedPowerGraph(
                f"subgroup order {d} does not divide the group order {n}"
            )

    lat = CyclicLattice(orders=orders, covers=frozenset(covers))
    try:
        validate_lattice(lat)
    except InvalidLattice as exc:
        raise NotAnEnhancedPowerGraph(
            f"reconstructed covers do not form a cyclic subgroup lattice: {exc}"
        ) from None

    # each U(x) lies in N[x], so the sizes add up to the sum of |N[x]|
    # exactly when every U(x) = N[x]
    closed = n + int(np.count_nonzero(g.adj))
    if covered != closed:
        raise NotAnEnhancedPowerGraph(
            f"certificate: the maximal cliques holding each vertex cover {covered} vertices "
            f"in all, but the closed neighbourhoods hold {closed}"
        )
    tops_above: list[list[int]] = [[] for _ in orders]  # T(u), ascending
    for (ci, _), v in zip(node_ids, node):
        tops_above[v].append(ci)
    generators = Counter(tuple(S) for S, d in zip(tops_above, orders) for _ in range(totient(d)))
    if vertices != generators:
        S = min(S for S in vertices.keys() | generators.keys() if vertices[S] != generators[S])
        raise NotAnEnhancedPowerGraph(
            f"certificate: {vertices[S]} vertices lie in exactly the maximal cliques "
            f"{list(S)}, but the nodes below exactly their tops have {generators[S]} generators"
        )
    return Reconstruction(lat, tuple(cliques[first[root][0]] for root in ordered))


# ---------------------------------------------------------------------------
# lattice -> graphs


def epow_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Rebuild the labelled enhanced power graph by clique gluing: each node
    contributes the clique on the fresh vertices of its whole down-set."""
    return LabeledGraph(graph=L.power_graphs.epow, labels=L.vertex_labels)


def pow_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Rebuild the labelled power graph: edges only between comparable nodes."""
    return LabeledGraph(graph=L.power_graphs.pow, labels=L.vertex_labels)


def dirpow_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Rebuild the labelled directed power graph: downward orientation.

    Within one node's fresh vertices both arc directions are present; across
    comparable nodes arcs point from the higher subgroup's generators to
    every vertex strictly below.  Incomparable nodes get no arcs.
    """
    return LabeledGraph(graph=L.power_graphs.dirpow, labels=L.vertex_labels)


def diff_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Difference graph from the lattice: enhanced edges minus power edges,
    isolated vertices removed; the others keep their labels."""
    diff, labels = L.power_graphs.diff, L.vertex_labels
    return LabeledGraph(graph=diff.graph, labels=tuple(labels[v] for v in diff.retained))


def diff_incomparability(L: CyclicLattice) -> LabeledGraph:
    """Difference graph characterised directly: two vertices are adjacent
    when their nodes share an upper bound but neither lies below the other.

    A pairwise reference that tests compare :func:`diff_from_lattice` with."""
    labels = L.vertex_labels
    below = [set(np.flatnonzero(row).tolist()) for row in reachability(L)]
    pairs = {
        (u, v) for b in below for u in b for v in b if u not in below[v] and v not in below[u]
    }
    ends = {u for u, _ in pairs}
    keep = [x for x, v in enumerate(labels) if v in ends]
    edges = [
        (i, j)
        for i, x in enumerate(keep)
        for j, y in enumerate(keep)
        if i < j and (labels[x], labels[y]) in pairs
    ]
    return LabeledGraph(
        graph=SimpleGraph.from_edges(len(keep), edges), labels=tuple(labels[x] for x in keep)
    )


# ---------------------------------------------------------------------------
# oracle-side labelling and label-respecting comparison


def oracle_labeling(G: FiniteGroup, LS: LatticeWithSubgroups) -> tuple[int, ...]:
    """Label each group element with the node of the cyclic subgroup it
    generates: every element generates exactly one cyclic subgroup of
    ``LS``, the lattice of G."""
    labels = [0] * G.order
    for v, sub in enumerate(LS.subgroup_of):
        for x in sub.generators:
            labels[x] = v
    return tuple(labels)


def _same_under_labels(a: LabeledGraph, b: LabeledGraph) -> bool:
    to_b = pair_by_labels(a.labels, b.labels)
    return to_b is not None and np.array_equal(
        a.graph.adj, b.graph.adj.take(to_b, 0).take(to_b, 1)
    )


def graphs_match_up_to_generator_indices(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Equality under the bijection the labels name
    (:func:`~latgraph.power_graphs.pair_by_labels`): one gather and one
    comparison.  Generators of one cyclic subgroup are twins in every
    power-type graph (closed twins in the power, directed power and
    enhanced power graphs, open twins in the difference graph), so every
    pairing inside the nodes gives the same verdict: the match is up to
    generator indices.
    """
    return _same_under_labels(a, b)


def digraphs_match_up_to_generator_indices(a: LabeledGraph, b: LabeledGraph) -> bool:
    return _same_under_labels(a, b)
