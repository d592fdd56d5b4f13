"""Element-free reconstructions between power-type graphs and the cyclic
subgroup lattice.

One direction starts from an unlabeled enhanced power graph and recovers the
order-labelled lattice from its maximal cliques: every maximal clique is a
maximal cyclic subgroup, each clique of size n contributes one candidate
subgroup per divisor of n, candidates are identified across cliques through
the sizes of pairwise clique intersections, and covers are the prime-quotient
divisor pairs read off inside each clique.  Every pair shares the identity,
so the order-1 candidates form one class up front and only pairs meeting in
more than one vertex reach the union-find.  Those pairs are found from the
vertex-to-clique incidence: a pair meets in more than the identity exactly
when it shares another vertex, so the pairs come from each other vertex's
list of cliques, at a cost of the sum of c(x)² over the vertices x, for c(x)
the number of cliques holding x, instead of k² for k cliques.  A graph with
no vertex in every clique, or one where that sum is not the smaller, has
each pair scanned as one AND and one ``bit_count`` of int bitsets; only
without such a vertex can a pair be disjoint.

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
the four builders below share that work.  Vertices carry canonical
(node, generator-index) labels throughout; on the oracle side each element's
label is read off the generators of its subgroup in the group's lattice.
Two labelled graphs match when their labels name a bijection, the k-th
generator of each node to the k-th, that carries one ``adj`` onto the other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .group_core import FiniteGroup
from .lattice import (
    CanonicalLabel,
    CyclicLattice,
    LatticeWithSubgroups,
    divisor_cover_pairs,
    divisors,
    reachability,
    totient,
    validate_lattice,
)
from .power_graphs import Digraph, SimpleGraph, maximal_cliques


class NotAnEnhancedPowerGraph(ValueError):
    """The input graph cannot be the enhanced power graph of any finite group."""


@dataclass(frozen=True)
class LabeledGraph:
    graph: SimpleGraph
    labels: tuple[CanonicalLabel, ...]


@dataclass(frozen=True)
class LabeledDigraph:
    digraph: Digraph
    labels: tuple[CanonicalLabel, ...]


def label_strings(labels: tuple[CanonicalLabel, ...]) -> list[str]:
    """Serialized vertex names, one per vertex: ``n<node>:g<index>``."""
    return [f"n{lbl.node}:g{lbl.index}" for lbl in labels]


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


def _larger_meets(cliques: list[tuple[int, ...]], n: int) -> Iterator[tuple[int, int, int]]:
    """(i, j, r) for each clique pair i < j whose intersection size r is not
    1, in row-major order.

    With a vertex e in every clique, a pair meets in 1 + the other vertices
    it shares, so the pairs can be counted through each vertex x != e, which
    visits c(x)(c(x) - 1)/2 pairs for c(x) the cliques holding x.  That runs
    when it visits fewer pairs in all than the k(k - 1)/2 of k cliques.
    Otherwise each pair is one AND and one ``bit_count`` of int bitsets,
    yielded as it is found."""
    k = len(cliques)
    holding: list[list[int]] = [[] for _ in range(n)]
    for ci, clique in enumerate(cliques):
        for x in clique:
            holding[x].append(ci)
    common = set(cliques[0]).intersection(*cliques[1:])
    if common:
        del holding[min(common)]
    if common and sum(len(cis) * (len(cis) - 1) for cis in holding) < k * (k - 1):
        shared = Counter(pair for cis in holding for pair in combinations(cis, 2))
        for (i, j), s in sorted(shared.items()):
            yield i, j, 1 + s
        return
    bit = [1 << v for v in range(n)]
    masks = [sum(map(bit.__getitem__, c)) for c in cliques]
    for i, mask in enumerate(masks):
        meets = [(mask & other).bit_count() for other in masks[i + 1 :]]
        if meets.count(1) < len(meets):
            yield from ((i, j, r) for j, r in enumerate(meets, i + 1) if r != 1)


def lattice_from_epow(g: SimpleGraph) -> CyclicLattice:
    """Recover the order-labelled cyclic subgroup lattice from an unlabeled
    enhanced power graph.

    The input is promised to be the enhanced power graph of some finite
    group.  The promise is checked as far as the arithmetic allows, and a
    :class:`NotAnEnhancedPowerGraph` with a diagnosis is raised when any
    check fails; the checks are necessary conditions, not a complete
    recognition procedure.

    The order-1 candidates are merged into one class once; a pair meeting
    in one vertex adds nothing more, so ``divisors`` and the union-find run
    only on larger intersections.  When some vertex e lies in every clique,
    those pairs and their intersection sizes come from the cliques holding
    each other vertex, at a cost of the sum of c(x)² over x != e, for c(x)
    the cliques holding x, in place of k² for k cliques.  When that sum is
    not the smaller, or no vertex lies in every clique, every pair is
    scanned as one AND and one ``bit_count`` of int bitsets.  Either way the
    pairs are checked in row-major order, so the first failing pair in that
    order is the one reported.
    """
    if g.vertex_count == 0:
        raise NotAnEnhancedPowerGraph("a group is never empty, the graph is")
    # distinct maximal cyclic subgroups have disjoint, nonempty generator
    # sets, so a genuine input has at most one maximal clique per vertex
    cliques = maximal_cliques(g, limit=g.vertex_count)
    if len(cliques) > g.vertex_count:
        raise NotAnEnhancedPowerGraph(
            f"found more than {g.vertex_count} maximal cliques on {g.vertex_count} "
            "vertices, but an enhanced power graph has at most one per vertex: "
            "each is a maximal cyclic subgroup with generators of its own"
        )
    sizes = [len(c) for c in cliques]
    cover_pairs_of = {size: divisor_cover_pairs(size) for size in set(sizes)}

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
    for i, j, r in _larger_meets(cliques, g.vertex_count):
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

    # every union joins candidates of one order, so a class has the order of
    # its first candidate, the one in the lowest clique; nodes are numbered
    # by (order, first clique)
    first: dict[int, tuple[int, int]] = {}
    for key, idx in node_ids.items():
        first.setdefault(uf.find(idx), key)
    ordered = sorted(first, key=lambda r: first[r][::-1])
    node_of_root = {root: v for v, root in enumerate(ordered)}
    orders = tuple(first[root][1] for root in ordered)

    def node_of(ci: int, d: int) -> int:
        return node_of_root[uf.find(node_ids[(ci, d)])]

    covers = set()
    for ci, size in enumerate(sizes):
        for d, dd in cover_pairs_of[size]:
            covers.add((node_of(ci, d), node_of(ci, dd)))

    total = sum(totient(d) for d in orders)
    if total != g.vertex_count:
        raise NotAnEnhancedPowerGraph(
            f"generator counting failed: the classes account for {total} "
            f"vertices but the graph has {g.vertex_count}"
        )
    for d in sorted(set(orders)):
        if g.vertex_count % d:
            raise NotAnEnhancedPowerGraph(
                f"subgroup order {d} does not divide the group order {g.vertex_count}"
            )

    lat = CyclicLattice(orders=orders, covers=frozenset(covers))
    report = validate_lattice(lat)
    if not report.ok:
        raise NotAnEnhancedPowerGraph(
            "reconstructed covers do not form a cyclic subgroup lattice: "
            + "; ".join(report.violations)
        )
    return lat


# ---------------------------------------------------------------------------
# lattice -> graphs


def epow_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Rebuild the labelled enhanced power graph by clique gluing: each node
    contributes the clique on the fresh vertices of its whole down-set."""
    return LabeledGraph(graph=L.power_graphs.epow, labels=L.vertex_labels)


def pow_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Rebuild the labelled power graph: edges only between comparable nodes."""
    return LabeledGraph(graph=L.power_graphs.pow, labels=L.vertex_labels)


def dirpow_from_lattice(L: CyclicLattice) -> LabeledDigraph:
    """Rebuild the labelled directed power graph: downward orientation.

    Within one node's fresh vertices both arc directions are present; across
    comparable nodes arcs point from the higher subgroup's generators to
    every vertex strictly below.  Incomparable nodes get no arcs.
    """
    return LabeledDigraph(digraph=L.power_graphs.dirpow, labels=L.vertex_labels)


def diff_from_lattice(L: CyclicLattice) -> LabeledGraph:
    """Difference graph from the lattice: enhanced edges minus power edges,
    isolated vertices removed (labels keep their identity)."""
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
    keep = [x for x, lbl in enumerate(labels) if lbl.node in ends]
    edges = [
        (i, j)
        for i, x in enumerate(keep)
        for j, y in enumerate(keep)
        if i < j and (labels[x].node, labels[y].node) in pairs
    ]
    return LabeledGraph(
        graph=SimpleGraph.from_edges(len(keep), edges), labels=tuple(labels[x] for x in keep)
    )


# ---------------------------------------------------------------------------
# oracle-side labelling and label-respecting comparison


def oracle_labeling(
    G: FiniteGroup, LS: LatticeWithSubgroups
) -> tuple[CanonicalLabel, ...]:
    """Label each group element with its subgroup's node and its 1-based rank
    among that subgroup's generators (sorted by element id).  Every element
    generates exactly one cyclic subgroup of ``LS``, the lattice of G."""
    labels: list[CanonicalLabel | None] = [None] * G.order
    for v, sub in enumerate(LS.subgroup_of):
        for index, x in enumerate(sub.generators, start=1):
            labels[x] = CanonicalLabel(node=v, index=index)
    return tuple(labels)


def _by_label(labels) -> tuple[np.ndarray, np.ndarray]:
    """The vertices in (node, index) order, and the rows node, index in that order."""
    keys = np.array([[lbl.node for lbl in labels], [lbl.index for lbl in labels]], np.int64)
    order = np.lexsort(keys[::-1])
    return order, keys[:, order]


def _same_under_labels(labels_a, adj_a, labels_b, adj_b) -> bool:
    (order_a, keys_a), (order_b, keys_b) = _by_label(labels_a), _by_label(labels_b)
    repeats = any((keys[:, 1:] == keys[:, :-1]).all(axis=0).any() for keys in (keys_a, keys_b))
    if repeats or not np.array_equal(keys_a[0], keys_b[0]):
        return False
    # the k-th vertex of a node on one side goes to the k-th of it on the other
    to_b = np.empty_like(order_a)
    to_b[order_a] = order_b
    return np.array_equal(adj_a, adj_b.take(to_b, 0).take(to_b, 1))


def graphs_match_up_to_generator_indices(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Equality under the bijection the labels name.  Both sides must have
    the same nodes, with as many vertices each and no label repeated; the
    k-th vertex of a node, in index order, is paired with the k-th vertex of
    that node on the other side, and the pairing must carry one adjacency
    matrix onto the other: one gather and one comparison.

    Generators of one cyclic subgroup are twins in every power-type graph
    (closed twins in the power, directed power and enhanced power graphs,
    open twins in the difference graph), so on these graphs every pairing
    inside the nodes gives the same verdict: the match is up to generator
    indices.
    """
    return _same_under_labels(a.labels, a.graph.adj, b.labels, b.graph.adj)


def digraphs_match_up_to_generator_indices(a: LabeledDigraph, b: LabeledDigraph) -> bool:
    return _same_under_labels(a.labels, a.digraph.adj, b.labels, b.digraph.adj)
