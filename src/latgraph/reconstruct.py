"""Element-free reconstructions between power-type graphs and the cyclic
subgroup lattice.

One direction starts from an unlabeled enhanced power graph and recovers the
order-labelled lattice from its maximal cliques: every maximal clique is a
maximal cyclic subgroup, the closed neighbourhood of any of its generators,
each clique of size n contributes one candidate subgroup per divisor of n,
each candidate is named by its order and the first clique that holds it,
read off the sizes of pairwise clique intersections, and covers are the
prime-quotient divisor pairs read off inside each clique.  The vertices in
every clique, the identity among them, form a core whose divisors every
clique holds, so one loop over the vertex-to-clique incidence tests only
the pairs that share a vertex outside it.  An input whose core is empty,
or has a size that does not divide every clique size and every
intersection the loop tests, is refused: no group has one.  A lattice is
returned only with a certificate that the input is isomorphic to its
enhanced power graph.

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
read off the walk that found the group's cyclic subgroups.  Two
labelled graphs match when the labels name a bijection
(:func:`~latgraph.power_graphs.pair_by_labels`), the k-th vertex of each
node to the k-th in id order, that carries one ``adj`` onto the other.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .group_core import FiniteGroup
from .lattice import (
    CyclicLattice,
    InvalidLattice,
    divisor_cover_pairs,
    divisors,
    reachability,
    totient,
    validate_lattice,
)
from .power_graphs import Digraph, SimpleGraph, _bits, maximal_cliques, pair_by_labels


class NotAnEnhancedPowerGraph(ValueError):
    """The input graph cannot be the enhanced power graph of any finite group."""


@dataclass(frozen=True)
class LabeledGraph:
    """A graph or digraph and the lattice node of each of its vertices."""

    graph: SimpleGraph | Digraph
    labels: tuple[int, ...]


# ---------------------------------------------------------------------------
# graph -> lattice


def _clique_pairs(
    masks: list[int], holders: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, int, int]]:
    """(i, j, r) in row-major order for each clique pair i < j that shares a
    vertex outside the core K of vertices in every clique, with r the size
    of its intersection.  ``masks[i]`` is clique i as an int bitset, and
    ``holders`` lists each set of cliques that holds a vertex, ascending,
    once.  The partners of clique i are the OR of the sets holding its
    vertices, those of K left out, and each costs one AND and one
    ``bit_count``."""
    k = len(masks)
    partners = [0] * k
    for S in holders:
        if 1 < len(S) < k:
            bits = reduce(or_, (1 << i for i in S))
            for i in S:
                partners[i] |= bits
    for i, mask in enumerate(masks):
        for j in _bits(partners[i] & ((1 << k) - (2 << i))):  # its partners after i
            yield i, j, (mask & masks[j]).bit_count()


@dataclass(frozen=True)
class Reconstruction:
    """A rebuilt lattice and each node's name, the lowest maximal clique
    above it: ``clique_of[u]`` holds the vertices of clique c for the node
    u named (order, c) by :func:`lattice_from_epow`."""

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

    Clique i of size s gives one candidate node per divisor d of s, and in
    a group two maximal cyclic subgroups C_i and C_j share their subgroup
    of order d exactly when d divides |C_i ∩ C_j|.  So candidate (i, d) is
    named (d, c) by the first clique c that holds it: c = 0 when d divides
    |K|, the size of the core below; otherwise the lowest h < i whose
    tested pair with i meets in a multiple of d; otherwise i.  The nodes
    are the distinct names, numbered in sorted order, by (order, first
    clique), and node (d, c) is named by clique c.

    In a group, the core K, the vertices in every clique, is the
    intersection of the maximal cyclic subgroups: it holds the identity,
    and it is a subgroup of each of them and of the intersection of any
    two.  So three checks refuse the input: K is empty; |K| does not divide
    a clique size, checked in clique order before any pair; or |K| does
    not divide the intersection of a tested pair.  One loop,
    :func:`_clique_pairs`, tests in row-major order only the pairs that
    share a vertex outside K.  For each it checks that r divides both
    sizes, then that |K| divides r, and the first failing pair in that
    order is reported; the loop's order also makes the first pair (h, i)
    it records for each (i, d) the one with the lowest h.  That is exact:
    a skipped pair meets in exactly K, so it passes both checks, and the
    orders it would relate, the divisors of |K|, are named by clique 0.
    The three core checks refuse no input the certificate accepts.  Two of
    its cliques meet in the down-set of the meet of their tops, which has
    that meet's order as its size, and K is the down-set of the meet of
    all tops, so K is not empty and |K| divides every clique size and
    every intersection.  Each divisor list is computed once per call, for
    the divisors of the clique sizes.

    The names are exact.  A certified input is isomorphic to epow(L) for
    a valid L.  There clique i is the vertex set of the down-set of a top
    t_i, |C_i ∩ C_j| is the order of meet(t_i, t_j), and candidate (i, d)
    is the one node of order d below t_i.  So "d divides |C_i ∩ C_j|" says
    that two candidates are one node: for each d it is an equivalence on
    the cliques whose size d divides, and the first clique of a class is
    its least.  Closing the relation with a union-find instead, each class
    named by its lowest clique, gives the same L, the same numbering and
    the same names.  Transitivity is a property of the input alone, and an
    input where it fails is not isomorphic to any epow(L), so either way
    the same inputs are refused.  The checks before the names, and the one
    on subgroup orders, which sees only the divisors of the clique sizes,
    refuse with the same message either way; only a refusal by
    :func:`validate_lattice` or by the certificate can differ.
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
    # every clique size and every intersection size used below divides one
    divisors_of = {d: divisors(d) for size in cover_pairs_of for d in divisors(size)}
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

    # |K| for the core K, the vertices in every clique
    shared = vertices[tuple(range(len(cliques)))]
    if not shared:
        raise NotAnEnhancedPowerGraph(
            "no vertex lies in every maximal clique, but the identity lies in "
            "every maximal cyclic subgroup"
        )
    # K is a subgroup of every maximal cyclic subgroup, so of any two's intersection
    core = f"not a multiple of the {shared} vertices in every maximal clique, a subgroup of each"
    for ci, size in enumerate(sizes):
        if size % shared:
            raise NotAnEnhancedPowerGraph(f"maximal clique {ci} has {size} vertices, {core}")
    first: dict[tuple[int, int], int] = {}  # (j, d): the lowest tested i < j with d | r
    for i, j, r in _clique_pairs(masks, vertices):
        if sizes[i] % r or sizes[j] % r:
            raise NotAnEnhancedPowerGraph(
                f"maximal cliques {i} and {j} intersect in {r} vertices, "
                f"which does not divide both clique sizes {sizes[i]} and {sizes[j]}"
            )
        if r % shared:
            raise NotAnEnhancedPowerGraph(
                f"maximal cliques {i} and {j} intersect in {r} vertices, {core}"
            )
        for d in divisors_of[r]:
            first.setdefault((j, d), i)
    del holding, masks  # out of validate_lattice's memory peak

    def name(ci: int, d: int) -> tuple[int, int]:
        """Clique ci's candidate of order d as (d, the first clique holding it)."""
        return d, 0 if shared % d == 0 else first.get((ci, d), ci)

    # nodes are numbered by their sorted names, (order, first clique)
    names = sorted({name(ci, d) for ci, size in enumerate(sizes) for d in divisors_of[size]})
    node = {x: v for v, x in enumerate(names)}
    orders = tuple(d for d, _ in names)
    covers = {
        (node[name(ci, d)], node[name(ci, dd)])
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
    for ci, size in enumerate(sizes):
        for d in divisors_of[size]:
            tops_above[node[name(ci, d)]].append(ci)
    generators = Counter(tuple(S) for S, d in zip(tops_above, orders) for _ in range(totient(d)))
    if vertices != generators:
        S = min(S for S in vertices.keys() | generators.keys() if vertices[S] != generators[S])
        raise NotAnEnhancedPowerGraph(
            f"certificate: {vertices[S]} vertices lie in exactly the maximal cliques "
            f"{list(S)}, but the nodes below exactly their tops have {generators[S]} generators"
        )
    return Reconstruction(lat, tuple(cliques[c] for _, c in names))


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


def oracle_labeling(G: FiniteGroup) -> tuple[int, ...]:
    """Label each group element with the node of the cyclic subgroup it
    generates in G's lattice (:func:`~latgraph.lattice.build_lattice`),
    whose nodes are the subgroups in the order of
    :func:`~latgraph.group_core.cyclic_subgroups`.  So the label of x is
    ``G.subgroup_index[x]``, read off the walk that found them, and no
    lattice is needed to compute it."""
    return tuple(G.subgroup_index.tolist())


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
