"""The four power-type graphs of a finite group, computed directly.

These are the ground-truth constructions everything else is checked against:

* power graph: x ~ y when one is a power of the other
* directed power graph: arc x -> y when y is a power of x
* enhanced power graph: x ~ y when both lie in a common cyclic subgroup
* difference graph: enhanced edges minus power edges, isolated vertices dropped

All four come from one membership matrix, ``M[z, x]`` meaning x lies in <z>:
dirpow = M, pow = M | Mᵀ, epow = the union of cliques on the distinct rows
of M, and diff = epow & ~pow.  :class:`PowerGraphs` holds these identities,
for one M, and builds each graph once, on first access.  Each oracle reads
one on the group's own ``G.membership``, built once from the
multiplication table; a lattice holds one on ``M = P·R·Pᵀ``,
where R is its reach matrix and P maps each vertex to its node.

A graph is one read-only boolean matrix ``adj``; edge and arc lists are
derived from it on request.  :func:`row_bitsets`
packs matrix rows into int bitsets, for :func:`maximal_cliques`' closed
rows and the isomorphism search's target masks; :func:`pair_by_labels`
pairs vertices by label.  :func:`equal_rows` groups the equal rows of a
packed matrix, hashed by their bytes: the cyclic subgroups (distinct rows
of M) and the twin classes of :func:`twin_quotient`, the quotient the
isomorphism search runs on.

Plus :func:`maximal_cliques`, the engine of the lattice reconstruction: the
maximal cliques of the enhanced power graph are exactly the maximal cyclic
subgroups, and each is the closed neighbourhood of any of its generators.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group_core import FiniteGroup


def _matrix(n: int, pairs, name: str, loop: str) -> np.ndarray:
    """The n x n matrix true at each (u, v) of ``pairs``; ValueError names the
    first self-pair or out-of-range pair, an end past 40 digits shortened."""
    pairs = list(pairs)
    for u, v in pairs:
        if u == v:
            raise ValueError(f"{loop} on vertex {reprlib.repr(u)}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{name} ({reprlib.repr(u)},{reprlib.repr(v)}) out of range")
    adj = np.zeros((n, n), dtype=bool)
    if pairs:
        adj[tuple(zip(*pairs))] = True
    return adj


@dataclass(frozen=True, eq=False)
class _Adjacency:
    """One read-only boolean matrix ``adj``; the graph takes ownership of the
    array it is given.  Equal graphs have equal matrices."""

    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adj, dtype=bool)
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self.adj, other.adj)

    @property
    def vertex_count(self) -> int:
        return len(self.adj)


@dataclass(frozen=True, eq=False)
class SimpleGraph(_Adjacency):
    """Undirected graph on vertices 0..n-1: ``adj`` is symmetric with an
    empty diagonal."""

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(np.triu(self.adj)).tolist()))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.adj.sum(axis=1).tolist()))

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        adj = _matrix(n, edges, "edge", "self-loop")
        return SimpleGraph(adj | adj.T)


@dataclass(frozen=True, eq=False)
class Digraph(_Adjacency):
    """Directed graph on vertices 0..n-1: ``adj[x, y]`` is the arc x -> y, and
    the diagonal is empty."""

    @property
    def arc_count(self) -> int:
        return int(np.count_nonzero(self.adj))

    def arcs(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(self.adj).tolist()))

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        return Digraph(_matrix(n, arcs, "arc", "self-arc"))


@dataclass(frozen=True)
class DifferenceGraph:
    """Difference graph on compacted ids; ``retained[i]`` is the original id."""

    graph: SimpleGraph
    retained: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PowerGraphs:
    """The four power-type graphs of one membership matrix, ``M[z, x]``
    meaning x in <z>, each built on first access: dirpow = M, pow = M | Mᵀ,
    epow = the union of cliques on the distinct rows (the cyclic subgroups),
    diff = epow & ~pow off the two graphs already built.  No self-loops.

    A bijection f with ``M[z, x] == M'[f(z), f(x)]`` carries each graph onto
    its counterpart, diff's isolated vertices onto isolated ones: every step
    above commutes with relabelling rows and columns together.  M's diagonal
    is all true, so any map of the directed power graphs is such an f."""

    membership: np.ndarray

    @cached_property
    def dirpow(self) -> Digraph:
        adj = self.membership.copy()
        np.fill_diagonal(adj, False)
        return Digraph(adj)

    @cached_property
    def pow(self) -> SimpleGraph:
        M = self.membership
        adj = M | M.T
        np.fill_diagonal(adj, False)
        return SimpleGraph(adj)

    @cached_property
    def epow(self) -> SimpleGraph:
        M = self.membership
        n = len(M)
        packed = np.zeros((n, -(-n // 64)), np.uint64)  # whole words: reduceat runs per word
        packed.view(np.uint8)[:, : -(-n // 8)] = np.packbits(M, axis=1)
        reps = np.array([generators[0] for generators in equal_rows(packed)])
        # row x ORs the subgroups holding x (each element is in its own): one reduceat
        s, x = np.divmod(np.flatnonzero(M[reps]), n)
        order = np.argsort(x)
        starts = np.searchsorted(x[order], range(n))
        rows = np.bitwise_or.reduceat(packed.take(reps[s[order]], 0), starts)
        adj = np.unpackbits(rows.view(np.uint8), axis=1, count=n).view(bool)
        np.fill_diagonal(adj, False)
        return SimpleGraph(adj)

    @cached_property
    def diff(self) -> DifferenceGraph:
        adj = self.epow.adj & ~self.pow.adj
        keep = np.flatnonzero(adj.any(axis=0))  # isolated vertices dropped
        return DifferenceGraph(
            graph=SimpleGraph(adj.take(keep, 0).take(keep, 1)), retained=tuple(keep.tolist())
        )


def equal_rows(packed: np.ndarray) -> list[list[int]]:
    """The row ids of a packed matrix grouped by equal rows, each row hashed
    by its bytes; groups in order of first row, ids ascending."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(packed):
        groups.setdefault(row.tobytes(), []).append(i)
    return list(groups.values())


def pair_by_labels(labels_a, labels_b) -> np.ndarray | None:
    """The bijection the labels name: the k-th vertex of a label on side a,
    in id order, to the k-th of that label on side b; None when some label
    is not held equally often on both sides."""
    a, b = np.asarray(labels_a, np.int64), np.asarray(labels_b, np.int64)
    order_a, order_b = a.argsort(kind="stable"), b.argsort(kind="stable")  # ids ascend per label
    if not np.array_equal(a[order_a], b[order_b]):
        return None
    to_b = np.empty_like(order_a)
    to_b[order_a] = order_b
    return to_b


def twin_quotient(adj: np.ndarray, colors) -> tuple[list[list[int]], np.ndarray]:
    """The twin classes of a colored graph or digraph, and its quotient.

    u and v are closed twins when rows u and v of ``[adj | I, adjᵀ | I]``
    are equal, and open (false) twins when rows of ``[adj, adjᵀ]`` are; both
    keys include the vertex color, an integer.  A vertex's class is its
    closed-twin class when that has more than one member, else its open-twin
    class.  No vertex has both nontrivial: were u a closed and w an open twin
    of v, u -> v would give u -> w, then v -> w, yet open twins are not
    adjacent.  Twins are interchangeable, and adjacency between two classes
    is uniform, so the quotient is ``adj[reps][:, reps]`` on one
    representative per class.  Classes are ordered by their lowest member.
    """
    eye = np.eye(len(adj), dtype=bool)
    color = np.asarray(colors, dtype=np.int64).reshape(-1, 1).view(np.uint8)

    def twins(out: np.ndarray, inn: np.ndarray) -> list[list[int]]:
        keys = (color, np.packbits(out, axis=1), np.packbits(inn, axis=1))
        return equal_rows(np.hstack(keys))

    closed = [c for c in twins(adj | eye, adj.T | eye) if len(c) > 1]
    taken = {v for c in closed for v in c}
    classes = sorted(closed + [c for c in twins(adj, adj.T) if c[0] not in taken])
    reps = [c[0] for c in classes]
    return classes, adj[np.ix_(reps, reps)]


def epow_oracle(G: FiniteGroup) -> SimpleGraph:
    """Enhanced power graph: x ~ y when both lie in a common cyclic subgroup."""
    return PowerGraphs(G.membership).epow


def pow_oracle(G: FiniteGroup) -> SimpleGraph:
    """Power graph: x ~ y when x is in <y> or y is in <x>."""
    return PowerGraphs(G.membership).pow


def dirpow_oracle(G: FiniteGroup) -> Digraph:
    """Directed power graph: arc x -> y when y is in <x>, x != y."""
    return PowerGraphs(G.membership).dirpow


def diff_oracle(G: FiniteGroup) -> DifferenceGraph:
    """Difference graph: enhanced minus power edges, isolated vertices removed."""
    return PowerGraphs(G.membership).diff


def maximal_cliques(g: SimpleGraph) -> list[tuple[int, ...]]:
    """The distinct closed neighbourhoods N[x] that are cliques, at most n,
    largest first then lexicographic.

    Each is a maximal clique, since every clique holding x lies in N[x].
    In an enhanced power graph they are all the maximal cliques: for a
    generator x of a maximal cyclic subgroup C, N[x] = C.  A row is a clique
    when each of its members' closed rows contains it: one AND per member
    on int bitsets, stopping at the first that fails.  There is no search.
    """
    closed = [row | 1 << x for x, row in enumerate(row_bitsets(g.adj))]
    cliques = [
        tuple(_bits(row))
        for row in dict.fromkeys(closed)
        if all(closed[y] & row == row for y in _bits(row))
    ]
    return sorted(cliques, key=lambda c: (-len(c), c))


def row_bitsets(rows: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as one int, bit j set when ``rows[i, j]``."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending, one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
