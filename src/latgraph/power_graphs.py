"""The four power-type graphs of a finite group, computed directly.

These are the ground-truth constructions everything else is checked against:

* power graph: x ~ y when one is a power of the other
* directed power graph: arc x -> y when y is a power of x
* enhanced power graph: x ~ y when both lie in a common cyclic subgroup
* difference graph: enhanced edges minus power edges, isolated vertices dropped

All four come from one membership matrix, ``M[z, x]`` meaning x lies in <z>:
dirpow = M, pow = M | Mᵀ, epow = the union of cliques on the distinct rows
of M, and diff = epow & ~pow.  :func:`graph_from_membership` holds these
identities.  The oracles apply it to the group's own ``G.membership``, built
once from the multiplication table; the lattice reconstructions apply it to
``M = P·R·Pᵀ``, where R is the lattice's reach matrix and P maps each vertex
to its node.

Plus maximal-clique enumeration (Bron-Kerbosch with pivoting, on an explicit
stack of int bitsets), which is the engine of the lattice reconstruction:
the maximal cliques of the enhanced power graph are exactly the maximal
cyclic subgroups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .group_core import DEFAULT_ORDER_CAP, FiniteGroup, TooLarge


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1; per-vertex sorted neighbor tuples."""

    neighbors: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nb in enumerate(self.neighbors) for v in nb if u < v]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(nb) for nb in self.neighbors))

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return SimpleGraph(neighbors=tuple(tuple(sorted(s)) for s in nbrs))

    @staticmethod
    def from_adjacency(adj: np.ndarray) -> "SimpleGraph":
        return SimpleGraph(
            neighbors=tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)
        )


@dataclass(frozen=True)
class Digraph:
    """Directed graph; ``out_neighbors[x]`` are the sorted arc targets of x."""

    out_neighbors: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.out_neighbors)

    @property
    def arc_count(self) -> int:
        return sum(len(nb) for nb in self.out_neighbors)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nb in enumerate(self.out_neighbors) for v in nb]

    def in_degrees(self) -> tuple[int, ...]:
        counts = [0] * self.vertex_count
        for _, v in self.arcs():
            counts[v] += 1
        return tuple(counts)

    def underlying_undirected(self) -> SimpleGraph:
        return SimpleGraph.from_edges(self.vertex_count, self.arcs())

    @staticmethod
    def from_arcs(n: int, arcs) -> "Digraph":
        outs: list[set[int]] = [set() for _ in range(n)]
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range")
            outs[u].add(v)
        return Digraph(out_neighbors=tuple(tuple(sorted(s)) for s in outs))


@dataclass(frozen=True)
class DifferenceGraph:
    """Difference graph on compacted ids; ``retained[i]`` is the original id."""

    graph: SimpleGraph
    retained: tuple[int, ...]


def graph_from_membership(M: np.ndarray, kind: str) -> SimpleGraph | Digraph | DifferenceGraph:
    """The power-type graph ``kind`` of a membership matrix, ``M[z, x]`` meaning
    x in <z>: dirpow = M, pow = M | Mᵀ, epow = the union of cliques on the
    distinct rows (the cyclic subgroups), diff = epow & ~pow.  No self-loops."""
    off_diagonal = ~np.eye(len(M), dtype=bool)
    if kind == "dirpow":
        arcs = M & off_diagonal
        return Digraph(
            out_neighbors=tuple(tuple(np.flatnonzero(row).tolist()) for row in arcs)
        )
    if kind == "pow":
        return SimpleGraph.from_adjacency((M | M.T) & off_diagonal)
    adj = np.zeros_like(M)
    for row in {row.tobytes(): row for row in M}.values():  # the distinct rows
        members = np.flatnonzero(row)
        adj[np.ix_(members, members)] = True
    adj &= off_diagonal
    if kind == "epow":
        return SimpleGraph.from_adjacency(adj)
    adj &= ~(M | M.T)
    keep = np.flatnonzero(adj.any(axis=0))
    return DifferenceGraph(
        graph=SimpleGraph.from_adjacency(adj[np.ix_(keep, keep)]),
        retained=tuple(int(v) for v in keep),
    )


def epow_oracle(G: FiniteGroup) -> SimpleGraph:
    """Enhanced power graph: x ~ y when both lie in a common cyclic subgroup."""
    return graph_from_membership(G.membership, "epow")


def pow_oracle(G: FiniteGroup) -> SimpleGraph:
    """Power graph: x ~ y when x is in <y> or y is in <x>."""
    return graph_from_membership(G.membership, "pow")


def dirpow_oracle(G: FiniteGroup) -> Digraph:
    """Directed power graph: arc x -> y when y is in <x>, x != y."""
    return graph_from_membership(G.membership, "dirpow")


def diff_oracle(G: FiniteGroup) -> DifferenceGraph:
    """Difference graph: enhanced minus power edges, isolated vertices removed."""
    return graph_from_membership(G.membership, "diff")


def maximal_cliques(g: SimpleGraph, *, limit: int | None = None) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, largest first then lexicographic.

    Bron-Kerbosch with pivoting on an explicit stack, over int bitsets:
    adjacency, candidates P and excluded vertices X are each one Python int.
    The pivot maximises ``|P & N(u)|`` over u in P | X, one ``bit_count``
    per vertex, ties going to the lowest id; the branches are the vertices
    of ``P & ~N(pivot)`` in ascending order.

    With ``limit``, the enumeration stops as soon as it has found more than
    ``limit`` cliques, and only those ``limit + 1`` are returned.
    """
    n = g.vertex_count
    if n == 0:
        return []
    bit = [1 << v for v in range(n)]
    adj = [sum(map(bit.__getitem__, nb)) for nb in g.neighbors]
    out: list[tuple[int, ...]] = []
    # one frame per clique vertex: [clique, candidates, excluded, branches left]
    stack: list[list[int]] = []

    def expand(clique: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            out.append(_bits(clique))
            return
        # no u in P has more than |P| - 1 neighbours in P, no u in X more
        # than |P|: the first vertex to reach that bound is the pivot
        bound = cand.bit_count() - (not excl)
        best, pivot, rest = -1, 0, cand | excl
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (cand & adj[u]).bit_count()
            if count > best:
                best, pivot = count, u
                if count == bound:
                    break
            rest ^= low
        stack.append([clique, cand, excl, cand & ~adj[pivot]])

    expand(0, (1 << n) - 1, 0)
    while stack and (limit is None or len(out) <= limit):
        frame = stack[-1]
        clique, cand, excl, branches = frame
        if not branches:
            stack.pop()
            continue
        low = branches & -branches
        v = low.bit_length() - 1
        frame[1], frame[2], frame[3] = cand ^ low, excl | low, branches ^ low
        expand(clique | low, cand & adj[v], excl & adj[v])
    return sorted(out, key=lambda c: (-len(c), c))


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: SimpleGraph | Digraph, labels: list[str] | None = None) -> str:
    """Canonical JSON: {"kind", "vertices", "edges"}; vertices is a count or labels."""
    if isinstance(g, SimpleGraph):
        kind, pairs = "simple", g.edges()
    else:
        kind, pairs = "directed", g.arcs()
    vertices: int | list[str] = g.vertex_count if labels is None else list(labels)
    payload = {"kind": kind, "vertices": vertices, "edges": sorted(map(list, pairs))}
    return json.dumps(payload)


def graph_from_json(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> SimpleGraph | Digraph:
    """Inverse of :func:`graph_to_json` (labels are dropped; ids are positional).

    A malformed payload raises ValueError, and more than ``order_cap``
    vertices raise :class:`TooLarge` before anything is allocated.
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("malformed graph JSON (nested too deeply)") from None
    try:
        vertices = payload["vertices"]
        n = vertices if isinstance(vertices, int) else len(vertices)
        edges = [(int(u), int(v)) for u, v in payload["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph JSON ({exc!r})") from None
    if n > order_cap:
        raise TooLarge(n, order_cap)
    kind = payload.get("kind")
    if kind == "simple":
        return SimpleGraph.from_edges(n, edges)
    if kind == "directed":
        return Digraph.from_arcs(n, edges)
    raise ValueError(f"unknown graph kind {kind!r}")


def graph_to_dot(g: SimpleGraph | Digraph, labels: list[str] | None = None) -> str:
    """DOT text with vertices and edges in canonical order."""
    directed = isinstance(g, Digraph)
    lines = ["digraph {" if directed else "graph {"]
    for v in range(g.vertex_count):
        if labels is not None:
            text = str(labels[v]).replace('"', '\\"')
            lines.append(f'  {v} [label="{text}"];')
        else:
            lines.append(f"  {v};")
    conn = "->" if directed else "--"
    pairs = g.arcs() if directed else g.edges()
    for u, v in sorted(pairs):
        lines.append(f"  {u} {conn} {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
