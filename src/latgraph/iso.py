"""Isomorphism testing for simple graphs, digraphs and order-labelled lattices.

One backtracking engine serves all three: vertices are first split by
iterated color refinement (degree-like invariants propagated to a fixed
point), then a depth-first search pairs vertices of equal color, checking
adjacency consistency against the partial mapping in both directions.  Each
unmapped vertex keeps its viable images as an int bitset, narrowed by a few
mask ANDs per mapped pair, and the search runs on an explicit stack rather
than by recursion, so structures of any size map without hitting Python's
recursion limit.  Every claimed isomorphism is re-verified pair by pair,
colors included, before it is returned, so pruning can never produce a false
positive.

Searches carry a node-expansion budget; exhausting it raises
:class:`IsoTimeout`, which is distinct from a verified "not isomorphic" and
reports how far the search got.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_core import FiniteGroup
from .lattice import CyclicLattice, build_lattice
from .power_graphs import (
    Digraph,
    SimpleGraph,
    dirpow_oracle,
    epow_oracle,
    pow_oracle,
)

DEFAULT_BUDGET = 10_000_000


class IsoTimeout(Exception):
    """The search used up its budget; ``expansions`` counts the pairs tried
    and ``depth`` is the most vertices it had mapped at once."""

    def __init__(self, budget: int, expansions: int, depth: int):
        self.budget = budget
        self.expansions = expansions
        self.depth = depth
        super().__init__(
            f"isomorphism search exhausted its budget of {budget} expansions "
            f"(expansions={expansions}, depth={depth})"
        )


@dataclass(frozen=True)
class IsoResult:
    found: bool
    mapping: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EquivalenceProfile:
    """The four pairwise-isomorphism verdicts for a pair of groups."""

    lattice_iso: bool
    dirpow_iso: bool
    epow_iso: bool
    pow_iso: bool

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.lattice_iso, self.dirpow_iso, self.epow_iso, self.pow_iso)


def _refine(out1, in1, out2, in2, colors1, colors2):
    """Joint color refinement; returns stable colors or None on mismatch."""
    n = len(out1)
    while True:
        if sorted(colors1) != sorted(colors2):
            return None
        sig1 = [
            (
                colors1[v],
                tuple(sorted(colors1[u] for u in out1[v])),
                tuple(sorted(colors1[u] for u in in1[v])),
            )
            for v in range(n)
        ]
        sig2 = [
            (
                colors2[v],
                tuple(sorted(colors2[u] for u in out2[v])),
                tuple(sorted(colors2[u] for u in in2[v])),
            )
            for v in range(n)
        ]
        palette = {sig: c for c, sig in enumerate(sorted(set(sig1) | set(sig2)))}
        new1 = [palette[s] for s in sig1]
        new2 = [palette[s] for s in sig2]
        if len(set(new1)) == len(set(colors1)):
            if sorted(new1) != sorted(new2):
                return None
            return new1, new2
        colors1, colors2 = new1, new2


def _search(out1, in1, out2, in2, colors1, colors2, budget: int) -> IsoResult:
    n = len(out1)
    refined = _refine(out1, in1, out2, in2, colors1, colors2)
    if refined is None:
        return IsoResult(found=False)
    c1, c2 = refined

    # forward checking: every unmapped vertex keeps its viable images as an
    # int bitset; mapping v -> w narrows all other vertices at once, so
    # interchangeable-looking vertices fail fast instead of deep in the tree
    bit = [1 << w for w in range(n)]
    full = (1 << n) - 1
    out2m = [sum(bit[x] for x in out2[w]) for w in range(n)]
    in2m = [sum(bit[x] for x in in2[w]) for w in range(n)]
    by_color: dict[int, int] = {}
    for w in range(n):
        by_color[c2[w]] = by_color.get(c2[w], 0) | bit[w]
    cand = [by_color[c1[v]] for v in range(n)]
    mapping = [-1] * n
    unmapped = set(range(n))
    expansions = depth = 0

    # explicit stack of [v, images of v not yet tried, trail of the current
    # try]: v has the fewest candidates (ties to the lowest id), and its
    # images are tried in ascending order, lowest set bit first
    stack: list[list] = []

    def push() -> None:
        v = min(unmapped, key=lambda u: (cand[u].bit_count(), u))
        stack.append([v, cand[v], None])

    found = not unmapped
    if not found:
        push()
    while stack:
        frame = stack[-1]
        v, rest, trail = frame
        if trail is not None:
            for u, old in trail:
                cand[u] = old
            unmapped.add(v)
            mapping[v] = -1
        if not rest:
            stack.pop()
            continue
        if expansions >= budget:
            raise IsoTimeout(budget, expansions, depth)
        expansions += 1
        depth = max(depth, len(stack))
        low = rest & -rest
        w = low.bit_length() - 1
        frame[1] = rest ^ low
        mapping[v] = w
        unmapped.discard(v)
        # the images an unmapped u may keep, by whether v -> u and u -> v
        out_w, in_w, keep = out2m[w], in2m[w], full ^ low
        masks = (
            keep & ~(out_w | in_w),
            keep & in_w & ~out_w,
            keep & out_w & ~in_w,
            keep & out_w & in_w,
        )
        out_v, in_v = out1[v], in1[v]
        frame[2] = trail = []
        feasible = True
        for u in unmapped:
            old = cand[u]
            new = old & masks[2 * (u in out_v) + (u in in_v)]
            if new != old:
                trail.append((u, old))
                cand[u] = new
                if not new:
                    feasible = False
                    break
        if feasible:
            if not unmapped:
                found = True
                break
            push()

    if not found:
        return IsoResult(found=False)
    if not _verify(mapping, out1, out2, in1, in2, colors1, colors2):
        raise RuntimeError("isomorphism search returned an unsound mapping")
    return IsoResult(found=True, mapping=tuple(mapping))


def _verify(mapping, out1, out2, in1, in2, colors1, colors2) -> bool:
    """Independent re-verification: ``mapping`` is a bijection preserving
    colors, arcs and in- and out-degrees."""
    n = len(out1)
    if sorted(mapping) != list(range(n)):
        return False
    for v in range(n):
        w = mapping[v]
        if colors1[v] != colors2[w]:
            return False
        if len(out1[v]) != len(out2[w]) or len(in1[v]) != len(in2[w]):
            return False
        if any(mapping[u] not in out2[w] for u in out1[v]):
            return False
    return True


def graph_isomorphism(
    g1: SimpleGraph, g2: SimpleGraph, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Decide isomorphism of simple graphs; mapping is verified before return."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return IsoResult(found=False)
    if g1.degree_sequence() != g2.degree_sequence():
        return IsoResult(found=False)
    adj1 = [set(nb) for nb in g1.neighbors]
    adj2 = [set(nb) for nb in g2.neighbors]
    deg1 = [len(nb) for nb in g1.neighbors]
    deg2 = [len(nb) for nb in g2.neighbors]
    return _search(adj1, adj1, adj2, adj2, deg1, deg2, budget)


def digraph_isomorphism(
    d1: Digraph, d2: Digraph, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Decide isomorphism of digraphs using (in-degree, out-degree) invariants."""
    if d1.vertex_count != d2.vertex_count or d1.arc_count != d2.arc_count:
        return IsoResult(found=False)
    out1 = [set(nb) for nb in d1.out_neighbors]
    out2 = [set(nb) for nb in d2.out_neighbors]
    n = d1.vertex_count
    in1: list[set[int]] = [set() for _ in range(n)]
    in2: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for u in out1[v]:
            in1[u].add(v)
        for u in out2[v]:
            in2[u].add(v)
    pairs1 = sorted((len(out1[v]), len(in1[v])) for v in range(n))
    pairs2 = sorted((len(out2[v]), len(in2[v])) for v in range(n))
    if pairs1 != pairs2:
        return IsoResult(found=False)
    palette = {p: c for c, p in enumerate(sorted(set(pairs1)))}
    c1 = [palette[(len(out1[v]), len(in1[v]))] for v in range(n)]
    c2 = [palette[(len(out2[v]), len(in2[v]))] for v in range(n)]
    return _search(out1, in1, out2, in2, c1, c2, budget)


def _lattice_parts(L: CyclicLattice, with_orders: bool):
    n = L.node_count
    up: list[set[int]] = [set() for _ in range(n)]
    down: list[set[int]] = [set() for _ in range(n)]
    for lo, hi in L.covers:
        up[lo].add(hi)
        down[hi].add(lo)
    colors = list(L.orders) if with_orders else [0] * n
    return up, down, colors


def labeled_lattice_isomorphism(
    L1: CyclicLattice, L2: CyclicLattice, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Isomorphism of Hasse diagrams preserving covers and node orders."""
    if L1.node_count != L2.node_count or len(L1.covers) != len(L2.covers):
        return IsoResult(found=False)
    if sorted(L1.orders) != sorted(L2.orders):
        return IsoResult(found=False)
    up1, down1, c1 = _lattice_parts(L1, with_orders=True)
    up2, down2, c2 = _lattice_parts(L2, with_orders=True)
    return _search(up1, down1, up2, down2, c1, c2, budget)


def poset_isomorphism(
    L1: CyclicLattice, L2: CyclicLattice, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Isomorphism of the bare Hasse diagrams, ignoring the order labels."""
    if L1.node_count != L2.node_count or len(L1.covers) != len(L2.covers):
        return IsoResult(found=False)
    up1, down1, c1 = _lattice_parts(L1, with_orders=False)
    up2, down2, c2 = _lattice_parts(L2, with_orders=False)
    return _search(up1, down1, up2, down2, c1, c2, budget)


def compare_groups(
    G1: FiniteGroup, G2: FiniteGroup, *, budget: int = DEFAULT_BUDGET
) -> EquivalenceProfile:
    """The four isomorphism verdicts of the equivalence (lattice, directed
    power, enhanced power, power); for genuine groups they agree."""
    return EquivalenceProfile(
        lattice_iso=labeled_lattice_isomorphism(
            build_lattice(G1).lattice, build_lattice(G2).lattice, budget=budget
        ).found,
        dirpow_iso=digraph_isomorphism(
            dirpow_oracle(G1), dirpow_oracle(G2), budget=budget
        ).found,
        epow_iso=graph_isomorphism(
            epow_oracle(G1), epow_oracle(G2), budget=budget
        ).found,
        pow_iso=graph_isomorphism(
            pow_oracle(G1), pow_oracle(G2), budget=budget
        ).found,
    )


def isomorphism_classes(count: int, fingerprint_of, isomorphic) -> list[list[int]]:
    """Group items 0..count-1 into classes: bucket by fingerprint first, run
    the expensive pairwise check only inside buckets."""
    fingerprints = [fingerprint_of(i) for i in range(count)]
    classes: list[list[int]] = []
    for i in range(count):
        for cls in classes:
            rep = cls[0]
            if fingerprints[rep] == fingerprints[i] and isomorphic(rep, i):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes
