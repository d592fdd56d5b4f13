"""Isomorphism testing for simple graphs, digraphs and order-labelled lattices.

One backtracking engine serves all three, on an adjacency matrix and a
vertex coloring per side: a simple graph colored by degree, a digraph by
(out-degree, in-degree), and a Hasse diagram as its cover digraph colored by
order.

The search runs on twin quotients.  Twins are vertices of one color with
the same out- and in-neighbours apart from each other: closed twins are
adjacent (the generators of one cyclic subgroup in every power-type graph),
open twins are not (the atoms of an elementary abelian group's Hasse
diagram).  Twins are interchangeable, so each side collapses to one vertex
per twin class (:func:`~latgraph.power_graphs.twin_quotient`), colored by
(color, class size, twin kind).  An isomorphism maps twin classes onto
twin classes, so a quotient that does not map is a verified "not
isomorphic".

On the quotients, vertices are first split by iterated color refinement
(degree-like invariants propagated to a fixed point), then a depth-first
search pairs vertices of equal color, checking adjacency consistency against
the partial mapping in both directions (in-neighbours are rows of
``adj.T``).  Each unmapped vertex keeps its viable images as an int bitset,
narrowed by a few mask ANDs per mapped pair, and the search runs on an
explicit stack rather than by recursion, so structures of any size map
without hitting Python's recursion limit.  A class-to-class mapping is
lifted by pairing the members of mapped classes in ascending id order, and
the lift is verified on the full structures before it is returned: it is a
bijection, it keeps colors, and ``A1 == A2[m][:, m]``, so neither the
quotient nor pruning can produce a false positive.

Each search answers "not isomorphic" at once when a cheap invariant
(``*_invariant``, which the census buckets by) differs.  A caller of
:func:`digraph_isomorphism` holding a likely isomorphism passes it as
``candidate``: when it passes that same verification it is the result, and
no search runs.  A failing candidate changes nothing.

Searches carry a node-expansion budget, counted on the quotients;
exhausting it raises :class:`IsoTimeout`, which is distinct from a verified
"not isomorphic" and reports how far the search got.  A verified candidate
spends no expansions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group_core import FiniteGroup
from .lattice import CyclicLattice, build_lattice
from .power_graphs import (
    Digraph,
    SimpleGraph,
    dirpow_oracle,
    epow_oracle,
    pair_by_labels,
    pow_oracle,
    row_bitsets,
    twin_quotient,
)
from .reconstruct import oracle_labeling

DEFAULT_BUDGET = 10_000_000


class IsoTimeout(Exception):
    """The search used up its budget; ``expansions`` counts the pairs tried
    and ``depth`` is the most vertices it had mapped at once, both on the
    twin quotients."""

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


def _refine(adj1, adj2, colors1, colors2):
    """Joint color refinement on out- and in-neighbour colors; returns stable
    colors or None on mismatch."""
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


def _search(adj1, adj2, colors1, colors2, budget: int) -> IsoResult:
    """Map arcs onto arcs (``adj[x, y]`` is x -> y) and colors onto colors."""
    n = len(adj1)
    refined = _refine(adj1, adj2, colors1, colors2)
    if refined is None:
        return IsoResult(found=False)
    c1, c2 = refined

    # forward checking: every unmapped vertex keeps its viable images as an
    # int bitset; mapping v -> w narrows all other vertices at once, so
    # interchangeable-looking vertices fail fast instead of deep in the tree
    full = (1 << n) - 1
    out2m, in2m = row_bitsets(adj2), row_bitsets(adj2.T)
    # codes1[v, u] = 2·[v -> u] + [u -> v] picks u's mask below; one row is
    # unpacked per expansion, so no n² list of Python ints is ever held
    codes1 = (adj1.view(np.uint8) << 1) | adj1.T
    by_color: dict[int, int] = {}
    for w in range(n):
        by_color[c2[w]] = by_color.get(c2[w], 0) | (1 << w)
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
        code = codes1[v].tolist()
        frame[2] = trail = []
        feasible = True
        for u in unmapped:
            old = cand[u]
            new = old & masks[code[u]]
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
    return _verified(mapping, adj1, adj2, colors1, colors2)


def _verified(mapping, adj1, adj2, colors1, colors2) -> IsoResult:
    if not _verify(mapping, adj1, adj2, colors1, colors2):
        raise RuntimeError("isomorphism search returned an unsound mapping")
    return IsoResult(found=True, mapping=tuple(mapping))


def _quotient_search(
    adj1, adj2, colors1, colors2, budget: int, candidate=None
) -> IsoResult:
    """:func:`_search` on the two twin quotients, lifted class by class.

    A ``candidate`` mapping that passes :func:`_verify` is returned as it is,
    before any quotient is built; one that fails is ignored.

    A class is colored by (color, size, twin kind), a key that
    :func:`_refine` renames to an integer like any other color.  An
    isomorphism maps twin classes onto twin classes of the same color, size
    and kind, so "no quotient isomorphism" means "not isomorphic".  The
    members of mapped classes pair off in ascending id order, and the lift
    is verified on the full structures."""
    if candidate is not None and _verify(candidate, adj1, adj2, colors1, colors2):
        return IsoResult(found=True, mapping=tuple(candidate))
    classes1, quotient1 = twin_quotient(adj1, colors1)
    classes2, quotient2 = twin_quotient(adj2, colors2)

    def class_colors(classes, adj, colors):
        # the kind: closed twins are adjacent, open twins and singletons not
        return [(colors[c[0]], len(c), bool(adj[c[0], c[-1]])) for c in classes]

    keys1 = class_colors(classes1, adj1, colors1)
    keys2 = class_colors(classes2, adj2, colors2)
    if sorted(keys1) != sorted(keys2):
        return IsoResult(found=False)
    result = _search(quotient1, quotient2, keys1, keys2, budget)
    if not result.found:
        return result
    mapping = [-1] * len(adj1)
    for i, j in enumerate(result.mapping):
        for v, w in zip(classes1[i], classes2[j]):
            mapping[v] = w
    return _verified(mapping, adj1, adj2, colors1, colors2)


def _verify(mapping, adj1, adj2, colors1, colors2) -> bool:
    """Independent re-verification: ``mapping`` is a bijection, it keeps
    colors, and ``adj1 == adj2[m][:, m]``."""
    return (
        sorted(mapping) == list(range(len(adj1)))
        and list(colors1) == [colors2[w] for w in mapping]
        and np.array_equal(adj1, adj2.take(mapping, 0).take(mapping, 1))
    )


def graph_invariant(g: SimpleGraph) -> tuple[int, ...]:
    """The sorted degrees, kept by every isomorphism."""
    return g.degree_sequence()


def _degree_pairs(d: Digraph) -> list[tuple[int, int]]:
    return list(zip(d.adj.sum(axis=1).tolist(), d.adj.sum(axis=0).tolist()))


def digraph_invariant(d: Digraph) -> list[tuple[int, int]]:
    """The sorted (out-degree, in-degree) pairs, kept by every isomorphism."""
    return sorted(_degree_pairs(d))


def lattice_invariant(L: CyclicLattice) -> tuple[list[int], int]:
    """The sorted node orders and the cover count, kept by every isomorphism."""
    return sorted(L.orders), len(L.covers)


def graph_isomorphism(
    g1: SimpleGraph, g2: SimpleGraph, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Decide isomorphism of simple graphs; mapping is verified before return."""
    if graph_invariant(g1) != graph_invariant(g2):
        return IsoResult(found=False)
    deg1, deg2 = g1.adj.sum(axis=1).tolist(), g2.adj.sum(axis=1).tolist()
    return _quotient_search(g1.adj, g2.adj, deg1, deg2, budget)


def digraph_isomorphism(
    d1: Digraph, d2: Digraph, *, budget: int = DEFAULT_BUDGET, candidate=None
) -> IsoResult:
    """Decide isomorphism of digraphs using (out-degree, in-degree) invariants.
    A ``candidate`` vertex mapping that verifies is the result, with no
    search."""
    if digraph_invariant(d1) != digraph_invariant(d2):
        return IsoResult(found=False)
    pairs1, pairs2 = _degree_pairs(d1), _degree_pairs(d2)
    palette = {p: c for c, p in enumerate(sorted(set(pairs1)))}
    c1, c2 = [palette[p] for p in pairs1], [palette[p] for p in pairs2]
    return _quotient_search(d1.adj, d2.adj, c1, c2, budget, candidate)


def labeled_lattice_isomorphism(
    L1: CyclicLattice, L2: CyclicLattice, *, budget: int = DEFAULT_BUDGET
) -> IsoResult:
    """Isomorphism of Hasse diagrams preserving covers and node orders: the
    cover digraphs (lower -> upper), colored by order."""
    if lattice_invariant(L1) != lattice_invariant(L2):
        return IsoResult(found=False)
    hasse1 = Digraph.from_arcs(L1.node_count, L1.covers).adj
    hasse2 = Digraph.from_arcs(L2.node_count, L2.covers).adj
    return _quotient_search(hasse1, hasse2, list(L1.orders), list(L2.orders), budget)


def compare_groups(
    G1: FiniteGroup, G2: FiniteGroup, *, budget: int = DEFAULT_BUDGET
) -> EquivalenceProfile:
    """The four isomorphism verdicts of the equivalence (lattice, directed
    power, enhanced power, power); for genuine groups they agree.

    The lattices are searched first.  An isomorphism phi of them is lifted
    to the elements by :func:`pair_by_labels`, x in G1 labelled phi(node of
    <x>) and y in G2 the node of <y>.  phi keeps <= and x lies in <z>
    exactly when node(x) <= node(z), so the lift carries M_1 onto M_2; it is
    the candidate of the one directed power graph search.  A verified map
    there carries M_1 onto M_2, so the enhanced power and power graphs are
    isomorphic too (see :class:`~latgraph.power_graphs.PowerGraphs`) and
    are not built.  Only otherwise do the two graph searches run."""
    S1, S2 = build_lattice(G1), build_lattice(G2)
    lattice = labeled_lattice_isomorphism(S1.lattice, S2.lattice, budget=budget)
    lift = None
    if lattice.found:
        lifted = np.take(lattice.mapping, oracle_labeling(G1, S1))
        lift = pair_by_labels(lifted, oracle_labeling(G2, S2)).tolist()
    d1, d2 = dirpow_oracle(G1), dirpow_oracle(G2)
    if digraph_isomorphism(d1, d2, budget=budget, candidate=lift).found:
        return EquivalenceProfile(lattice.found, True, True, True)
    return EquivalenceProfile(
        lattice_iso=lattice.found,
        dirpow_iso=False,
        epow_iso=graph_isomorphism(epow_oracle(G1), epow_oracle(G2), budget=budget).found,
        pow_iso=graph_isomorphism(pow_oracle(G1), pow_oracle(G2), budget=budget).found,
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
