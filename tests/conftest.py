"""Shared fixtures: the verification corpus and per-group cached structures."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from latgraph.catalog import CayleyParseError, NamedGroup, build_group, parse_group_expr
from latgraph.group_core import (
    CyclicSubgroup,
    FiniteGroup,
    TooLarge,
    cyclic_subgroups,
    generated_subgroup,
)
from latgraph.iso import DEFAULT_BUDGET, IsoResult, _search
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
)
from latgraph.reconstruct import (
    NotAnEnhancedPowerGraph,
    _UnionFind,
    oracle_labeling,
)

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
        labeling=oracle_labeling(G, LS),
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


def relabel(table: np.ndarray, seed: int) -> np.ndarray:
    """The same group with element x renamed perm[x]."""
    perm = np.random.default_rng(seed).permutation(len(table))
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


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
    table = np.zeros((n, n), dtype=np.int32)
    for xi, x in enumerate(elems):
        for yi, y in enumerate(elems):
            table[xi, yi] = index[tuple(x[y[i]] for i in range(degree))]
    return table


# ---------------------------------------------------------------------------
# the Cayley CSV reader as one cell loop per row, with no native conversion:
# the reference for the library's reader


def reference_cayley_csv_data(path: str, order_cap: int) -> tuple[np.ndarray, list[str]]:
    text = Path(path).read_text()
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
