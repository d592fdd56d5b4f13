"""Isomorphism engine: graphs, digraphs, labelled lattices, group profiles."""

import itertools
import random
from functools import cached_property

import numpy as np
import pytest

from latgraph import iso
from latgraph.group_core import is_abelian, validate_group
from latgraph.iso import (
    IsoTimeout,
    _quotient_search,
    _verify,
    compare_groups,
    digraph_isomorphism,
    graph_isomorphism,
    isomorphism_classes,
    labeled_lattice_isomorphism,
)
from latgraph.lattice import CyclicLattice, build_lattice
from latgraph.power_graphs import (
    Digraph,
    PowerGraphs,
    SimpleGraph,
    dirpow_oracle,
    epow_oracle,
    pair_by_labels,
)
from latgraph.reconstruct import oracle_labeling

from conftest import full_search, group_of, hasse, poset_isomorphism, reference_lift, relabel


def complete_graph(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + spokes + inner)


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def permuted_copy(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(
        g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()]
    ), perm


def brute_force_isomorphic(g1, g2):
    """Ground truth by trying every bijection; only for tiny graphs."""
    n = g1.vertex_count
    if n != g2.vertex_count:
        return False
    e1 = set(g1.edges())
    for perm in itertools.permutations(range(n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in e1}
        if mapped == set(g2.edges()):
            return True
    return False


class TestGraphIsomorphism:
    def test_complete_graphs(self):
        result = graph_isomorphism(complete_graph(6), complete_graph(6))
        assert result.found
        assert sorted(result.mapping) == list(range(6))

    def test_complete_vs_one_edge_missing(self):
        g2 = SimpleGraph.from_edges(
            6, list(itertools.combinations(range(6), 2))[:-1]
        )
        assert not graph_isomorphism(complete_graph(6), g2).found

    def test_exponent_three_lookalikes(self):
        g1 = epow_oracle(group_of("Z(3)xZ(3)xZ(3)"))
        g2 = epow_oracle(group_of("Heis(3)"))
        assert graph_isomorphism(g1, g2).found

    def test_mapping_preserves_edges(self, bundles):
        g1 = bundles["S(4)"].epow
        rng = random.Random(1)
        g2, _ = permuted_copy(g1, rng)
        result = graph_isomorphism(g1, g2)
        assert result.found
        m = result.mapping
        assert {tuple(sorted((m[u], m[v]))) for u, v in g1.edges()} == set(g2.edges())

    def test_self_isomorphism_under_random_permutation(self, bundles):
        rng = random.Random(42)
        for expr in ("Z(2)xZ(6)", "S(4)", "Q(16)", "Z(30)"):
            g = bundles[expr].epow
            shuffled, _ = permuted_copy(g, rng)
            assert graph_isomorphism(g, shuffled).found

    def test_agrees_with_brute_force_on_small_graphs(self):
        rng = random.Random(99)
        for trial in range(40):
            n = rng.randrange(2, 7)
            g1 = random_graph(n, rng.random(), rng)
            if trial % 2:
                g2, _ = permuted_copy(g1, rng)
            else:
                g2 = random_graph(n, rng.random(), rng)
            assert graph_isomorphism(g1, g2).found == brute_force_isomorphic(g1, g2)

    # the budget counts expansions of the twin quotient, so the timeout
    # tests use graphs without twins, whose quotient is the graph itself

    def test_timeout_raises(self):
        g = petersen_graph()
        shuffled, _ = permuted_copy(g, random.Random(3))
        with pytest.raises(IsoTimeout):
            graph_isomorphism(g, shuffled, budget=3)

    def test_timeout_carries_budget(self):
        with pytest.raises(IsoTimeout) as info:
            graph_isomorphism(cycle_graph(5), cycle_graph(5), budget=1)
        assert info.value.budget == 1
        assert info.value.expansions == 1
        assert info.value.depth == 1
        assert "expansions=1" in str(info.value)

    def test_twin_kind_is_part_of_the_class_colors(self):
        # vertices 0 and 1 are closed twins on one side, open twins on the
        # other; same class sizes, same colors, same quotient adjacency
        edge = SimpleGraph.from_edges(3, [(0, 1)]).adj
        empty = SimpleGraph.from_edges(3, []).adj
        assert not _quotient_search(edge, empty, [0, 0, 1], [0, 0, 1], 10).found

    def test_complete_graph_is_one_twin_class(self):
        # K_n is one closed-twin class: its quotient maps in one expansion
        g = complete_graph(8)
        shuffled, _ = permuted_copy(g, random.Random(8))
        result = graph_isomorphism(g, shuffled, budget=1)
        assert result.found
        assert sorted(result.mapping) == list(range(8))

    def test_deep_search_does_not_recurse(self):
        # a cycle maps vertex by vertex along itself: 1100 mapped vertices
        # at once, past Python's default recursion limit
        n = 1100
        rng = random.Random(1100)

        def cycle(perm):
            return SimpleGraph.from_edges(n, [(perm[i], perm[(i + 1) % n]) for i in range(n)])

        p1, p2 = list(range(n)), list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        g1, g2 = cycle(p1), cycle(p2)
        result = graph_isomorphism(g1, g2)
        assert result.found
        m = result.mapping
        assert {tuple(sorted((m[u], m[v]))) for u, v in g1.edges()} == set(g2.edges())
        path = SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert not graph_isomorphism(g1, path).found


class TestDigraphIsomorphism:
    def test_self(self, bundles):
        d = bundles["Z(4)"].dirpow
        assert digraph_isomorphism(d, d).found

    def test_z4_vs_klein_four(self, bundles):
        d1 = bundles["Z(4)"].dirpow
        d2 = bundles["Z(2)xZ(2)"].dirpow
        assert d1.arc_count == 7
        assert d2.arc_count == 3
        assert not digraph_isomorphism(d1, d2).found

    def test_exponent_three_lookalikes(self):
        d1 = dirpow_oracle(group_of("Z(3)xZ(3)xZ(3)"))
        d2 = dirpow_oracle(group_of("Heis(3)"))
        assert digraph_isomorphism(d1, d2).found

    def test_orientation_matters(self):
        d1 = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        d2 = Digraph.from_arcs(3, [(0, 1), (2, 1), (2, 0)])
        assert not digraph_isomorphism(d1, d2).found

    def test_permuted_copy_is_isomorphic(self, bundles):
        rng = random.Random(11)
        for expr in ("Z(12)", "S(4)", "Q(16)"):
            d = bundles[expr].dirpow
            perm = list(range(d.vertex_count))
            rng.shuffle(perm)
            shuffled = Digraph.from_arcs(
                d.vertex_count, [(perm[u], perm[v]) for u, v in d.arcs()]
            )
            assert digraph_isomorphism(d, shuffled).found

    def test_mapping_preserves_arcs(self, bundles):
        d1 = bundles["Z(12)"].dirpow
        result = digraph_isomorphism(d1, d1)
        assert result.found
        m = result.mapping
        assert {(m[u], m[v]) for u, v in d1.arcs()} == set(d1.arcs())


class TestLatticeIsomorphism:
    def test_permuted_copy_is_isomorphic(self, bundles):
        from latgraph.lattice import CyclicLattice

        rng = random.Random(6)
        for expr in ("S(4)", "Z(2)xZ(6)", "Q(16)"):
            L = bundles[expr].lattice.lattice
            perm = list(range(L.node_count))
            rng.shuffle(perm)
            shuffled = CyclicLattice(
                orders=tuple(L.orders[perm.index(v)] for v in range(L.node_count)),
                covers=frozenset((perm[lo], perm[hi]) for lo, hi in L.covers),
            )
            assert labeled_lattice_isomorphism(L, shuffled).found

    def test_z12_vs_z18_plain_poset_only(self):
        L1 = build_lattice(group_of("Z(12)")).lattice
        L2 = build_lattice(group_of("Z(18)")).lattice
        assert poset_isomorphism(L1, L2).found
        assert not labeled_lattice_isomorphism(L1, L2).found

    def test_lookalike_lattices(self):
        L1 = build_lattice(group_of("Z(3)xZ(3)xZ(3)")).lattice
        L2 = build_lattice(group_of("Heis(3)")).lattice
        assert labeled_lattice_isomorphism(L1, L2).found

    def test_self_identity(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        result = labeled_lattice_isomorphism(L, L)
        assert result.found

    def test_chains_of_different_length(self):
        L1 = build_lattice(group_of("Z(8)")).lattice
        L2 = build_lattice(group_of("Z(16)")).lattice
        assert not poset_isomorphism(L1, L2).found

    def test_verify_rejects_mapping_that_breaks_orders(self):
        # Z(12) and Z(18) have the same Hasse diagram but different orders
        L1 = build_lattice(group_of("Z(12)")).lattice
        L2 = build_lattice(group_of("Z(18)")).lattice
        mapping = poset_isomorphism(L1, L2).mapping
        hasse1, orders1 = hasse(L1), list(L1.orders)
        hasse2, orders2 = hasse(L2), list(L2.orders)
        assert _verify(mapping, hasse1, hasse2, [0] * len(mapping), [0] * len(mapping))
        assert not _verify(mapping, hasse1, hasse2, orders1, orders2)

    def test_class_sizes_are_part_of_the_class_colors(self):
        # bottom 0, atoms 1, 2, 3 of order 2, one node of order 4 and one of
        # order 6 above them; two atoms are twins below the order-4 node in
        # one diagram and below the order-6 node in the other.  The
        # quotients are alike up to class sizes, the diagrams are not.
        orders = (1, 2, 2, 2, 4, 6)
        below_4 = CyclicLattice(orders, frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5)}))
        below_6 = CyclicLattice(orders, frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 5)}))
        assert not labeled_lattice_isomorphism(below_4, below_6).found

    def test_mapping_preserves_orders_and_covers(self, bundles):
        L = bundles["S(4)"].lattice.lattice
        result = labeled_lattice_isomorphism(L, L)
        assert result.found
        m = result.mapping
        assert all(L.orders[v] == L.orders[m[v]] for v in L.nodes())
        assert {(m[lo], m[hi]) for lo, hi in L.covers} == set(L.covers)


class TestCompareGroups:
    def test_lookalike_pair(self):
        z = group_of("Z(3)xZ(3)xZ(3)")
        h = group_of("Heis(3)")
        profile = compare_groups(z, h)
        assert profile.flags == (True, True, True, True)
        assert is_abelian(z) and not is_abelian(h)

    def test_z4_vs_klein_four(self):
        profile = compare_groups(group_of("Z(4)"), group_of("Z(2)xZ(2)"))
        assert profile.flags == (False, False, False, False)

    def test_group_against_itself(self):
        G = group_of("S(4)")
        assert compare_groups(G, G).flags == (True, True, True, True)

    def test_isomorphic_constructions(self):
        # D(6) and S(3) are the same group built two different ways
        profile = compare_groups(group_of("D(6)"), group_of("S(3)"))
        assert profile.flags == (True, True, True, True)


def relabelled_group(expr, seed):
    return validate_group(relabel(np.asarray(group_of(expr).table), seed))


def swapped(adj, rng, certified):
    """A copy of ``adj`` with arcs a -> b, c -> d moved to a -> d, c -> b,
    which keeps every in- and out-degree: the first swap, in a seeded
    order, for which ``certified(old, new)`` holds."""
    arcs = np.argwhere(adj).tolist()
    pairs = list(itertools.combinations(arcs, 2))
    rng.shuffle(pairs)
    for (a, b), (c, d) in pairs:
        if len({a, b, c, d}) < 4 or adj[a, d] or adj[c, b]:
            continue
        out = adj.copy()
        out[a, b] = out[c, d] = False
        out[a, d] = out[c, b] = True
        if certified(adj, out):
            return out
    raise AssertionError("no certified swap")


def triangle_counts(adj):
    """diag(A³), sorted: twice the number of triangles at each vertex."""
    a = adj.astype(np.int64)
    return sorted(np.einsum("ij,jk,ki->i", a, a, a).tolist())


class TestLatticeLift:
    """``compare_groups`` lifts the lattice isomorphism to the elements and
    offers it to the directed power graph search, which verifies it on its
    own digraphs; a verified map there settles the enhanced power and power
    graphs without building them."""

    LOOKALIKES = (
        *(("Heis(%d)" % p, "x".join(["Z(%d)" % p] * 3)) for p in (3, 5, 7)),
        ("M(2,5)", "Z(16)xZ(2)"),
        ("M(3,4)", "Z(27)xZ(3)"),
        ("M(2,4)", "Z(8)xZ(2)"),
        ("G16(14)", "Z(4)xZ(2)xZ(2)"),
    )
    SELF = ("x".join(["Z(3)"] * 5), "S(5)", "Heis(3)", "D(12)", "Q(16)", "G16(13)")
    NEGATIVES = (("D(16)", "SD(16)"), ("Q(16)", "D(16)"), ("D(8)", "Q(8)"), ("Z(4)", "Z(2)xZ(2)"))

    @staticmethod
    def counted_searches(monkeypatch):
        calls = []
        search = iso._search

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return search(*args, **kwargs)

        monkeypatch.setattr(iso, "_search", counted)
        return calls

    @staticmethod
    def counted_graphs(monkeypatch):
        """The kinds of each graph a :class:`PowerGraphs` builds."""
        built = []

        def building(kind, f):
            def wrapper(self):
                built.append(kind)
                return f(self)

            prop = cached_property(wrapper)
            prop.__set_name__(PowerGraphs, kind)
            return prop

        for kind in ("epow", "pow", "dirpow", "diff"):
            monkeypatch.setattr(PowerGraphs, kind, building(kind, getattr(PowerGraphs, kind).func))
        return built

    @pytest.mark.parametrize("a, b", LOOKALIKES)
    def test_lookalikes_run_only_the_lattice_search(self, a, b, monkeypatch):
        calls = self.counted_searches(monkeypatch)
        built = self.counted_graphs(monkeypatch)
        for G2 in (group_of(b), relabelled_group(b, 7)):
            calls.clear()
            built.clear()
            assert compare_groups(group_of(a), G2).flags == (True,) * 4
            assert len(calls) == 1
            assert built == ["dirpow", "dirpow"]

    @pytest.mark.parametrize("expr", SELF)
    def test_relabelled_self_pairs_run_only_the_lattice_search(self, expr, monkeypatch):
        calls = self.counted_searches(monkeypatch)
        built = self.counted_graphs(monkeypatch)
        assert compare_groups(group_of(expr), relabelled_group(expr, 11)).flags == (True,) * 4
        assert len(calls) == 1
        assert built == ["dirpow", "dirpow"]

    @pytest.mark.parametrize("a, b", LOOKALIKES[:2] + (("S(4)", "S(4)"),))
    def test_a_broken_lift_leaves_the_digraph_search_to_decide(self, a, b, monkeypatch):
        # a lift that repeats one image fails its check; the digraph search
        # then maps on its own, and its map settles epow and pow as well
        monkeypatch.setattr(iso, "pair_by_labels", lambda la, lb: np.zeros(len(la), np.intp))
        calls = self.counted_searches(monkeypatch)
        built = self.counted_graphs(monkeypatch)
        assert compare_groups(group_of(a), relabelled_group(b, 5)).flags == (True,) * 4
        assert len(calls) == 2
        assert built == ["dirpow", "dirpow"]

    @pytest.mark.parametrize("a, b", NEGATIVES)
    def test_negative_pairs_run_both_graph_searches(self, a, b, monkeypatch):
        searched = []
        graph_search = iso.graph_isomorphism

        def counted(g1, g2, **kwargs):
            searched.append(g1)
            return graph_search(g1, g2, **kwargs)

        monkeypatch.setattr(iso, "graph_isomorphism", counted)
        assert compare_groups(group_of(a), group_of(b)).flags == (False,) * 4
        assert len(searched) == 2

    @pytest.mark.parametrize("a, b", LOOKALIKES + tuple((e, e) for e in SELF))
    def test_the_lift_is_a_bijection_that_keeps_each_node(self, a, b):
        G1, G2 = group_of(a), relabelled_group(b, 5)
        S1, S2 = build_lattice(G1), build_lattice(G2)
        phi = labeled_lattice_isomorphism(S1.lattice, S2.lattice).mapping
        lift = pair_by_labels(np.take(phi, oracle_labeling(G1, S1)), oracle_labeling(G2, S2))
        assert lift.tolist() == reference_lift(S1, S2, phi)
        assert sorted(lift.tolist()) == list(range(G1.order))
        for u, v in enumerate(phi):
            assert [lift[x] for x in S1.subgroup_of[u].generators] == list(
                S2.subgroup_of[v].generators
            )

    @pytest.mark.parametrize("candidate", ["repeated", "identity"])
    def test_a_failing_candidate_falls_back_to_the_search(self, candidate, monkeypatch):
        G1, G2 = group_of("S(4)"), relabelled_group("S(4)", 3)
        calls = self.counted_searches(monkeypatch)
        d1, d2 = dirpow_oracle(G1), dirpow_oracle(G2)
        m = [0] * 24 if candidate == "repeated" else list(range(24))
        assert not _verify(m, d1.adj, d2.adj, [0] * 24, [0] * 24)
        result = digraph_isomorphism(d1, d2, candidate=m)
        assert result.found and len(calls) == 1
        m = list(result.mapping)
        assert np.array_equal(d1.adj, d2.adj[np.ix_(m, m)])

    def test_a_verified_candidate_is_the_result(self, monkeypatch):
        G1, G2 = group_of("S(4)"), relabelled_group("S(4)", 3)
        found = digraph_isomorphism(dirpow_oracle(G1), dirpow_oracle(G2))
        calls = self.counted_searches(monkeypatch)
        result = digraph_isomorphism(
            dirpow_oracle(G1), dirpow_oracle(G2), candidate=found.mapping
        )
        assert result == found and calls == []

    @pytest.mark.parametrize("a, b", [("M(2,5)", "Z(16)xZ(2)"), ("S(4)", "S(4)")])
    def test_the_lift_on_a_corrupted_side_is_refused(self, a, b):
        # b's directed power graph gets one swap of two arcs that keeps
        # every degree and changes its number of 2-cycles, which certainly
        # breaks isomorphism.  The lift fails its check, and the fallback
        # finds no map
        G1, G2 = group_of(a), relabelled_group(b, 13)
        S1, S2 = build_lattice(G1), build_lattice(G2)
        lift = reference_lift(S1, S2, labeled_lattice_isomorphism(S1.lattice, S2.lattice).mapping)
        rng = random.Random(a)
        blank = [0] * G1.order

        def two_cycles(adj):
            return (adj & adj.T).sum()

        d1, d2 = dirpow_oracle(G1), dirpow_oracle(G2)
        assert _verify(lift, d1.adj, d2.adj, blank, blank)
        d2 = Digraph(swapped(d2.adj, rng, lambda old, new: two_cycles(old) != two_cycles(new)))
        assert not _verify(lift, d1.adj, d2.adj, blank, blank)
        assert digraph_isomorphism(d1, d2, candidate=lift).found is False


class TestIsomorphismClasses:
    def test_buckets_then_search(self):
        graphs = [
            complete_graph(3),
            SimpleGraph.from_edges(3, [(0, 1), (1, 2)]),
            SimpleGraph.from_edges(3, [(0, 2), (2, 1)]),
            complete_graph(3),
        ]
        classes = isomorphism_classes(
            4,
            lambda i: graphs[i].degree_sequence(),
            lambda i, j: graph_isomorphism(graphs[i], graphs[j]).found,
        )
        assert classes == [[0, 3], [1, 2]]


class TestAgainstNetworkx:
    """Differential check against networkx on corpus graphs under seeded
    relabellings, single-edge or single-arc mutations, and rewirings that
    keep the edge count."""

    GROUPS = ("S(4)", "Q(16)", "Z(2)xZ(6)", "Heis(3)")

    @staticmethod
    def variant(edges, n, trial, rng):
        """Trial 0 keeps the edges, 1 drops or adds one, 2 moves one."""
        edges = set(edges)
        missing = sorted(
            (u, v) for u in range(n) for v in range(n)
            if u != v and (u, v) not in edges and (v, u) not in edges
        )
        drop = trial == 2 or (trial == 1 and rng.random() < 0.5)
        add = trial == 2 or (trial == 1 and not drop)
        if drop and edges:
            edges.remove(rng.choice(sorted(edges)))
        if add and missing:
            edges.add(rng.choice(missing))
        return sorted(edges)

    @pytest.mark.parametrize("expr", GROUPS)
    def test_graph_verdicts_agree(self, expr, bundles):
        nx = pytest.importorskip("networkx")
        rng = random.Random(expr)
        g1 = bundles[expr].epow
        n = g1.vertex_count
        h1 = nx.Graph(g1.edges())
        h1.add_nodes_from(range(n))
        for trial in range(6):
            g2, _ = permuted_copy(g1, rng)
            g2 = SimpleGraph.from_edges(n, self.variant(g2.edges(), n, trial % 3, rng))
            h2 = nx.Graph(g2.edges())
            h2.add_nodes_from(range(n))
            assert graph_isomorphism(g1, g2).found == nx.is_isomorphic(h1, h2)

    @pytest.mark.parametrize("expr", GROUPS)
    def test_digraph_verdicts_agree(self, expr, bundles):
        nx = pytest.importorskip("networkx")
        rng = random.Random(expr)
        d1 = bundles[expr].dirpow
        n = d1.vertex_count
        h1 = nx.DiGraph(d1.arcs())
        h1.add_nodes_from(range(n))
        for trial in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            arcs = self.variant([(perm[u], perm[v]) for u, v in d1.arcs()], n, trial % 3, rng)
            h2 = nx.DiGraph(arcs)
            h2.add_nodes_from(range(n))
            assert digraph_isomorphism(d1, Digraph.from_arcs(n, arcs)).found == (
                nx.is_isomorphic(h1, h2)
            )


class TestAgainstFullSearch:
    """The quotient search against the search on the full structures, on
    corpus epow, pow, dirpow and Hasse diagrams under seeded relabellings,
    single-edge or single-arc flips, and moves of one edge or arc."""

    GROUPS = ("S(4)", "Q(16)", "Z(2)xZ(6)", "Heis(3)", "D(12)", "Z(30)", "M(2,4)",
              "Z(2)xZ(2)xZ(2)", "Q(8)xZ(3)", "A(4)", "SD(16)", "Z(2)xZ(2)xZ(3)")

    @staticmethod
    def variant(adj, trial, rng, symmetric):
        """Trial 0 keeps adj, 1 flips one pair, 2 moves one edge or arc."""
        out = adj.copy()
        n = len(adj)
        if n < 2 or trial == 0:
            return out
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        present = [p for p in pairs if adj[p]]
        absent = [p for p in pairs if not adj[p]]
        flips = [rng.choice(pairs)] if trial == 1 else []
        if trial == 2 and present and absent:
            flips = [rng.choice(present), rng.choice(absent)]
        for u, v in flips:
            out[u, v] = not out[u, v]
            if symmetric:
                out[v, u] = out[u, v]
        return out

    @staticmethod
    def relabelled(adj, keys, rng):
        n = len(adj)
        perm = rng.sample(range(n), n)
        moved = np.zeros_like(adj)
        moved[np.ix_(perm, perm)] = adj
        moved_keys = [None] * n
        for v in range(n):
            moved_keys[perm[v]] = keys[v]
        return moved, moved_keys

    def check(self, adj1, keys1, decide, rng, symmetric):
        for trial in range(6):
            adj2, keys2 = self.relabelled(adj1, keys1, rng)
            adj2 = self.variant(adj2, trial % 3, rng, symmetric)
            result = decide(adj2, keys2)
            assert result.found == full_search(adj1, adj2, keys1, keys2).found
            if result.found:
                m = list(result.mapping)
                assert np.array_equal(adj1, adj2[np.ix_(m, m)])

    @pytest.mark.parametrize("expr", GROUPS)
    def test_graphs(self, expr, bundles):
        rng = random.Random(expr)
        for g in (bundles[expr].epow, bundles[expr].pow):
            degrees = g.adj.sum(axis=1).tolist()

            def decide(adj2, _):
                return graph_isomorphism(g, SimpleGraph(adj2))

            self.check(g.adj, degrees, decide, rng, symmetric=True)

    @pytest.mark.parametrize("expr", GROUPS)
    def test_digraphs(self, expr, bundles):
        rng = random.Random(expr)
        d = bundles[expr].dirpow
        degrees = list(zip(d.adj.sum(axis=1).tolist(), d.adj.sum(axis=0).tolist()))

        def decide(adj2, _):
            return digraph_isomorphism(d, Digraph(adj2))

        self.check(d.adj, degrees, decide, rng, symmetric=False)

    @pytest.mark.parametrize("expr", GROUPS)
    def test_hasse_diagrams(self, expr, bundles):
        rng = random.Random(expr)
        L = bundles[expr].lattice.lattice

        def decide(adj2, orders2):
            covers = frozenset(map(tuple, np.argwhere(adj2).tolist()))
            return labeled_lattice_isomorphism(
                L, CyclicLattice(orders=tuple(orders2), covers=covers)
            )

        self.check(hasse(L), list(L.orders), decide, rng, symmetric=False)


class TestDoubleEdgeSwaps:
    """Degree-preserving double-edge swaps of S(4)'s relabelled enhanced
    power graph: each is decided within 1000 quotient expansions, with a
    verified mapping or a certificate of non-isomorphism."""

    @staticmethod
    def swap(adj, rng):
        edges = np.argwhere(np.triu(adj)).tolist()
        while True:
            (a, b), (c, d) = rng.sample(edges, 2)
            if rng.random() < 0.5:
                c, d = d, c
            if len({a, b, c, d}) == 4 and not adj[a, d] and not adj[c, b]:
                out = adj.copy()
                out[a, b] = out[b, a] = out[c, d] = out[d, c] = False
                out[a, d] = out[d, a] = out[c, b] = out[b, c] = True
                return out

    def test_swaps_are_decided_and_certified(self, bundles):
        g = bundles["S(4)"].epow
        rng = random.Random(5)
        relabelled, _ = permuted_copy(g, rng)
        verdicts = []
        for _ in range(40):
            swapped = SimpleGraph(self.swap(relabelled.adj, rng))
            assert swapped.degree_sequence() == g.degree_sequence()
            result = graph_isomorphism(g, swapped, budget=1000)
            if result.found:
                m = list(result.mapping)
                assert np.array_equal(g.adj, swapped.adj[np.ix_(m, m)])
            else:
                assert triangle_counts(g.adj) != triangle_counts(swapped.adj)
            verdicts.append(result.found)
        assert 0 < sum(verdicts) < 40
