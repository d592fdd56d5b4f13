"""The four oracle graphs, maximal cliques, and serialization."""

import dataclasses
import itertools
import json
import random
import sys

import numpy as np
import pytest

from latgraph import power_graphs
from latgraph.group_core import TooLarge, generated_subgroup
from latgraph.lattice import build_lattice
from latgraph.power_graphs import (
    Digraph,
    PowerGraphs,
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    equal_rows,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    maximal_cliques,
    pair_by_labels,
    pow_oracle,
    twin_quotient,
)

from conftest import (
    CORPUS,
    LADDER,
    group_of,
    hasse,
    maximal_cyclic_subgroups,
    naive_diff_edges,
    naive_dirpow_arcs,
    naive_epow_edges,
    naive_pow_edges,
    reference_maximal_cliques,
    underlying_undirected,
)

# groups whose difference graph has edges, so that pow and epow differ
WITH_DIFF_EDGES = ["Z(6)", "Z(2)xZ(6)", "S(4)", "Z(30)"]
NAIVE_GROUPS = ["Z(12)", "D(8)", "Q(8)", "S(3)", "A(4)", *WITH_DIFF_EDGES]


class TestEpowOracle:
    def test_c2xc6(self):
        g = epow_oracle(group_of("Z(2)xZ(6)"))
        assert g.vertex_count == 12
        assert g.edge_count == 39

    def test_cyclic_group_is_complete(self):
        g = epow_oracle(group_of("Z(6)"))
        assert g.edge_count == 15

    def test_z3_cubed_edge_count(self):
        # 13 order-3 subgroups meeting only in the identity: 3 edges each
        g = epow_oracle(group_of("Z(3)xZ(3)xZ(3)"))
        assert g.edge_count == 39

    @pytest.mark.parametrize("expr", NAIVE_GROUPS)
    def test_matches_naive_pair_loop(self, expr):
        G = group_of(expr)
        assert set(epow_oracle(G).edges()) == naive_epow_edges(G)

    def test_equals_one_clique_per_cyclic_subgroup(self, bundles):
        # the union taken in one reduceat equals writing each subgroup's
        # clique in turn, on both the oracle and the lattice side
        for expr in (*CORPUS, *LADDER):
            G = bundles[expr].group if expr in bundles else group_of(expr)
            for M in (G.membership, build_lattice(G).lattice.power_graphs.membership):
                adj = np.zeros_like(M)
                for row in {r.tobytes(): r for r in M}.values():
                    members = np.flatnonzero(row)
                    adj[np.ix_(members, members)] = True
                np.fill_diagonal(adj, False)
                assert np.array_equal(PowerGraphs(M).epow.adj, adj)


class TestPowOracle:
    def test_z6_has_13_edges(self):
        assert pow_oracle(group_of("Z(6)")).edge_count == 13

    @pytest.mark.parametrize("expr,n", [("Z(8)", 8), ("Z(9)", 9), ("Z(25)", 25)])
    def test_prime_power_cyclic_is_complete(self, expr, n):
        assert pow_oracle(group_of(expr)).edge_count == n * (n - 1) // 2

    def test_identity_is_universal(self, bundles):
        for expr in ("Z(12)", "S(4)", "Q(16)", "Heis(3)"):
            bundle = bundles[expr]
            e = bundle.group.identity
            assert bundle.pow.adj[e].sum() == bundle.group.order - 1

    @pytest.mark.parametrize("expr", NAIVE_GROUPS)
    def test_matches_naive_pair_loop(self, expr):
        G = group_of(expr)
        assert set(pow_oracle(G).edges()) == naive_pow_edges(G)

    def test_power_edges_within_enhanced_edges(self, bundles):
        for bundle in bundles.values():
            assert set(bundle.pow.edges()) <= set(bundle.epow.edges())


class TestDirpowOracle:
    def test_z4_has_seven_arcs(self):
        assert dirpow_oracle(group_of("Z(4)")).arc_count == 7

    def test_trivial_group(self):
        assert dirpow_oracle(group_of("Z(1)")).arc_count == 0

    def test_underlying_undirected_is_power_graph(self, bundles):
        for bundle in bundles.values():
            assert underlying_undirected(bundle.dirpow) == bundle.pow

    def test_arc_count_is_sum_of_subgroup_sizes(self, bundles):
        for expr in ("Z(30)", "Q(16)", "A(5)"):
            bundle = bundles[expr]
            G = bundle.group
            expected = sum(
                len(generated_subgroup(G, x).members) - 1 for x in G.elements()
            )
            assert bundle.dirpow.arc_count == expected

    @pytest.mark.parametrize("expr", ["Z(12)", "D(8)", "S(3)", *WITH_DIFF_EDGES])
    def test_matches_naive_pair_loop(self, expr):
        G = group_of(expr)
        assert set(dirpow_oracle(G).arcs()) == naive_dirpow_arcs(G)


class TestDiffOracle:
    def test_z6(self):
        diff = diff_oracle(group_of("Z(6)"))
        assert diff.graph.vertex_count == 3
        assert diff.graph.edge_count == 2
        # the order-2 element and the two order-3 elements of Z6
        assert diff.retained == (2, 3, 4)

    def test_prime_power_cyclic_is_empty(self):
        diff = diff_oracle(group_of("Z(8)"))
        assert diff.graph.vertex_count == 0
        assert diff.retained == ()

    def test_q8_is_empty(self):
        assert diff_oracle(group_of("Q(8)")).graph.vertex_count == 0

    def test_edges_are_enhanced_minus_power(self, bundles):
        for expr in ("Z(6)", "Z(2)xZ(6)", "S(4)", "D(24)", "Z(30)"):
            bundle = bundles[expr]
            expected = naive_diff_edges(bundle.group)
            assert bundle.diff.retained == tuple(sorted({v for e in expected for v in e}))
            back = {
                (bundle.diff.retained[u], bundle.diff.retained[v])
                for u, v in bundle.diff.graph.edges()
            }
            assert back == expected


class TestMaximalCliques:
    def test_c2xc6_three_cliques_of_six(self):
        cliques = maximal_cliques(epow_oracle(group_of("Z(2)xZ(6)")))
        assert [len(c) for c in cliques] == [6, 6, 6]
        inter = [
            set(a) & set(b) for a, b in itertools.combinations(cliques, 2)
        ]
        assert all(len(s) == 3 for s in inter)
        assert inter[0] == inter[1] == inter[2]

    def test_complete_graph(self):
        g = SimpleGraph.from_edges(5, itertools.combinations(range(5), 2))
        assert maximal_cliques(g) == [(0, 1, 2, 3, 4)]

    def test_s4_clique_census(self):
        sizes = [len(c) for c in maximal_cliques(epow_oracle(group_of("S(4)")))]
        assert sorted(sizes) == sorted([4] * 3 + [3] * 4 + [2] * 6)

    def test_cliques_are_maximal_cyclic_subgroups(self, bundles):
        for expr in ("Z(2)xZ(6)", "S(4)", "Q(16)", "Heis(3)", "Z(36)"):
            bundle = bundles[expr]
            cliques = {frozenset(c) for c in maximal_cliques(bundle.epow)}
            subgroups = {
                frozenset(s.members) for s in maximal_cyclic_subgroups(bundle.group)
            }
            assert cliques == subgroups

    def test_path_graph(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert maximal_cliques(g) == [(0, 1), (1, 2)]

    def test_empty_graph(self):
        assert maximal_cliques(SimpleGraph.from_edges(0, [])) == []

    def test_isolated_vertices_are_singleton_cliques(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        assert maximal_cliques(g) == [(0, 1), (2,)]

    def test_deep_clique_does_not_recurse(self):
        g = SimpleGraph.from_edges(200, itertools.combinations(range(200), 2))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert maximal_cliques(g) == [tuple(range(200))]
        finally:
            sys.setrecursionlimit(old)

    def test_matches_reference_on_corpus_and_ladder(self, bundles):
        graphs = [bundle.epow for bundle in bundles.values()]
        graphs += [epow_oracle(group_of(expr)) for expr in LADDER]
        for g in graphs:
            assert maximal_cliques(g) == reference_maximal_cliques(g)

    def test_closed_neighbourhood_cliques_of_random_graphs(self):
        # on any graph, the cliques found are exactly the maximal cliques
        # that are some vertex's closed neighbourhood
        rng = random.Random(11)
        for trial in range(200):
            n = rng.randrange(1, 16)
            p = rng.choice((0.3, 0.6, 0.85))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = SimpleGraph.from_edges(n, edges)
            closed = {frozenset(np.flatnonzero(row).tolist()) | {x} for x, row in enumerate(g.adj)}
            expected = [c for c in reference_maximal_cliques(g) if frozenset(c) in closed]
            assert maximal_cliques(g) == expected

    def test_cocktail_party_has_none(self):
        # K_{2,...,2} on 512 vertices has 2^256 maximal cliques, and no
        # closed neighbourhood is one of them
        edges = [(u, v) for u in range(512) for v in range(u + 1, 512) if v != u ^ 1]
        assert maximal_cliques(SimpleGraph.from_edges(512, edges)) == []

    def test_output_is_canonically_sorted(self):
        g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        cliques = maximal_cliques(g)
        assert cliques == sorted(cliques, key=lambda c: (-len(c), c))


class TestClosedTwins:
    def test_generators_share_closed_neighborhoods(self, bundles):
        # generators of one cyclic subgroup are interchangeable in the graph
        for expr in ("Z(2)xZ(6)", "S(4)", "Z(30)"):
            bundle = bundles[expr]
            G = bundle.group
            g = bundle.epow
            for x in G.elements():
                sub = generated_subgroup(G, x)
                for y in sub.generators:
                    nx = set(np.flatnonzero(g.adj[x]).tolist()) | {x}
                    ny = set(np.flatnonzero(g.adj[y]).tolist()) | {y}
                    assert nx == ny


def brute_twin_classes(adj, colors):
    """Twin classes by pairwise comparison: a vertex's closed-twin set when
    it has more than one member, else its open-twin set."""
    n = len(adj)
    loops = adj | np.eye(n, dtype=bool)

    def twins(u, v, a):
        return (colors[u] == colors[v] and np.array_equal(a[u], a[v])
                and np.array_equal(a[:, u], a[:, v]))

    classes = set()
    for u in range(n):
        closed = [v for v in range(n) if twins(u, v, loops)]
        open_ = [v for v in range(n) if twins(u, v, adj)]
        assert len(closed) == 1 or len(open_) == 1
        classes.add(tuple(closed if len(closed) > 1 else open_))
    return sorted(map(list, classes))


def corpus_structures(bundles, exprs):
    """(name, adj, colors) of each group's epow, pow, dirpow and Hasse diagram."""
    for expr in exprs:
        b = bundles[expr]
        L = b.lattice.lattice
        yield f"{expr} epow", b.epow.adj, b.epow.adj.sum(axis=1).tolist()
        yield f"{expr} pow", b.pow.adj, b.pow.adj.sum(axis=1).tolist()
        yield f"{expr} dirpow", b.dirpow.adj, [0] * b.dirpow.vertex_count
        yield f"{expr} hasse", hasse(L), list(L.orders)


class TestTwinQuotient:
    def test_equal_rows(self):
        rows = np.array([[1, 0], [0, 1], [1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        assert equal_rows(rows) == [[0, 2], [1, 4], [3]]

    def test_closed_twins(self):
        # a triangle 0, 1, 2 with a pendant 3 on 2: 0 and 1 are closed twins
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        classes, quotient = twin_quotient(g.adj, [0] * 4)
        assert classes == [[0, 1], [2], [3]]
        assert quotient.astype(int).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_complete_graph_is_one_class(self):
        g = SimpleGraph.from_edges(5, itertools.combinations(range(5), 2))
        classes, quotient = twin_quotient(g.adj, [4] * 5)
        assert classes == [[0, 1, 2, 3, 4]]
        assert quotient.astype(int).tolist() == [[0]]

    def test_open_twins(self):
        # the leaves of a star are open twins
        star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        classes, quotient = twin_quotient(star.adj, [3, 1, 1, 1])
        assert classes == [[0], [1, 2, 3]]
        assert quotient.astype(int).tolist() == [[0, 1], [1, 0]]

    def test_colors_split_twins(self):
        star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        classes, _ = twin_quotient(star.adj, [0, 1, 2, 1])
        assert classes == [[0], [1, 3], [2]]

    def test_empty(self):
        classes, quotient = twin_quotient(np.zeros((0, 0), dtype=bool), [])
        assert classes == []
        assert quotient.shape == (0, 0)

    def test_digraph_twins_with_mutual_arcs(self, bundles):
        # in the directed power graph the generators of one cyclic subgroup
        # are closed twins, joined by arcs both ways
        for expr in ("Z(12)", "S(4)", "Q(16)", "Z(2)xZ(6)"):
            G, d = bundles[expr].group, bundles[expr].dirpow
            classes, _ = twin_quotient(d.adj, [0] * G.order)
            closed = [c for c in classes if len(c) > 1 and d.adj[c[0], c[1]]]
            generator_sets = [c for c in equal_rows(np.packbits(G.membership, axis=1))
                              if len(c) > 1]
            assert closed == sorted(generator_sets)
            for c in closed:
                assert np.array_equal(d.adj[np.ix_(c, c)], ~np.eye(len(c), dtype=bool))

    def test_involutions_of_elementary_abelian_digraph_are_open_twins(self, bundles):
        G, d = bundles["Z(2)xZ(2)xZ(2)"].group, bundles["Z(2)xZ(2)xZ(2)"].dirpow
        classes, quotient = twin_quotient(d.adj, [0] * 8)
        others = [x for x in range(8) if x != G.identity]
        assert sorted(classes) == sorted([[G.identity], others])
        assert quotient.sum() == 1  # one class of arcs: involution -> identity

    def test_hasse_atoms_are_false_twins(self):
        # Z(2)^4: the bottom and 15 atoms of order 2, each covering the bottom
        L = build_lattice(group_of("Z(2)xZ(2)xZ(2)xZ(2)")).lattice
        classes, quotient = twin_quotient(hasse(L), list(L.orders))
        bottom = L.orders.index(1)
        atoms = [v for v in L.nodes() if v != bottom]
        assert sorted(classes) == sorted([[bottom], atoms])
        rep = {c[0]: i for i, c in enumerate(classes)}
        assert quotient[rep[bottom], rep[atoms[0]]]
        assert quotient.sum() == 1

    def test_matches_pairwise_twins_on_corpus(self, bundles):
        small = [expr for expr in CORPUS if bundles[expr].group.order <= 48]
        for name, adj, colors in corpus_structures(bundles, small):
            classes, quotient = twin_quotient(adj, colors)
            assert classes == brute_twin_classes(adj, colors), name
            reps = [c[0] for c in classes]
            assert np.array_equal(quotient, adj[np.ix_(reps, reps)]), name

    def test_matches_pairwise_twins_on_random_digraphs(self):
        rng = random.Random(21)
        for trial in range(60):
            n = rng.randrange(1, 12)
            adj = np.array([[u != v and rng.random() < 0.4 for v in range(n)]
                            for u in range(n)], dtype=bool)
            if trial % 2:
                adj |= adj.T
            if trial % 3 == 0:  # copy a vertex to make twins more likely
                u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
                adj[v], adj[:, v] = adj[u], adj[:, u]
                adj[u, v] = adj[v, u] = rng.random() < 0.5
                np.fill_diagonal(adj, False)
            colors = [rng.randrange(2) for _ in range(n)]
            classes, _ = twin_quotient(adj, colors)
            assert classes == brute_twin_classes(adj, colors)

    def test_no_vertex_in_two_classes(self, bundles):
        for name, adj, colors in corpus_structures(bundles, CORPUS):
            classes, _ = twin_quotient(adj, colors)
            assert sorted(v for c in classes for v in c) == list(range(len(adj))), name
            for c in classes:
                inside = adj[np.ix_(c, c)]
                # a class is a closed one (all arcs inside) or an open one (none)
                assert not inside.any() or inside.sum() == len(c) * (len(c) - 1), name

    def test_relabelling_permutes_classes(self, bundles):
        rng = random.Random(4)
        for name, adj, colors in corpus_structures(bundles, ("S(4)", "Q(16)", "Z(30)", "A(5)")):
            n = len(adj)
            perm = np.array(rng.sample(range(n), n))
            moved = np.zeros_like(adj)
            moved[np.ix_(perm, perm)] = adj
            moved_colors = [0] * n
            for v in range(n):
                moved_colors[perm[v]] = colors[v]
            classes, quotient = twin_quotient(adj, colors)
            moved_classes, moved_quotient = twin_quotient(moved, moved_colors)
            image = [sorted(perm[c].tolist()) for c in classes]
            assert sorted(image) == moved_classes, name
            where = [moved_classes.index(c) for c in image]
            assert np.array_equal(moved_quotient[np.ix_(where, where)], quotient), name


class TestPairByLabels:
    @pytest.mark.parametrize("a, b", [
        ((0, 1, 1), (0, 0, 1)),  # same labels, other counts
        ((0, 1), (0, 1, 1)),  # other lengths
        ((0, 2), (0, 1)),  # other labels
    ])
    def test_unequal_label_counts_pair_nothing(self, a, b):
        assert pair_by_labels(a, b) is None

    def test_the_kth_vertex_of_a_label_goes_to_the_kth(self):
        a, b = (2, 0, 2, 1, 0, 2), (0, 2, 2, 1, 2, 0)
        assert pair_by_labels(a, b).tolist() == [1, 0, 2, 3, 5, 4]
        assert pair_by_labels(a, a).tolist() == list(range(6))
        assert pair_by_labels((), ()).tolist() == []


class TestReadOnlyMatrix:
    def test_one_read_only_field(self):
        for g in (epow_oracle(group_of("S(3)")), dirpow_oracle(group_of("Z(4)")),
                  SimpleGraph.from_edges(3, [(0, 1)]), Digraph.from_arcs(3, [(1, 0)])):
            assert [f.name for f in dataclasses.fields(g)] == ["adj"]
            with pytest.raises(ValueError):
                g.adj[0, 2] = True

    def test_equality_compares_matrices(self):
        path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        assert SimpleGraph.from_edges(3, [(1, 2), (0, 1)]) == SimpleGraph(path)
        assert SimpleGraph.from_edges(3, [(0, 1)]) != SimpleGraph(path)
        assert Digraph(path) != SimpleGraph(path)


class TestSerialization:
    def test_simple_json_round_trip(self):
        g = epow_oracle(group_of("Z(2)xZ(6)"))
        assert graph_from_json(graph_to_json(g)) == g

    def test_digraph_json_round_trip(self):
        d = dirpow_oracle(group_of("Z(12)"))
        assert graph_from_json(graph_to_json(d)) == d

    def test_labels_encode_vertex_count(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        payload = json.loads(graph_to_json(g, labels=["e", "x"]))
        assert payload["vertices"] == ["e", "x"]
        assert graph_from_json(graph_to_json(g, labels=["e", "x"])) == g

    def test_more_than_n_squared_edges_refused_before_any_is_read(self, monkeypatch):
        read = []
        monkeypatch.setattr(power_graphs, "json_int", lambda v: read.append(v) or v)
        text = json.dumps({"kind": "simple", "vertices": ["e", "a"], "edges": [[0, 1]] * 5})
        with pytest.raises(ValueError, match=r"5 pairs, more than the 4 pairs of 2 ids"):
            graph_from_json(text)
        assert read == []

    def test_vertex_count_over_the_cap_refused_before_any_edge_is_read(self, monkeypatch):
        read = []
        monkeypatch.setattr(power_graphs, "json_int", lambda v: read.append(v) or v)
        with pytest.raises(TooLarge):
            graph_from_json(json.dumps({"kind": "simple", "vertices": 3, "edges": [[0, 1]]}),
                            order_cap=2)
        assert read == [3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            graph_from_json('{"kind":"hyper","vertices":1,"edges":[]}')

    def test_dot_undirected(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        dot = graph_to_dot(g, labels=["e", "x"])
        assert dot.splitlines()[0] == "graph {"
        assert "  0 -- 1;" in dot
        assert '0 [label="e"];' in dot

    def test_dot_directed(self):
        d = Digraph.from_arcs(2, [(1, 0)])
        dot = graph_to_dot(d)
        assert dot.splitlines()[0] == "digraph {"
        assert "  1 -> 0;" in dot

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(2, [(1, 1)])
