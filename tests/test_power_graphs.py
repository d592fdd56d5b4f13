"""The four oracle graphs, maximal cliques, and serialization."""

import dataclasses
import itertools
import json
import random
import sys

import numpy as np
import pytest

from latgraph.group_core import generated_subgroup, maximal_cyclic_subgroups
from latgraph.power_graphs import (
    Digraph,
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    maximal_cliques,
    pow_oracle,
)

from conftest import (
    group_of,
    naive_diff_edges,
    naive_dirpow_arcs,
    naive_epow_edges,
    naive_pow_edges,
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


def _recursive_maximal_cliques(g, *, limit=None):
    """Bron-Kerbosch with pivoting as one recursive call per clique vertex:
    the reference for the explicit-stack enumeration, limit included.  Pivot
    ties go to the lowest id, the documented rule."""
    adj = [set(np.flatnonzero(row).tolist()) for row in g.adj]
    out = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(sorted(cand | excl), key=lambda u: len(cand & adj[u]))
        for v in sorted(cand - adj[pivot]):
            if limit is not None and len(out) > limit:
                return
            expand(clique | {v}, cand & adj[v], excl & adj[v])
            cand.remove(v)
            excl.add(v)

    if g.vertex_count:
        expand(set(), set(range(g.vertex_count)), set())
    return sorted(out, key=lambda c: (-len(c), c))


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

    def test_limit_stops_after_one_more_clique(self):
        # the cocktail-party graph on 20 vertices has 2^10 maximal cliques
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20) if v != u ^ 1]
        g = SimpleGraph.from_edges(20, edges)
        everything = maximal_cliques(g)
        assert len(everything) == 2**10
        assert maximal_cliques(g, limit=len(everything)) == everything
        partial = maximal_cliques(g, limit=7)
        assert len(partial) == 8
        assert set(partial) <= set(everything)

    def test_deep_clique_does_not_recurse(self):
        g = SimpleGraph.from_edges(200, itertools.combinations(range(200), 2))
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert maximal_cliques(g) == [tuple(range(200))]
        finally:
            sys.setrecursionlimit(old)

    def test_matches_recursive_reference_with_and_without_limit(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randrange(1, 16)
            p = rng.choice((0.3, 0.6, 0.85))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = SimpleGraph.from_edges(n, edges)
            everything = _recursive_maximal_cliques(g)
            assert maximal_cliques(g) == everything
            for limit in range(len(everything) + 1):
                assert maximal_cliques(g, limit=limit) == _recursive_maximal_cliques(
                    g, limit=limit
                )

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
