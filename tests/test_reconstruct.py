"""Element-free reconstructions checked against the oracle graphs."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from latgraph import reconstruct
from latgraph.catalog import build_group, parse_group_expr
from latgraph.formats import label_strings
from latgraph.group_core import generated_subgroup
from latgraph.iso import graph_isomorphism, labeled_lattice_isomorphism
from latgraph.lattice import (
    CyclicLattice,
    InvalidLattice,
    build_lattice,
    levelize,
    reachability,
    totient,
)
from latgraph.power_graphs import Digraph, SimpleGraph, epow_oracle, maximal_cliques
from latgraph.reconstruct import (
    LabeledGraph,
    NotAnEnhancedPowerGraph,
    Reconstruction,
    diff_from_lattice,
    diff_incomparability,
    digraphs_match_up_to_generator_indices,
    dirpow_from_lattice,
    epow_from_lattice,
    graphs_match_up_to_generator_indices,
    lattice_from_epow,
    oracle_labeling,
    pow_from_lattice,
)

from conftest import (
    CORPUS,
    LADDER,
    graph_from_cliques,
    group_of,
    intersections_are_transitive,
    make_bundle,
    random_cliques_over_a_core,
    reference_lattice_from_epow,
    toggled,
)

SAMPLE = (
    "Z(1)", "Z(6)", "Z(12)", "Z(30)", "Z(2)xZ(6)", "D(8)", "D(24)", "Q(8)",
    "Q(16)", "SD(16)", "M(2,4)", "S(3)", "S(4)", "A(4)", "Heis(3)",
    "Z(3)xZ(3)xZ(3)", "G16(12)", "G16(13)",
)


def chain_lattice(n: int) -> CyclicLattice:
    return build_lattice(group_of(f"Z({n})")).lattice


class TestVertexLabels:
    def test_bottom_gets_single_label(self):
        L = chain_lattice(6)
        bottom = L.orders.index(1)
        assert L.vertex_labels[0] == bottom
        assert L.vertex_labels.count(bottom) == 1

    def test_counts_follow_totient(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        counts = Counter(L.vertex_labels)
        for v in L.nodes():
            assert counts[v] == totient(L.orders[v])


class TestLatticeFromEpow:
    def test_c2xc6(self, bundles):
        bundle = bundles["Z(2)xZ(6)"]
        rebuilt = lattice_from_epow(bundle.epow).lattice
        assert sorted(rebuilt.orders) == [1, 2, 2, 2, 3, 6, 6, 6]
        assert len(rebuilt.covers) == 10
        assert labeled_lattice_isomorphism(rebuilt, bundle.lattice.lattice).found

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_complete_prime_graph_gives_chain(self, p):
        g = SimpleGraph.from_edges(p, itertools.combinations(range(p), 2))
        rebuilt = lattice_from_epow(g).lattice
        assert sorted(rebuilt.orders) == [1, p]
        assert rebuilt.covers == frozenset({(0, 1)})

    def test_single_vertex(self):
        rebuilt = lattice_from_epow(SimpleGraph.from_edges(1, [])).lattice
        assert rebuilt.orders == (1,)
        assert rebuilt.covers == frozenset()

    def test_claw_is_the_klein_four_graph(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        rebuilt = lattice_from_epow(g).lattice
        expected = build_lattice(group_of("Z(2)xZ(2)")).lattice
        assert labeled_lattice_isomorphism(rebuilt, expected).found

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_round_trip_from_oracle(self, expr, bundles):
        bundle = bundles[expr]
        rebuilt = lattice_from_epow(bundle.epow).lattice
        assert labeled_lattice_isomorphism(rebuilt, bundle.lattice.lattice).found

    def test_invariant_under_vertex_permutation(self, bundles):
        rng = random.Random(20260808)
        for expr in ("Z(2)xZ(6)", "S(4)", "Q(16)"):
            bundle = bundles[expr]
            n = bundle.group.order
            reference = lattice_from_epow(bundle.epow).lattice
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                shuffled = SimpleGraph.from_edges(
                    n, [(perm[u], perm[v]) for u, v in bundle.epow.edges()]
                )
                rebuilt = lattice_from_epow(shuffled).lattice
                assert labeled_lattice_isomorphism(rebuilt, reference).found


class TestNodeNames:
    @pytest.mark.parametrize("expr", SAMPLE)
    def test_the_maximal_nodes_are_named_by_their_cliques(self, expr, bundles):
        # one maximal node per maximal clique, of the clique's size, and
        # every node's clique holds an element of the node's order
        bundle = bundles[expr]
        rebuilt = lattice_from_epow(bundle.epow)
        L = rebuilt.lattice
        lower = {lo for lo, _ in L.covers}
        maximal = [u for u in L.nodes() if u not in lower]
        cliques = maximal_cliques(bundle.epow)
        assert sorted(rebuilt.clique_of[u] for u in maximal) == sorted(cliques)
        assert all(L.orders[u] == len(rebuilt.clique_of[u]) for u in maximal)
        element_orders = bundle.group.membership.sum(axis=1)
        for d, clique in zip(L.orders, rebuilt.clique_of):
            assert d in element_orders[list(clique)]

    @pytest.mark.parametrize("expr", CORPUS)
    def test_each_node_is_named_by_the_lowest_clique_above_it(self, expr, bundles):
        epow = bundles[expr].epow
        _named_by_the_lowest_clique_above(epow, lattice_from_epow(epow))


def _named_by_the_lowest_clique_above(g: SimpleGraph, rebuilt: Reconstruction) -> None:
    """Assert the naming that :class:`Reconstruction` states: with top(i)
    the node of clique i's size that clique i names, each node u is named
    by cliques[min{i : u <= top(i)}]."""
    cliques, L = maximal_cliques(g), rebuilt.lattice
    named = {(L.orders[u], clique): u for u, clique in enumerate(rebuilt.clique_of)}
    below_tops = reachability(L)[[named[(len(c), c)] for c in cliques]]
    assert below_tops.any(axis=0).all()
    assert tuple(cliques[i] for i in below_tops.argmax(axis=0)) == rebuilt.clique_of


def _core_dropped(g: SimpleGraph) -> str | None:
    """Which of ``lattice_from_epow``'s three checks on the core K, the
    vertices in every maximal clique of g, fails: "empty" when K is, "size"
    when |K| does not divide a clique size, "meet" when it divides them all
    but not some intersection, and None when none fails or g has no clique."""
    cliques = [set(c) for c in maximal_cliques(g)]
    shared = len(set.intersection(*cliques)) if cliques else 1
    if not shared:
        return "empty"
    if any(len(c) % shared for c in cliques):
        return "size"
    if any(len(a & b) % shared for a, b in itertools.combinations(cliques, 2)):
        return "meet"
    return None


def _is_core_refusal(message: str) -> bool:
    return "in every maximal clique" in message


def _same_as_reference(g: SimpleGraph) -> str | None:
    """Assert that ``lattice_from_epow`` gives the reference's lattice or
    refusal message; return its message, or None for a lattice.  The
    reference has neither the certificate nor the checks on the core, so
    where one of those fails (:func:`_core_dropped`) the library may instead
    refuse by it.  It must refuse when a core check fails.  Where the
    clique intersections are not transitive
    (:func:`~conftest.intersections_are_transitive`) the library must
    refuse, and since it names its nodes by their first cliques where the
    reference closes a union-find, it may instead refuse by
    ``validate_lattice`` or by the certificate.  Where the reference
    returns a lattice L and the library refuses, g must not be isomorphic
    to the enhanced power graph of L."""
    dropped = _core_dropped(g)
    transitive = intersections_are_transitive(g)

    def unshared(message: str) -> bool:
        """A refusal the reference need not make."""
        by_core = dropped is not None and _is_core_refusal(message)
        by_names = not transitive and message.startswith(("reconstructed covers ", "certificate: "))
        return by_core or by_names

    try:
        expected = reference_lattice_from_epow(g)
    except NotAnEnhancedPowerGraph as refusal:
        with pytest.raises(NotAnEnhancedPowerGraph) as got:
            lattice_from_epow(g)
        message = str(got.value)
        assert message == str(refusal) or unshared(message)
        return message
    try:
        rebuilt = lattice_from_epow(g).lattice
    except NotAnEnhancedPowerGraph as refusal:
        message = str(refusal)
        assert message.startswith("certificate: ") or unshared(message)
        assert not graph_isomorphism(g, epow_from_lattice(expected).graph).found
        return message
    # a certified input is the enhanced power graph of a lattice, whose
    # clique intersections are transitive
    assert transitive
    assert rebuilt == expected
    assert dropped is None
    return None


class TestLatticeFromEpowAgainstPairwiseReference:
    """Single-edge mutants of enhanced power graphs: most are refused, a few
    are the enhanced power graph of some other group.  Either way the answer
    must be the pairwise set loop's, message or lattice alike, but for the
    refusals of the checks that loop does not make."""

    MUTATED = (
        "S(4)", "Q(16)", "Z(2)xZ(6)", "Heis(3)", "D(24)", "Z(30)", "Q(8)xZ(3)", "A(5)",
    )

    @pytest.mark.parametrize("expr", MUTATED)
    def test_unmutated_graph(self, expr, bundles):
        epow = bundles[expr].epow
        assert lattice_from_epow(epow).lattice == reference_lattice_from_epow(epow)

    @pytest.mark.parametrize("expr", MUTATED)
    def test_single_edge_mutants(self, expr, bundles):
        epow = bundles[expr].epow
        rng = random.Random(f"single-edge mutants of {expr}")
        for _ in range(30):
            _same_as_reference(toggled(epow, *rng.sample(range(epow.vertex_count), 2)))


class TestCertificate:
    """A lattice is returned only when the input is isomorphic to its
    enhanced power graph: every single-edge mutant of a corpus graph is
    refused or is the enhanced power graph of the lattice returned."""

    @pytest.mark.parametrize("expr", CORPUS)
    def test_single_edge_mutants(self, expr, bundles):
        epow = bundles[expr].epow
        n = epow.vertex_count
        pairs = list(itertools.combinations(range(n), 2))
        if len(pairs) > 120:
            pairs = random.Random(f"certified mutants of {expr}").sample(pairs, 120)
        for u, v in pairs:
            mutant = toggled(epow, u, v)
            try:
                rebuilt = lattice_from_epow(mutant)
            except NotAnEnhancedPowerGraph:
                continue
            assert graph_isomorphism(mutant, epow_from_lattice(rebuilt.lattice).graph).found
            _named_by_the_lowest_clique_above(mutant, rebuilt)

    def test_mutant_refused_by_the_certificate(self, bundles):
        # Z(2)xZ(6) plus an edge between elements of order 6 in different
        # cyclic subgroups: their closed neighbourhoods stop being cliques,
        # the other cliques and the lattice they give pass every other
        # check, and the new edge lies in none of them
        bundle = bundles["Z(2)xZ(6)"]
        epow, order = bundle.epow, bundle.group.membership.sum(axis=1)
        u, v = next(
            (u, v)
            for u, v in itertools.combinations(range(epow.vertex_count), 2)
            if not epow.adj[u, v] and order[u] == order[v] == 6
        )
        mutant = toggled(epow, u, v)
        assert labeled_lattice_isomorphism(
            reference_lattice_from_epow(mutant), bundle.lattice.lattice
        ).found
        with pytest.raises(NotAnEnhancedPowerGraph) as refusal:
            lattice_from_epow(mutant)
        assert str(refusal.value) == (
            "certificate: the maximal cliques holding each vertex cover 90 vertices "
            "in all, but the closed neighbourhoods hold 92"
        )

    def test_counts_refused_by_the_certificate(self):
        # three 4-cliques on the identity 0, each pair sharing one more
        # vertex, except that the pairs share different ones: the lattice
        # merges the three order-2 candidates into one node, as in Q(8), so
        # the generators below all three tops number 2, the vertices in all
        # three cliques 1
        g = graph_from_cliques(8, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 6, 7)])
        assert labeled_lattice_isomorphism(
            reference_lattice_from_epow(g), build_lattice(group_of("Q(8)")).lattice
        ).found
        assert _same_as_reference(g) == (
            "certificate: 1 vertices lie in exactly the maximal cliques [0], "
            "but the nodes below exactly their tops have 2 generators"
        )

    def test_rebuilt_covers_that_are_no_lattice_are_refused(self):
        # three 6-cliques on the identity 0, the core: cliques 0 and 1 meet
        # in {0, 1} and cliques 0 and 2 in {0, 3}, so all three order-2
        # candidates merge, and cliques 1 and 2 meet in {0, 6, 9}, so their
        # order-3 candidates merge.  The tops of cliques 1 and 2, nodes 5
        # and 6, then lie above a common node of order 2 and one of order 3,
        # neither below the other
        cliques = [(0, 1, 3, 5, 7, 8), (0, 1, 4, 6, 9, 10), (0, 2, 3, 6, 9, 11)]
        g = graph_from_cliques(12, cliques)
        assert maximal_cliques(g) == cliques
        assert _same_as_reference(g) == (
            "reconstructed covers do not form a cyclic subgroup lattice: "
            "nodes 5,6 have no greatest common lower bound"
        )


def _pairs_tested(monkeypatch) -> list[tuple[int, int, int]]:
    """The list that each clique pair ``lattice_from_epow``'s loop tests is
    appended to, as (i, j, r)."""
    tested: list[tuple[int, int, int]] = []
    loop = reconstruct._clique_pairs

    def counted(*args):
        for pair in loop(*args):
            tested.append(pair)
            yield pair

    monkeypatch.setattr(reconstruct, "_clique_pairs", counted)
    return tested


class TestCliquePairsFromIncidence:
    """One loop tests the clique pairs that share a vertex outside the core
    K, the vertices in every clique, and the divisors of |K| are named by
    clique 0.  An empty K, or one whose size does not divide every clique size
    and every tested intersection, is refused.  Otherwise the answer must be
    the pairwise reference's lattice or message."""

    def test_two_vertices_in_every_clique(self, bundles, monkeypatch):
        # Q(32): the identity and the central involution lie in every
        # maximal cyclic subgroup and make up the core, and every other
        # element lies in one, so no pair is tested
        epow = bundles["Q(32)"].epow
        cliques = maximal_cliques(epow)
        assert len(set.intersection(*map(set, cliques))) == 2
        tested = _pairs_tested(monkeypatch)
        assert _same_as_reference(epow) is None
        assert tested == []

    @pytest.mark.parametrize("k", range(3, 12))
    def test_generalized_quaternion_tests_no_pair(self, k, monkeypatch):
        epow = epow_oracle(build_group(parse_group_expr(f"Q({2**k})"), order_cap=2**k).group)
        tested = _pairs_tested(monkeypatch)
        assert lattice_from_epow(epow).lattice == reference_lattice_from_epow(epow)
        assert tested == []

    def test_random_cliques_over_a_core(self):
        # unions of random cliques over a core (random_cliques_over_a_core),
        # which often fail each of the three checks on the core
        rng = random.Random("random cliques over a core")
        dropped: Counter[str | None] = Counter()
        for _ in range(300):
            g = random_cliques_over_a_core(rng)
            dropped[_core_dropped(g)] += 1
            _same_as_reference(g)
        assert dropped["empty"] > 0 and dropped["size"] > 0 and dropped["meet"] > 0

    @pytest.mark.parametrize("expr", ["D(512)", "x".join(["Z(2)"] * 9)])
    def test_unmutated_order_512(self, expr):
        assert _same_as_reference(epow_oracle(group_of(expr))) is None

    def test_no_universal_vertex_is_refused(self):
        # cliques 0 and 1 meet in vertex 2, and 1 and 2 in vertex 4, but no
        # vertex lies in all three
        g = graph_from_cliques(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        assert _same_as_reference(g) == (
            "no vertex lies in every maximal clique, but the identity lies in "
            "every maximal cyclic subgroup"
        )

    @pytest.mark.parametrize("cliques, message", [
        # the core {0, 1} divides neither clique size, and clique 0's is
        # reported
        ([(0, 1, 3, 4, 5), (0, 1, 2)],
         "maximal clique 0 has 5 vertices, not a multiple of the 2 vertices in every "
         "maximal clique, a subgroup of each"),
        # the core {0, 9} divides every size, but cliques 0 and 2 meet in
        # {0, 4, 9}
        ([(0, 1, 4, 6, 9, 11), (0, 2, 3, 7, 9, 10), (0, 3, 4, 5, 8, 9)],
         "maximal cliques 0 and 2 intersect in 3 vertices, not a multiple of the 2 "
         "vertices in every maximal clique, a subgroup of each"),
        # cliques 0 and 1 meet in {0, 1, 2}: 3 divides neither 4 nor the
        # core's 2, and the sizes are checked first
        ([(0, 1, 2, 3, 4, 5), (0, 1, 2, 6), (0, 1, 7, 8)],
         "maximal cliques 0 and 1 intersect in 3 vertices, which does not divide "
         "both clique sizes 6 and 4"),
    ], ids=["size", "meet", "sizes first"])
    def test_a_core_that_does_not_divide_is_refused(self, cliques, message):
        g = graph_from_cliques(1 + max(map(max, cliques)), cliques)
        assert maximal_cliques(g) == cliques
        assert _same_as_reference(g) == message

    def test_first_failing_pair_in_row_major_order_is_reported(self):
        # vertex 0 lies in every clique, and vertices 9, 10 and 11 each in
        # one, so each clique is the closed neighbourhood of its own.
        # Cliques 1 and 2 share vertices 1 and 2, and cliques 0 and 1 share
        # 4 and 5: both pairs meet in 3 vertices, which divides neither 5 nor
        # 7.  The pair (1, 2) is met first through the lower vertices; (0, 1)
        # comes first in row-major order and is the one reported
        cliques = [(0, 4, 5, 6, 7, 8, 9), (0, 1, 2, 4, 5, 10), (0, 1, 2, 3, 11)]
        g = graph_from_cliques(12, cliques)
        assert maximal_cliques(g) == cliques
        assert _same_as_reference(g) == (
            "maximal cliques 0 and 1 intersect in 3 vertices, "
            "which does not divide both clique sizes 7 and 6"
        )

    @pytest.mark.parametrize("core", [0, 1, 40])
    def test_never_visits_more_pairs_than_the_scan(self, core, monkeypatch):
        # vertex 0 and a core of vertices 1..core lie in all cliques but
        # {0, core + 1}; each of 40 more cliques adds core + 1 vertices of
        # its own, so every pair among them meets in a divisor of both
        # sizes and the loop runs to its end.  Those pairs share the core,
        # and each is tested once, however many vertices it shares
        own = core + 1
        cliques = [(0, own)] + [
            (0, *range(1, own), *range(own + 1 + own * i, own + 1 + own * (i + 1)))
            for i in range(40)
        ]
        g = graph_from_cliques(own + 1 + own * 40, cliques)
        assert sorted(maximal_cliques(g)) == sorted(cliques)
        tested = _pairs_tested(monkeypatch)
        _same_as_reference(g)
        k = len(cliques)
        assert len(tested) == (40 * 39 // 2 if core else 0)
        assert len(tested) < k * (k - 1) // 2


class TestNamesByFirstClique:
    def test_intersections_that_are_not_transitive_are_refused(self):
        # six 4-cliques on the identity 0: cliques 0 and 5 share vertex 7,
        # 1 and 2 share 8, and 1 and 5 share 9, but 0 and 1 share only the
        # identity, so "2 divides the intersection" is not transitive.
        # Clique 5's order-2 candidate is named by clique 0 and clique 1's
        # by clique 1, so no node lies below exactly the tops of cliques 1
        # and 5, and the certificate refuses the first set of cliques whose
        # count differs: clique 1 alone, which holds 1 vertex of its own
        # where its top has 2 generators
        cliques = [
            (0, 1, 7, 10), (0, 2, 8, 9), (0, 3, 8, 11),
            (0, 4, 12, 13), (0, 5, 14, 15), (0, 6, 7, 9),
        ]
        g = graph_from_cliques(16, cliques)
        assert maximal_cliques(g) == cliques
        assert not intersections_are_transitive(g)
        assert _same_as_reference(g) == (
            "certificate: 1 vertices lie in exactly the maximal cliques [1], "
            "but the nodes below exactly their tops have 2 generators"
        )


class TestLatticeFromEpowRejections:
    def test_path_p3(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NotAnEnhancedPowerGraph, match="does not divide"):
            lattice_from_epow(g)

    def test_cycle_c4(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(NotAnEnhancedPowerGraph, match="no closed neighbourhood is a clique"):
            lattice_from_epow(g)

    def test_k4_minus_edge(self):
        # the two triangles share the core {0, 1}, which does not divide 3
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(NotAnEnhancedPowerGraph, match="3 vertices, not a multiple of the 2"):
            lattice_from_epow(g)

    def test_two_disjoint_triangles(self):
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        with pytest.raises(NotAnEnhancedPowerGraph, match="no vertex lies in every maximal clique"):
            lattice_from_epow(SimpleGraph.from_edges(6, edges))

    def test_empty_graph(self):
        with pytest.raises(NotAnEnhancedPowerGraph):
            lattice_from_epow(SimpleGraph.from_edges(0, []))

    def test_cocktail_party_refused_before_enumerating_its_cliques(self):
        # K_{2,...,2} on 60 vertices has 2^30 maximal cliques, and none is a
        # closed neighbourhood: x misses only its partner, which y != x sees
        edges = [(u, v) for u in range(60) for v in range(u + 1, 60) if v != u ^ 1]
        with pytest.raises(NotAnEnhancedPowerGraph, match="no closed neighbourhood is a clique"):
            lattice_from_epow(SimpleGraph.from_edges(60, edges))


class TestEpowFromLattice:
    def test_c2xc6_counts(self, bundles):
        bundle = bundles["Z(2)xZ(6)"]
        built = epow_from_lattice(bundle.lattice.lattice)
        assert built.graph.vertex_count == 12
        assert built.graph.edge_count == 39

    def test_c2xc6_matches_oracle(self, bundles):
        bundle = bundles["Z(2)xZ(6)"]
        built = epow_from_lattice(bundle.lattice.lattice)
        oracle = LabeledGraph(graph=bundle.epow, labels=bundle.labeling)
        assert graphs_match_up_to_generator_indices(built, oracle)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_chain_gives_complete_graph(self, n):
        built = epow_from_lattice(chain_lattice(n))
        assert built.graph.edge_count == n * (n - 1) // 2

    def test_partial_c2xc6_lattice_gives_star_plus_triangle(self):
        # only the bottom and the four atoms: three order-2 nodes, one order-3
        L = CyclicLattice(
            orders=(1, 2, 2, 2, 3),
            covers=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}),
        )
        built = epow_from_lattice(L)
        assert built.graph.vertex_count == 6
        assert set(built.graph.edges()) == {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (4, 5)}
        assert built.labels[4:] == (4, 4)
        assert label_strings(built.labels)[4:] == ["n4:g1", "n4:g2"]

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_matches_oracle(self, expr, bundles):
        bundle = bundles[expr]
        built = epow_from_lattice(bundle.lattice.lattice)
        oracle = LabeledGraph(graph=bundle.epow, labels=bundle.labeling)
        assert graphs_match_up_to_generator_indices(built, oracle)

    def test_invalid_lattice_raises(self):
        L = CyclicLattice(orders=(1, 4), covers=frozenset({(0, 1)}))
        with pytest.raises(InvalidLattice):
            epow_from_lattice(L)


class TestPowFromLattice:
    def test_z6(self, bundles):
        bundle = bundles["Z(6)"]
        built = pow_from_lattice(bundle.lattice.lattice)
        assert built.graph.edge_count == 13
        oracle = LabeledGraph(graph=bundle.pow, labels=bundle.labeling)
        assert graphs_match_up_to_generator_indices(built, oracle)

    def test_prime_power_chain_is_complete(self):
        built = pow_from_lattice(chain_lattice(9))
        assert built.graph.edge_count == 36

    def test_trivial(self):
        built = pow_from_lattice(chain_lattice(1))
        assert built.graph.vertex_count == 1
        assert built.graph.edge_count == 0

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_matches_oracle(self, expr, bundles):
        bundle = bundles[expr]
        built = pow_from_lattice(bundle.lattice.lattice)
        oracle = LabeledGraph(graph=bundle.pow, labels=bundle.labeling)
        assert graphs_match_up_to_generator_indices(built, oracle)


class TestDirpowFromLattice:
    def test_z4_arc_count(self, bundles):
        bundle = bundles["Z(4)"]
        built = dirpow_from_lattice(bundle.lattice.lattice)
        assert built.graph.arc_count == 7
        oracle = LabeledGraph(graph=bundle.dirpow, labels=bundle.labeling)
        assert digraphs_match_up_to_generator_indices(built, oracle)

    def test_no_arcs_between_incomparable_atoms(self, bundles):
        # in C2 x C6 the order-3 generators never point at order-2 vertices
        L = bundles["Z(2)xZ(6)"].lattice.lattice
        built = dirpow_from_lattice(L)
        order_of = {v: L.orders[v] for v in L.nodes()}
        for x, y in built.graph.arcs():
            ox = order_of[built.labels[x]]
            oy = order_of[built.labels[y]]
            assert not (ox == 3 and oy == 2)

    def test_trivial(self):
        built = dirpow_from_lattice(chain_lattice(1))
        assert built.graph.vertex_count == 1
        assert built.graph.arc_count == 0

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_matches_oracle(self, expr, bundles):
        bundle = bundles[expr]
        built = dirpow_from_lattice(bundle.lattice.lattice)
        oracle = LabeledGraph(graph=bundle.dirpow, labels=bundle.labeling)
        assert digraphs_match_up_to_generator_indices(built, oracle)


class TestDiffFromLattice:
    def test_z6(self, bundles):
        bundle = bundles["Z(6)"]
        built = diff_from_lattice(bundle.lattice.lattice)
        assert built.graph.vertex_count == 3
        assert built.graph.edge_count == 2

    @pytest.mark.parametrize("n", [4, 8, 27])
    def test_chains_give_empty_graph(self, n):
        built = diff_from_lattice(chain_lattice(n))
        assert built.graph.vertex_count == 0

    def test_incomparability_characterisation_agrees(self, bundles):
        for expr in SAMPLE:
            L = bundles[expr].lattice.lattice
            assert diff_from_lattice(L) == diff_incomparability(L)

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_matches_oracle(self, expr, bundles):
        bundle = bundles[expr]
        built = diff_from_lattice(bundle.lattice.lattice)
        oracle = LabeledGraph(
            graph=bundle.diff.graph,
            labels=tuple(bundle.labeling[v] for v in bundle.diff.retained),
        )
        assert graphs_match_up_to_generator_indices(built, oracle)


class TestOracleLabeling:
    def test_identity_maps_to_bottom(self, bundles):
        bundle = bundles["Z(2)xZ(6)"]
        bottom = bundle.lattice.lattice.orders.index(1)
        assert bundle.labeling[bundle.group.identity] == bottom

    def test_z6_generators_get_top_labels(self, bundles):
        bundle = bundles["Z(6)"]
        L = bundle.lattice.lattice
        top = next(v for v in L.nodes() if L.orders[v] == 6)
        assert bundle.labeling[1] == bundle.labeling[5] == top
        names = label_strings(bundle.labeling)
        assert (names[1], names[5]) == (f"n{top}:g1", f"n{top}:g2")

    def test_label_multiset_per_node(self, bundles):
        for expr in SAMPLE:
            bundle = bundles[expr]
            L = bundle.lattice.lattice
            counts = Counter(bundle.labeling)
            for v in L.nodes():
                assert counts[v] == totient(L.orders[v])

    def test_matches_element_walks(self, bundles):
        for bundle in bundles.values():
            G, LS = bundle.group, bundle.lattice
            node_of = {sub.members: v for v, sub in enumerate(LS.subgroup_of)}
            walked = []
            for x in G.elements():
                sub = generated_subgroup(G, x)
                walked.append(f"n{node_of[sub.members]}:g{sub.generators.index(x) + 1}")
            assert label_strings(oracle_labeling(G)) == walked

    def test_labeling_is_bijective(self, bundles):
        for expr in SAMPLE:
            names = label_strings(bundles[expr].labeling)
            assert len(set(names)) == len(names)


class TestLabelInvariants:
    @pytest.mark.parametrize("expr", SAMPLE)
    def test_reconstructed_label_counts(self, expr, bundles):
        L = bundles[expr].lattice.lattice
        built = epow_from_lattice(L)
        counts = Counter(built.labels)
        for v in L.nodes():
            assert counts[v] == totient(L.orders[v])
        assert sum(counts.values()) == bundles[expr].group.order


class TestLabelsNameGeneratorRanks:
    """A label is a node; ``label_strings`` numbers each node's vertices from
    1 in id order.  That number is the generator index of the lattice's
    layout and of the oracle, and it survives the removal of the difference
    graphs' isolated vertices."""

    @pytest.mark.parametrize("expr", CORPUS + LADDER)
    def test_ranks(self, expr, bundles):
        bundle = bundles[expr] if expr in bundles else make_bundle(expr)
        L, subgroups = bundle.lattice.lattice, bundle.lattice.subgroup_of
        layout = [
            f"n{v}:g{k}"
            for stage in levelize(L)
            for v in sorted(stage)
            for k in range(1, totient(L.orders[v]) + 1)
        ]
        assert label_strings(L.vertex_labels) == layout

        names = label_strings(bundle.labeling)
        for v, sub in enumerate(subgroups):
            assert [names[x] for x in sub.generators] == [
                f"n{v}:g{k}" for k in range(1, len(sub.generators) + 1)
            ]

        # a node's generators are open twins in each difference graph, so
        # they are kept or dropped together
        oracle_diff = tuple(bundle.labeling[x] for x in bundle.diff.retained)
        for kept, labels in ((diff_from_lattice(L).labels, L.vertex_labels),
                             (oracle_diff, bundle.labeling)):
            total = Counter(labels)
            assert {v: c for v, c in Counter(kept).items() if c != total[v]} == {}


class TestMatchHelpers:
    def test_dropped_edge_is_detected(self, bundles):
        bundle = bundles["Z(2)xZ(6)"]
        built = epow_from_lattice(bundle.lattice.lattice)
        edges = built.graph.edges()[1:]
        broken = LabeledGraph(
            graph=SimpleGraph.from_edges(built.graph.vertex_count, edges),
            labels=built.labels,
        )
        oracle = LabeledGraph(graph=bundle.epow, labels=bundle.labeling)
        assert not graphs_match_up_to_generator_indices(broken, oracle)

    def test_label_swap_between_nodes_is_detected(self, bundles):
        bundle = bundles["Z(6)"]
        built = pow_from_lattice(bundle.lattice.lattice)
        labels = list(built.labels)
        # move a generator onto a different node
        a = next(i for i, v in enumerate(labels) if v != labels[0])
        labels[a] = labels[0]
        tampered = LabeledGraph(graph=built.graph, labels=tuple(labels))
        oracle = LabeledGraph(graph=bundle.pow, labels=bundle.labeling)
        assert not graphs_match_up_to_generator_indices(tampered, oracle)


def _four_kinds(bundle):
    """(kind, built from the lattice, oracle) for the four power-type graphs."""
    L, labeling = bundle.lattice.lattice, bundle.labeling
    yield "epow", epow_from_lattice(L), LabeledGraph(graph=bundle.epow, labels=labeling)
    yield "pow", pow_from_lattice(L), LabeledGraph(graph=bundle.pow, labels=labeling)
    yield "dirpow", dirpow_from_lattice(L), LabeledGraph(graph=bundle.dirpow, labels=labeling)
    diff_labels = tuple(labeling[v] for v in bundle.diff.retained)
    yield "diff", diff_from_lattice(L), LabeledGraph(graph=bundle.diff.graph, labels=diff_labels)


def _adj(labeled):
    return labeled.graph.adj


def _nbrs(labeled):
    """Out-neighbour lists, one per vertex."""
    return [np.flatnonzero(row).tolist() for row in _adj(labeled)]


def _with_adj(labeled, adj, labels=None):
    """The same kind of labelled graph on a new matrix (and labels)."""
    labels = labeled.labels if labels is None else tuple(labels)
    return LabeledGraph(graph=type(labeled.graph)(adj), labels=labels)


def _flip(labeled, x: int, y: int):
    """Toggle the edge {x, y}, or the arc x -> y of a digraph."""
    if isinstance(labeled.graph, SimpleGraph):
        return LabeledGraph(graph=toggled(labeled.graph, x, y), labels=labeled.labels)
    adj = _adj(labeled).copy()
    adj[x, y] = not adj[x, y]
    return _with_adj(labeled, adj)


def _match(a, b) -> bool:
    if isinstance(a.graph, Digraph):
        return digraphs_match_up_to_generator_indices(a, b)
    return graphs_match_up_to_generator_indices(a, b)


class TestMatchUnderMutation:
    """Generators of one node are twins, so a node pair is joined wholly or
    not at all; any single flipped pair breaks that or changes a block."""

    # each has a cyclic subgroup of order 6 or 12, so its difference graph,
    # too, has nodes with two generators or more
    GROUPS = ("Z(2)xZ(6)", "D(24)", "Q(8)xZ(3)")

    @pytest.mark.parametrize("expr", GROUPS)
    def test_dropping_any_edge_fails(self, expr, bundles):
        for kind, built, oracle in _four_kinds(bundles[expr]):
            assert _match(built, oracle), kind
            for x, nb in enumerate(_nbrs(built)):
                for y in nb:
                    broken = _flip(built, x, y)
                    assert not _match(broken, oracle), (kind, x, y)
                    assert not _match(oracle, broken), (kind, x, y)

    @pytest.mark.parametrize("expr", GROUPS)
    def test_breaking_one_twin_fails(self, expr, bundles):
        # the last generator of a node gains or loses one neighbour, so it
        # stops being a twin of the first; every node with two generators or
        # more, and every other vertex as the neighbour, is tried
        tried = Counter()
        for kind, built, oracle in _four_kinds(bundles[expr]):
            members = {}
            for x, v in enumerate(built.labels):
                members.setdefault(v, []).append(x)
            for first, *_, last in (xs for xs in members.values() if len(xs) > 1):
                for y in range(len(built.labels)):
                    if y in (first, last):
                        continue
                    broken = _flip(built, last, y)
                    assert not _match(broken, oracle), (kind, last, y)
                    assert not _match(oracle, broken), (kind, last, y)
                    tried[kind] += 1
        assert set(tried) == {"epow", "pow", "dirpow", "diff"}

    @pytest.mark.parametrize("expr", SAMPLE)
    def test_permuting_generator_indices_keeps_the_match(self, expr, bundles):
        rng = random.Random(f"index permutations of {expr}")
        for kind, built, oracle in _four_kinds(bundles[expr]):
            # renumber the vertices, carrying the labels along: the generators
            # of a node change their order, and so their pairing
            labels = built.labels
            n = len(labels)
            perm = list(range(n))
            rng.shuffle(perm)
            adj = np.zeros((n, n), dtype=bool)
            moved = [None] * n
            for x, nb in enumerate(_nbrs(built)):
                adj[perm[x], [perm[y] for y in nb]] = True
                moved[perm[x]] = labels[x]
            permuted = _with_adj(built, adj, moved)
            assert _match(permuted, oracle), kind
            assert _match(oracle, permuted), kind


class TestMatchUnderTheLabelBijection:
    """The comparison is equality under the bijection the labels name, with
    no assumption that a node's generators are twins."""

    @staticmethod
    def _not_twins(kind, bundles):
        """A labelled graph of Z(2)xZ(6) in which the last generator of a
        node of order 6 has lost one neighbour or arc, so that node's
        generators are no longer twins."""
        built = {k: b for k, b, _ in _four_kinds(bundles["Z(2)xZ(6)"])}[kind]
        node = next(v for v, d in enumerate(bundles["Z(2)xZ(6)"].lattice.lattice.orders) if d == 6)
        last = max(x for x, v in enumerate(built.labels) if v == node)
        y = next(y for y in range(len(built.labels)) if y != last and _adj(built)[last, y])
        return _flip(built, last, y), last

    @staticmethod
    def _renumbered(labeled, seed):
        """The same labelled graph with its vertices renumbered, each node's
        vertices kept in the same order."""
        n = len(labeled.labels)
        perm = np.random.default_rng(seed).permutation(n)
        for v in set(labeled.labels):
            xs = [x for x in range(n) if labeled.labels[x] == v]
            perm[xs] = np.sort(perm[xs])
        adj = np.zeros((n, n), dtype=bool)
        adj[np.ix_(perm, perm)] = _adj(labeled)
        labels = [None] * n
        for x, lbl in enumerate(labeled.labels):
            labels[perm[x]] = lbl
        return _with_adj(labeled, adj, labels)

    @pytest.mark.parametrize("kind", ["epow", "dirpow"])
    def test_identical_graphs_without_twins_match(self, kind, bundles):
        g, _ = self._not_twins(kind, bundles)
        assert _match(g, g)
        assert _match(g, _with_adj(g, _adj(g).copy()))
        moved = self._renumbered(g, seed=7)
        assert _match(g, moved) and _match(moved, g)

    @pytest.mark.parametrize("kind", ["epow", "dirpow"])
    def test_two_vertices_of_a_node_swapped_do_not_match(self, kind, bundles):
        # the k-th vertex of a node is paired with the k-th, in id order:
        # swapping the numbers of the node's two generators, which are no
        # longer twins, pairs each with the other
        g, last = self._not_twins(kind, bundles)
        first = g.labels.index(g.labels[last])
        perm = np.arange(len(g.labels))
        perm[[first, last]] = perm[[last, first]]
        swapped = _with_adj(g, _adj(g)[np.ix_(perm, perm)])
        assert not _match(g, swapped) and not _match(swapped, g)

    @pytest.mark.parametrize("kind", ["epow", "dirpow"])
    def test_a_node_with_one_vertex_fewer_does_not_match(self, kind, bundles):
        # the last vertex of the last node, one of two generators of a node
        # of order 6, moves to a new node of its own: the pairing in label
        # order is unchanged, so only the node sequences tell the two apart
        g, _ = self._not_twins(kind, bundles)
        labels = list(g.labels)
        x = max(range(len(labels)), key=lambda x: (labels[x], x))
        labels[x] += 1
        fewer = _with_adj(g, _adj(g), labels)
        assert not _match(g, fewer) and not _match(fewer, g)
