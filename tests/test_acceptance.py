"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is exact; the only non-exact bounds are the
stated wall-clock limits.
"""

import itertools
import time
from collections import Counter

import pytest

from latgraph.catalog import build_group, order16_catalog, parse_group_expr
from latgraph.group_core import is_abelian, order_statistics
from latgraph.iso import (
    EquivalenceProfile,
    compare_groups,
    digraph_isomorphism,
    graph_isomorphism,
    isomorphism_classes,
    labeled_lattice_isomorphism,
)
from latgraph.lattice import build_lattice, totient
from latgraph.power_graphs import (
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    maximal_cliques,
    pow_oracle,
)
from latgraph.reconstruct import (
    LabeledGraph,
    NotAnEnhancedPowerGraph,
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

from conftest import CORPUS
from test_lattice import expected_c2xc6_lattice


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_worked_example_fidelity():
    start = time.monotonic()
    G = build_group(parse_group_expr("Z(2)xZ(6)")).group
    g = epow_oracle(G)
    cliques = maximal_cliques(g)
    ok = g.vertex_count == 12
    ok = ok and [len(c) for c in cliques] == [6, 6, 6]
    ok = ok and all(
        len(set(a) & set(b)) == 3 for a, b in itertools.combinations(cliques, 2)
    )
    L = build_lattice(G).lattice
    ok = ok and L.node_count == 8 and len(L.covers) == 10
    ok = ok and labeled_lattice_isomorphism(L, expected_c2xc6_lattice()).found
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, "worked example C2xC6", ok)


def test_02_round_trip_lattice_from_graph(bundles):
    assert len(CORPUS) >= 40
    start = time.monotonic()
    ok = True
    for expr in CORPUS:
        G = build_group(parse_group_expr(expr)).group
        rebuilt = lattice_from_epow(epow_oracle(G)).lattice
        reference = build_lattice(G).lattice
        ok = ok and labeled_lattice_isomorphism(rebuilt, reference).found
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(2, f"round trip A over {len(CORPUS)} groups in {elapsed:.1f}s", ok)


def test_03_round_trip_graph_from_lattice(bundles):
    ok = True
    for expr in CORPUS:
        b = bundles[expr]
        built = epow_from_lattice(b.lattice.lattice)
        oracle = LabeledGraph(graph=b.epow, labels=b.labeling)
        ok = ok and graphs_match_up_to_generator_indices(built, oracle)
    report(3, f"round trip B over {len(CORPUS)} groups", ok)


def test_04_power_directed_difference_reconstructions(bundles):
    ok = True
    for expr in CORPUS:
        b = bundles[expr]
        L = b.lattice.lattice

        built_pow = pow_from_lattice(L)
        ok = ok and graphs_match_up_to_generator_indices(
            built_pow, LabeledGraph(graph=b.pow, labels=b.labeling)
        )

        built_dir = dirpow_from_lattice(L)
        ok = ok and digraphs_match_up_to_generator_indices(
            built_dir, LabeledGraph(graph=b.dirpow, labels=b.labeling)
        )

        built_diff = diff_from_lattice(L)
        oracle_diff = LabeledGraph(
            graph=b.diff.graph, labels=tuple(b.labeling[v] for v in b.diff.retained)
        )
        ok = ok and graphs_match_up_to_generator_indices(built_diff, oracle_diff)
        ok = ok and built_diff == diff_incomparability(L)
    report(4, f"power/directed/difference over {len(CORPUS)} groups", ok)


def test_05_generator_count_labels(bundles):
    ok = True
    for expr in CORPUS:
        b = bundles[expr]
        L = b.lattice.lattice
        for built_labels in (
            epow_from_lattice(L).labels,
            pow_from_lattice(L).labels,
            dirpow_from_lattice(L).labels,
        ):
            counts = Counter(built_labels)
            for v in L.nodes():
                ok = ok and counts.get(v, 0) == totient(L.orders[v])
            ok = ok and sum(counts.values()) == b.group.order
    report(5, "phi(d) vertices per node, totient sum = |G|", ok)


def test_06_order16_census():
    start = time.monotonic()
    entries = order16_catalog()
    ok = len(entries) == 14 and all(e.group.order == 16 for e in entries)
    graphs = [pow_oracle(e.group) for e in entries]
    classes = isomorphism_classes(
        len(entries),
        lambda i: graphs[i].degree_sequence(),
        lambda i, j: graph_isomorphism(graphs[i], graphs[j]).found,
    )
    elapsed = time.monotonic() - start
    ok = ok and len(classes) == 12 and elapsed < 120.0
    report(6, f"order-16 census: 12 power graphs in {elapsed:.1f}s", ok)


def test_07_lookalike_pair():
    z27 = build_group(parse_group_expr("Z(3)xZ(3)xZ(3)")).group
    heis = build_group(parse_group_expr("Heis(3)")).group
    profile = compare_groups(z27, heis)
    ok = profile.flags == (True, True, True, True)
    ok = ok and is_abelian(z27) and not is_abelian(heis)

    z54 = build_group(parse_group_expr("Z(3)xZ(3)xZ(3)xZ(2)")).group
    heis54 = build_group(parse_group_expr("Heis(3)xZ(2)")).group
    profile2 = compare_groups(z54, heis54)
    ok = ok and profile2.flags == (True, True, True, True)
    ok = ok and is_abelian(z54) and not is_abelian(heis54)
    report(7, "exponent-3 lookalikes match on all four structures", ok)


def test_08_equivalence_profile_consistency(bundles):
    ok = True
    mixed: list[tuple[str, str]] = []
    for a, b in itertools.combinations(CORPUS, 2):
        ba, bb = bundles[a], bundles[b]
        profile = EquivalenceProfile(
            lattice_iso=labeled_lattice_isomorphism(
                ba.lattice.lattice, bb.lattice.lattice
            ).found,
            dirpow_iso=digraph_isomorphism(ba.dirpow, bb.dirpow).found,
            epow_iso=graph_isomorphism(ba.epow, bb.epow).found,
            pow_iso=graph_isomorphism(ba.pow, bb.pow).found,
        )
        if len(set(profile.flags)) != 1:
            mixed.append((a, b))
            ok = False
    pair_count = len(CORPUS) * (len(CORPUS) - 1) // 2
    report(8, f"no mixed profiles across {pair_count} pairs {mixed or ''}", ok)


def test_09_power_graph_completeness():
    ok = True
    for n in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        g = pow_oracle(build_group(parse_group_expr(f"Z({n})")).group)
        ok = ok and g.edge_count == n * (n - 1) // 2
    for n in (6, 10, 12, 15):
        g = pow_oracle(build_group(parse_group_expr(f"Z({n})")).group)
        ok = ok and g.edge_count < n * (n - 1) // 2
    report(9, "power graph complete exactly for prime-power cyclic groups", ok)


def test_10_non_epow_inputs_rejected(tmp_path):
    from latgraph.cli import main
    from latgraph.power_graphs import graph_to_json

    inputs = {
        "P3": SimpleGraph.from_edges(3, [(0, 1), (1, 2)]),
        "C4": SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "K4-e": SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    }
    ok = True
    for name, g in inputs.items():
        try:
            lattice_from_epow(g)
            ok = False
        except NotAnEnhancedPowerGraph:
            pass
        path = tmp_path / f"{name}.json"
        path.write_text(graph_to_json(g))
        code = main(["reconstruct", "--direction", "lattice-from-epow",
                     "--from", str(path)])
        ok = ok and code == 4
    report(10, "P3, C4, K4-e rejected with exit 4", ok)
