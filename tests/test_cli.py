"""Command line behavior: output formats, exit codes, determinism."""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import latgraph
from latgraph import cli, group_core, iso, reconstruct
from latgraph.cli import main
from latgraph.iso import labeled_lattice_isomorphism
from latgraph.lattice import CyclicLattice, build_lattice, lattice_from_json
from latgraph.power_graphs import PowerGraphs, SimpleGraph, epow_oracle, graph_from_json

from conftest import CORPUS, LADDER, group_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphCommand:
    def test_epow_summary(self, capsys):
        code, out, _ = run(capsys, "graph", "--group", "Z(2)xZ(6)", "--kind", "epow",
                           "--format", "summary")
        assert code == 0
        assert out == "vertices=12 edges=39\n"

    def test_diff_summary(self, capsys):
        code, out, _ = run(capsys, "graph", "--group", "Z(6)", "--kind", "diff",
                           "--format", "summary")
        assert code == 0
        assert out == "vertices=3 edges=2\n"

    def test_dirpow_summary_counts_arcs(self, capsys):
        code, out, _ = run(capsys, "graph", "--group", "Z(4)", "--kind", "dirpow")
        assert code == 0
        assert out == "vertices=4 arcs=7\n"

    def test_invalid_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "graph", "--group", "Z(0)", "--kind", "epow")
        assert code == 2
        assert "cyclic group order" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "graph", "--group", "Z(4)x", "--kind", "epow")
        assert code == 2
        assert "position 5" in err

    def test_json_output_reingests(self, capsys):
        code, out, _ = run(capsys, "graph", "--group", "S(3)", "--kind", "pow",
                           "--format", "json")
        assert code == 0
        g = graph_from_json(out)
        assert g.vertex_count == 6

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--group", "Z(3)", "--kind", "epow",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("graph {")
        assert "--" in out

    def test_dot_uses_element_names(self, capsys):
        _, out, _ = run(capsys, "graph", "--group", "D(6)", "--kind", "epow",
                        "--format", "dot")
        assert 'label="r"' in out
        assert 'label="s"' in out

    def test_cayley_file_input(self, capsys, tmp_path):
        path = tmp_path / "z4.csv"
        path.write_text("0,1,2,3\n1,2,3,0\n2,3,0,1\n3,0,1,2\n")
        code, out, _ = run(capsys, "graph", "--from", str(path), "--kind", "epow")
        assert code == 0
        assert out == "vertices=4 edges=6\n"

    def test_cayley_file_over_cap_exits_3_before_parsing(self, capsys, tmp_path):
        # 513 ragged rows: parsing any of them would exit 2 instead
        path = tmp_path / "big.csv"
        path.write_text("0\n" * 513)
        code, _, err = run(capsys, "graph", "--from", str(path), "--kind", "epow")
        assert code == 3
        assert "group order 513 exceeds the cap of 512" in err

    def test_expression_over_cap_exits_3_naming_its_order(self, capsys):
        code, out, err = run(capsys, "graph", "--group", "Z(2000)", "--kind", "epow")
        assert (code, out) == (3, "")
        assert "group order 2000 exceeds the cap of 512" in err

    def test_max_order_flag_exits_3(self, capsys):
        code, _, err = run(capsys, "graph", "--group", "Z(100)", "--kind", "epow",
                           "--max-order", "50")
        assert code == 3
        assert "exceeds" in err

    def test_env_var_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGRAPH_MAX_ORDER", "10")
        code, _, _ = run(capsys, "graph", "--group", "Z(12)", "--kind", "epow")
        assert code == 3

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_max_order_is_a_usage_error(self, capsys, value):
        code, _, err = run(capsys, "graph", "--group", "Z(4)", "--kind", "epow",
                           "--max-order", value)
        assert code == 2
        assert f"argument --max-order: expected a positive integer, got '{value}'" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_env_var_cap_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("LATGRAPH_MAX_ORDER", value)
        code, _, err = run(capsys, "graph", "--group", "Z(4)", "--kind", "epow")
        assert code == 2
        assert f"LATGRAPH_MAX_ORDER: expected a positive integer, got '{value}'" in err

    def test_missing_group_and_file(self, capsys):
        code, _, err = run(capsys, "graph", "--kind", "epow")
        assert code == 2

    @pytest.mark.parametrize("command", [["graph", "--kind", "epow"], ["lattice"]])
    def test_group_and_file_together_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "z4.csv"
        path.write_text("0,1,2,3\n1,2,3,0\n2,3,0,1\n3,0,1,2\n")
        code, out, err = run(capsys, *command, "--group", "Z(4)", "--from", str(path))
        assert (code, out) == (2, "")
        assert "argument --from: not allowed with argument --group" in err

    @pytest.mark.parametrize("command", [["graph", "--kind", "epow"], ["lattice"]])
    def test_neither_group_nor_file_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert "one of the arguments --group --from is required" in err


class TestLatticeCommand:
    def test_c2xc6_summary(self, capsys):
        code, out, _ = run(capsys, "lattice", "--group", "Z(2)xZ(6)")
        assert code == 0
        assert out == "nodes=8 covers=10\n"

    def test_z12_summary(self, capsys):
        _, out, _ = run(capsys, "lattice", "--group", "Z(12)")
        assert out == "nodes=6 covers=7\n"

    def test_trivial_summary(self, capsys):
        _, out, _ = run(capsys, "lattice", "--group", "Z(1)")
        assert out == "nodes=1 covers=0\n"

    def test_json_reingests(self, capsys):
        _, out, _ = run(capsys, "lattice", "--group", "S(4)", "--format", "json")
        L = lattice_from_json(out)
        assert L.node_count == 17

    def test_dot_output(self, capsys):
        _, out, _ = run(capsys, "lattice", "--group", "Z(4)", "--format", "dot")
        assert out.startswith("digraph {")
        assert "->" in out


class TestReconstructCommand:
    def test_lattice_from_epow_file(self, capsys, tmp_path):
        _, graph_json, _ = run(capsys, "graph", "--group", "Z(2)xZ(6)",
                               "--kind", "epow", "--format", "json")
        path = tmp_path / "epow.json"
        path.write_text(graph_json)
        code, out, _ = run(capsys, "reconstruct", "--direction", "lattice-from-epow",
                           "--from", str(path))
        assert code == 0
        assert out == "nodes=8 covers=10\n"

    def test_pow_from_lattice_file(self, capsys, tmp_path):
        _, lattice_json, _ = run(capsys, "lattice", "--group", "Z(6)",
                                 "--format", "json")
        path = tmp_path / "lat.json"
        path.write_text(lattice_json)
        code, out, _ = run(capsys, "reconstruct", "--direction", "pow-from-lattice",
                           "--from", str(path))
        assert code == 0
        assert out == "vertices=6 edges=13\n"

    def test_epow_from_lattice_labels(self, capsys, tmp_path):
        _, lattice_json, _ = run(capsys, "lattice", "--group", "Z(6)",
                                 "--format", "json")
        path = tmp_path / "lat.json"
        path.write_text(lattice_json)
        code, out, _ = run(capsys, "reconstruct", "--direction", "epow-from-lattice",
                           "--from", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"][0] == "n0:g1"
        assert len(payload["vertices"]) == 6

    def test_non_epow_input_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"simple","vertices":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3]]}')
        code, _, err = run(capsys, "reconstruct", "--direction", "lattice-from-epow",
                           "--from", str(path))
        assert code == 4
        assert "intersect" in err

    def test_invalid_lattice_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes":[{"id":0,"order":1},{"id":1,"order":4}],"covers":[[0,1]]}')
        code, _, _ = run(capsys, "reconstruct", "--direction", "epow-from-lattice",
                         "--from", str(path))
        assert code == 4

    def test_two_order_1_nodes_exit_4_with_that_line_first(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes":[{"id":0,"order":1},{"id":1,"order":1},{"id":2,"order":2}],'
                        '"covers":[[0,2]]}')
        code, _, err = run(capsys, "reconstruct", "--direction", "pow-from-lattice",
                           "--from", str(path))
        assert code == 4
        assert err.splitlines()[0].startswith("error: expected one node of order 1, found [")

    def test_no_nodes_exits_4(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"nodes":[],"covers":[]}')
        code, _, err = run(capsys, "reconstruct", "--direction", "pow-from-lattice",
                           "--from", str(path))
        assert code == 4
        assert err == "error: lattice has no nodes\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "reconstruct", "--direction", "lattice-from-epow",
                         "--from", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "reconstruct", "--direction", "lattice-from-epow",
                         "--from", str(path))
        assert code == 2

    @pytest.mark.parametrize("direction, text", [
        ("epow-from-lattice", '{"covers": []}'),
        ("epow-from-lattice", '{"nodes": [{"id": 0}], "covers": []}'),
        ("epow-from-lattice", '[{"id": 0, "order": 1}]'),
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1e400}], "covers": []}'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": 2}'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": 2.5, "edges": []}'),
        ("lattice-from-epow", '[[0, 1]]'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": 2, "edges": [[0, null]]}'),
        # JSON values are taken as they are, never coerced to integers
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 2.9}],'
                              ' "covers": [[0, 1]]}'),
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": "2"}],'
                              ' "covers": [[0, 1]]}'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": 2, "edges": [[0, 1.7]]}'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": 2, "edges": [[0, true]]}'),
        ("lattice-from-epow", '{"kind": "simple", "vertices": -3, "edges": []}'),
    ])
    def test_malformed_schema_exits_2(self, capsys, tmp_path, direction, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "reconstruct", "--direction", direction,
                           "--from", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("direction", ["lattice-from-epow", "epow-from-lattice"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, direction):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run(capsys, "reconstruct", "--direction", direction,
                           "--from", str(path))
        assert code == 2
        assert "nested too deeply" in err

    # three ids have nine ordered pairs: a tenth repeats one
    THREE_VERTICES = {"kind": "simple", "vertices": 3}
    THREE_NODES = {"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 2},
                             {"id": 2, "order": 4}]}

    @pytest.mark.parametrize("direction, payload, kind", [
        ("lattice-from-epow", {**THREE_VERTICES, "edges": [[0, 1]] * 10}, "graph"),
        ("pow-from-lattice", {**THREE_NODES, "covers": [[0, 1]] * 10}, "lattice"),
    ])
    def test_more_than_n_squared_pairs_exits_2(self, capsys, tmp_path, direction, payload,
                                               kind):
        path = tmp_path / "repeats.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "reconstruct", "--direction", direction,
                             "--from", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: malformed {kind} JSON "
                       "(ValueError('10 pairs, more than the 9 pairs of 3 ids'))\n")

    @pytest.mark.parametrize("direction, payload, err", [
        ("lattice-from-epow", {**THREE_VERTICES, "edges": [[0, 1]] * 9},
         "error: maximal cliques 0 and 1 are disjoint, but every enhanced power graph"
         " has a universal identity vertex\n"),
        ("pow-from-lattice", {**THREE_NODES, "covers": [[0, 1]] * 9},
         "error: down-set of node 2 (order 4) has orders [4], expected the divisors"
         " [1, 2, 4]\n"),
    ])
    def test_exactly_n_squared_pairs_are_read(self, capsys, tmp_path, direction, payload,
                                              err):
        path = tmp_path / "repeats.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "reconstruct", "--direction", direction,
                   "--from", str(path)) == (4, "", err)

    def test_too_many_cliques_exits_4(self, capsys, tmp_path):
        # the cocktail-party graph on 60 vertices has 2^30 maximal cliques,
        # none of them a closed neighbourhood
        edges = [[u, v] for u in range(60) for v in range(u + 1, 60) if v != u ^ 1]
        path = tmp_path / "party.json"
        path.write_text(json.dumps({"kind": "simple", "vertices": 60, "edges": edges}))
        code, _, err = run(capsys, "reconstruct", "--direction", "lattice-from-epow",
                           "--from", str(path))
        assert code == 4
        assert "no closed neighbourhood is a clique" in err

    @pytest.mark.parametrize("direction, text", [
        ("lattice-from-epow", '{"kind": "simple", "vertices": 100000000000, "edges": []}'),
        ("epow-from-lattice", json.dumps(
            {"nodes": [{"id": v, "order": 1 + (v > 0)} for v in range(513)],
             "covers": [[0, v] for v in range(1, 513)]})),
        # valid shape, but atoms of order 509 give 1 + 2 * 508 vertices
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 509},'
                              ' {"id": 2, "order": 509}], "covers": [[0, 1], [0, 2]]}'),
        # a prime order 2^61 - 1: refused before any trial division
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1},'
                              ' {"id": 1, "order": 2305843009213693951}], "covers": [[0, 1]]}'),
        # over the cap is refused before a pair is read, malformed or not
        ("lattice-from-epow", '{"kind": "simple", "vertices": 513, "edges": [["a", 0]]}'),
        ("epow-from-lattice", '{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 1024}],'
                              ' "covers": [["a", 0]]}'),
    ])
    def test_oversized_input_exits_3(self, capsys, tmp_path, direction, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        code, _, err = run(capsys, "reconstruct", "--direction", direction,
                           "--from", str(path))
        assert code == 3
        assert "exceeds the cap of 512" in err

    def test_max_order_flag_admits_larger_lattice(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text('{"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 509},'
                        ' {"id": 2, "order": 509}], "covers": [[0, 1], [0, 2]]}')
        code, out, _ = run(capsys, "reconstruct", "--direction", "epow-from-lattice",
                           "--from", str(path), "--max-order", "1017")
        assert code == 0
        assert out == f"vertices=1017 edges={2 * 509 * 508 // 2}\n"

    def test_dirpow_from_lattice(self, capsys, tmp_path):
        _, lattice_json, _ = run(capsys, "lattice", "--group", "Z(4)",
                                 "--format", "json")
        path = tmp_path / "lat.json"
        path.write_text(lattice_json)
        code, out, _ = run(capsys, "reconstruct", "--direction", "dirpow-from-lattice",
                           "--from", str(path))
        assert out == "vertices=4 arcs=7\n"

    def test_diff_from_lattice(self, capsys, tmp_path):
        _, lattice_json, _ = run(capsys, "lattice", "--group", "Z(6)",
                                 "--format", "json")
        path = tmp_path / "lat.json"
        path.write_text(lattice_json)
        code, out, _ = run(capsys, "reconstruct", "--direction", "diff-from-lattice",
                           "--from", str(path))
        assert out == "vertices=3 edges=2\n"


class TestRoundtripCommand:
    CHECKS = ("lattice-from-epow", "epow-from-lattice", "pow-from-lattice",
              "dirpow-from-lattice", "diff-from-lattice")

    @pytest.mark.parametrize("expr", ["Z(2)xZ(6)", "S(4)", "Q(16)"])
    def test_five_of_five_pass(self, capsys, expr):
        code, out, _ = run(capsys, "roundtrip", "--group", expr)
        assert code == 0
        assert out.count("PASS") == 6  # five lines plus the summary
        assert "FAIL" not in out
        assert out.strip().endswith("5/5 PASS")

    @pytest.mark.parametrize("expr", LADDER)
    def test_the_ladder_passes_with_no_search(self, capsys, monkeypatch, expr):
        # a search put back into roundtrip, with or without a candidate
        # map, would be counted here
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        for name in ("_quotient_search", "_search"):
            monkeypatch.setattr(iso, name, counted(name, getattr(iso, name)))
        code, out, err = run(capsys, "roundtrip", "--group", expr)
        assert (code, out.splitlines()[-1], err) == (0, "5/5 PASS", "")
        assert calls == {}

    @pytest.mark.parametrize("expr", CORPUS + LADDER)
    def test_a_pass_of_line_1_is_a_lattice_isomorphism(self, capsys, monkeypatch, expr):
        # the labelled-lattice search is the reference: line 1 passes and the
        # search maps the rebuilt lattice onto the group's, and with its
        # lowest or its highest cover removed line 1 fails and the search
        # finds nothing
        rebuild, L = cli.lattice_from_epow, build_lattice(group_of(expr)).lattice
        covers = rebuild(epow_oracle(group_of(expr))).lattice.covers
        for cut in [None, *sorted(covers)[:: max(len(covers) - 1, 1)]]:
            seen = []

            def rebuilt(g):
                r = rebuild(g)
                seen.append(replace(r.lattice, covers=r.lattice.covers - {cut}))
                return replace(r, lattice=seen[-1])

            monkeypatch.setattr(cli, "lattice_from_epow", rebuilt)
            _, out, _ = run(capsys, "roundtrip", "--group", expr)
            found = labeled_lattice_isomorphism(seen[0], L).found
            assert (out.splitlines()[0] == "PASS lattice-from-epow") == found == (cut is None)

    def test_the_lattice_verdict_is_taken_on_the_names(self, capsys, monkeypatch):
        # in Z(2)xZ(6) each order-2 node lies below its own order-6 node, so
        # two of them with their names swapped name a map that keeps orders
        # but not covers, although the rebuilt lattice is the same
        rebuild = cli.lattice_from_epow

        def swapped(g):
            rebuilt = rebuild(g)
            u, v = [w for w, d in enumerate(rebuilt.lattice.orders) if d == 2][:2]
            names = list(rebuilt.clique_of)
            names[u], names[v] = names[v], names[u]
            assert names[u] != names[v]
            return replace(rebuilt, clique_of=tuple(names))

        monkeypatch.setattr(cli, "lattice_from_epow", swapped)
        code, out, _ = run(capsys, "roundtrip", "--group", "Z(2)xZ(6)")
        assert code == 1
        assert out.splitlines() == ["FAIL lattice-from-epow"] + [
            f"PASS {name}" for name in self.CHECKS[1:]
        ] + ["4/5 PASS"]

    def test_each_derivation_runs_once(self, capsys, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        def patch_property(cls, name, f):
            prop = cached_property(f)
            prop.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, prop)

        walk = group_core.generated_subgroup
        monkeypatch.setattr(group_core, "generated_subgroup", counted("walk", walk))
        monkeypatch.setattr(cli, "oracle_labeling", counted("labeling", cli.oracle_labeling))
        # roundtrip runs no isomorphism search, of lattices or of anything
        monkeypatch.setattr(iso, "_search", counted("search", iso._search))
        monkeypatch.setattr(cli, "labeled_lattice_isomorphism",
                            counted("lattice search", cli.labeled_lattice_isomorphism))
        for name in ("_kahn_pass", "violations", "vertex_labels"):
            patch_property(CyclicLattice, name,
                           counted(f"CyclicLattice.{name}", getattr(CyclicLattice, name).func))
        gather = CyclicLattice.power_graphs.func
        held = []  # the PowerGraphs of each lattice

        def holding(L):
            held.append(gather(L))
            return held[-1]

        patch_property(CyclicLattice, "power_graphs", counted("CyclicLattice.power_graphs", holding))
        built = []  # (PowerGraphs, kind) of each graph built

        def building(kind, f):
            def wrapper(self):
                built.append((self, kind))
                return f(self)

            return wrapper

        for kind in ("epow", "pow", "dirpow", "diff"):
            patch_property(PowerGraphs, kind, building(kind, getattr(PowerGraphs, kind).func))
        monkeypatch.setattr(
            reconstruct, "_same_under_labels", counted("label match", reconstruct._same_under_labels)
        )
        code, out, _ = run(capsys, "roundtrip", "--group", "S(4)")
        assert (code, out.strip()[-8:]) == (0, "5/5 PASS")
        # one walk per cyclic subgroup (S(4) has 17); one pass and one check
        # per lattice: the group's own and the one rebuilt from its enhanced
        # power graph; one label layout and one gather of M, on the group's
        # lattice; one labelling of the elements, for the lattice check and
        # the graph checks alike; one label match, of the two directed power
        # graphs, for all four graph checks; and no search
        assert calls == {
            "walk": 17, "CyclicLattice._kahn_pass": 2, "CyclicLattice.violations": 2,
            "CyclicLattice.vertex_labels": 1, "CyclicLattice.power_graphs": 1,
            "labeling": 1, "label match": 1,
        }
        # the oracle's enhanced power graph, for lattice_from_epow, and one
        # directed power graph per side: the lattice builds no other graph
        assert Counter(kind for _, kind in built) == {"epow": 1, "dirpow": 2}
        assert [kind for pg, kind in built if pg is held[0]] == ["dirpow"]

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 64.0 MiB"),
         "error: out of memory: Unable to allocate 64.0 MiB"),
        (MemoryError(), "error: out of memory"),
    ])
    def test_out_of_memory_exits_3_in_one_line(self, capsys, monkeypatch, exc, line):
        # exit 1 would mean a verification failed
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(cli, "build_lattice", exhausted)
        code, out, err = run(capsys, "roundtrip", "--group", "Z(4)")
        assert (code, out, err) == (3, "", line + "\n")

    @pytest.mark.parametrize("corruption, failed", [
        ("covers", CHECKS[:1]),
        # one match of the directed power graphs decides the four graph checks
        ("dirpow-arc", CHECKS[1:]),
        # the oracle labels also name the nodes of the group's lattice for
        # the lattice check
        ("oracle-labels", CHECKS),
    ])
    def test_a_corruption_fails_the_checks_it_decides(self, capsys, monkeypatch, corruption,
                                                      failed):
        if corruption == "covers":
            rebuild = cli.lattice_from_epow

            def corrupted(g):
                rebuilt = rebuild(g)
                L = rebuilt.lattice
                return replace(rebuilt, lattice=replace(L, covers=L.covers - {min(L.covers)}))

            monkeypatch.setattr(cli, "lattice_from_epow", corrupted)
        elif corruption == "dirpow-arc":
            build = cli.dirpow_from_lattice
            monkeypatch.setattr(cli, "dirpow_from_lattice", lambda L: _one_edge_flipped(build(L)))
        else:
            labeling = cli.oracle_labeling

            def swapped(G, LS):
                # the labels of vertex 0 and of the first vertex of another node
                labels = list(labeling(G, LS))
                j = next(j for j, v in enumerate(labels) if v != labels[0])
                labels[0], labels[j] = labels[j], labels[0]
                return tuple(labels)

            monkeypatch.setattr(cli, "oracle_labeling", swapped)
        code, out, _ = run(capsys, "roundtrip", "--group", "Z(2)xZ(6)")
        assert code == 1
        assert out.splitlines() == [
            f"{'FAIL' if name in failed else 'PASS'} {name}" for name in self.CHECKS
        ] + [f"{5 - len(failed)}/5 PASS"]


def _one_edge_flipped(built):
    """``built``, a labelled graph or digraph, with the edge or arc between
    its vertices 0 and 1 flipped."""
    g = built.graph
    adj = g.adj.copy()
    adj[0, 1] = not adj[0, 1]
    if isinstance(g, SimpleGraph):
        adj[1, 0] = adj[0, 1]
    return replace(built, graph=type(g)(adj))


class TestCompareCommand:
    def test_lookalike_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "--group-a", "Heis(3)",
                           "--group-b", "Z(3)xZ(3)xZ(3)")
        assert code == 0
        assert "lattice_iso=true" in out
        assert "dirpow_iso=true" in out
        assert "epow_iso=true" in out
        assert "pow_iso=true" in out
        assert "groups differ: abelianness" in out

    def test_different_groups(self, capsys):
        _, out, _ = run(capsys, "compare", "--group-a", "Z(4)",
                        "--group-b", "Z(2)xZ(2)")
        assert "lattice_iso=false" in out
        assert "pow_iso=false" in out

    def test_same_expression(self, capsys):
        _, out, _ = run(capsys, "compare", "--group-a", "S(4)", "--group-b", "S(4)")
        assert out.count("=true") >= 4

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_non_positive_budget_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "compare", "--group-a", "Heis(3)",
                             "--group-b", "Z(3)xZ(3)xZ(3)", "--budget", value)
        assert code == 2
        assert out == ""
        assert f"argument --budget: expected a positive integer, got '{value}'" in err
        assert "exhausted" not in err

    def test_budget_exhausted_exits_3_with_progress(self, capsys):
        code, _, err = run(capsys, "compare", "--group-a", "Heis(3)",
                           "--group-b", "Z(3)xZ(3)xZ(3)", "--budget", "1")
        assert code == 3
        assert "expansions=1" in err
        assert "depth=1" in err

    def test_verified_lifts_spend_no_budget(self, capsys):
        # the lattice search maps Z(3)^5's twin quotient in two expansions;
        # the lifted element map then verifies on each graph with no search
        z3_5 = "x".join(["Z(3)"] * 5)
        code, out, _ = run(capsys, "compare", "--group-a", z3_5, "--group-b", z3_5,
                           "--budget", "2")
        assert code == 0
        assert out.splitlines()[:4] == [
            "lattice_iso=true", "dirpow_iso=true", "epow_iso=true", "pow_iso=true"
        ]


class TestCensusCommand:
    def test_order16_power_graphs(self, capsys):
        code, out, _ = run(capsys, "census", "--catalog", "order16", "--kind", "pow")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "catalog=order16 kind=pow groups=14 classes=12"
        assert "Z8xZ2 M(2,4)" in out
        assert "Z4xZ2xZ2 D8oZ4" in out

    def test_class_counts_by_kind(self, capsys):
        # every power-type census of the 14 groups splits into 12 classes;
        # the difference census collapses to 1 because 2-groups have chain
        # subgroup lattices inside every cyclic subgroup, so D(G) is empty
        expected = {"pow": 12, "epow": 12, "dirpow": 12, "lattice": 12, "diff": 1}
        for kind, count in expected.items():
            _, out, _ = run(capsys, "census", "--catalog", "order16", "--kind", kind)
            assert f"classes={count}" in out.splitlines()[0]

    def test_lattice_census_matches_epow_census(self, capsys):
        _, out_lat, _ = run(capsys, "census", "--catalog", "order16", "--kind", "lattice")
        _, out_epow, _ = run(capsys, "census", "--catalog", "order16", "--kind", "epow")
        classes_lat = sorted(line.split(": ")[1] for line in out_lat.splitlines()[1:])
        classes_epow = sorted(line.split(": ")[1] for line in out_epow.splitlines()[1:])
        assert classes_lat == classes_epow

    def test_unknown_catalog_exits_2(self, capsys):
        code, _, err = run(capsys, "census", "--catalog", "order99")
        assert code == 2
        assert "unknown catalog" in err

    def test_max_order_below_the_catalog_exits_3(self, capsys):
        code, out, err = run(capsys, "census", "--catalog", "order16", "--max-order", "8")
        assert (code, out, err) == (3, "", "error: group order 16 exceeds the cap of 8\n")

    def test_bad_env_var_cap_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LATGRAPH_MAX_ORDER", "abc")
        code, out, err = run(capsys, "census", "--catalog", "order16")
        assert (code, out) == (2, "")
        assert "LATGRAPH_MAX_ORDER: expected a positive integer, got 'abc'" in err


# one valid command line per command
ARGV = {
    "graph": ("graph", "--group", "Z(4)", "--kind", "epow"),
    "lattice": ("lattice", "--group", "Z(4)"),
    "reconstruct": ("reconstruct", "--direction", "pow-from-lattice", "--from", "L.json"),
    "roundtrip": ("roundtrip", "--group", "Z(4)"),
    "compare": ("compare", "--group-a", "Z(4)", "--group-b", "Z(2)xZ(2)"),
    "census": ("census", "--catalog", "order16", "--kind", "lattice"),
}
SEARCHING = ("compare", "census")


class TestOptions:
    """Every command takes ``--max-order``; only ``compare`` and ``census``,
    the two that search, take ``--budget``, and no command takes
    ``--seed``."""

    @pytest.mark.parametrize("command, option", [
        *((command, "--seed") for command in ARGV),
        *((command, "--budget") for command in ARGV if command not in SEARCHING),
    ])
    def test_an_option_the_command_does_not_use_is_refused(self, capsys, command, option):
        code, out, err = run(capsys, *ARGV[command], option, "1")
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: {option} 1\n" in err

    @pytest.mark.parametrize("command", SEARCHING)
    def test_the_searching_commands_take_a_budget(self, capsys, command):
        argv = ARGV[command]
        budgeted = run(capsys, *argv, "--budget", str(iso.DEFAULT_BUDGET))
        assert budgeted[0] == 0
        assert budgeted == run(capsys, *argv)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "--group", "Z(2)xZ(6)", "--kind", "epow", "--format", "json"),
            ("graph", "--group", "S(4)", "--kind", "dirpow", "--format", "dot"),
            ("lattice", "--group", "S(4)", "--format", "json"),
            ("census", "--catalog", "order16", "--kind", "pow"),
        ],
    )
    def test_identical_runs_produce_identical_bytes(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestRepeatedCalls:
    def test_no_parser_is_left_for_the_cyclic_collector(self, capsys):
        # a parser is a web of reference cycles; building one per call left
        # each to the cyclic collector, and resident memory crept upward
        def parsers() -> int:
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        argv = ("graph", "--group", "Z(6)", "--kind", "epow")
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            before = parsers()
            for _ in range(10):
                assert run(capsys, *argv)[0] == 0
            after = parsers()
        finally:
            gc.enable()
        assert after == before


class TestCapsThatCannotHang:
    """Constructor parameters are checked without hanging: primality is
    Miller-Rabin, not trial division, and a power's exponent is compared
    with the cap before the power is formed.  Each expression runs in a
    child process, so a hang fails the test at the timeout instead of
    stalling the suite; the bound includes interpreter start-up."""

    @pytest.mark.parametrize(
        "expr,code",
        [
            ("Heis(1000000000000000003)", 3),
            ("M(1000000000000000003,3)", 3),
            ("M(2,1000000000000)", 3),
            ("Heis(1000000016000000063)", 2),  # (10^9+7)(10^9+9)
            ("M(2,3000000)", 3),
        ],
    )
    def test_refused_quickly(self, expr, code):
        env = dict(os.environ, PYTHONPATH=str(Path(latgraph.__file__).parents[1]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "latgraph.cli", "graph", "--group", expr, "--kind", "epow"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert time.perf_counter() - start < 5
        assert done.returncode == code, done.stderr
        assert done.stdout == "" and len(done.stderr) < 200
        if code == 3:
            assert "exceeds the cap of 512" in done.stderr
        else:
            assert "needs an odd prime" in done.stderr

    @pytest.mark.parametrize(
        "expr,order",
        [
            ("Z(2000)", "2000"),
            ("Heis(101)", "1030301"),
            ("M(2,30)", "1073741824"),
            ("M(2,3000000)", "2^3000000"),
        ],
    )
    def test_messages(self, capsys, expr, order):
        code, _, err = run(capsys, "graph", "--group", expr, "--kind", "epow")
        assert code == 3
        assert err == f"error: group order {order} exceeds the cap of 512\n"


class TestLongInputsAreQuotedShortened:
    """A refusal that quotes its input quotes a long one by its two ends, so
    its stderr stays under 300 bytes, or 1000 with argparse's usage lines."""

    LONG = "a" * 5000

    @pytest.mark.parametrize("argv, bound", [
        (("graph", "--group", f"Q{LONG}(4)", "--kind", "epow"), 300),  # unknown constructor
        (("census", "--catalog", LONG), 300),
        (("graph", "--group", "Z(4)", "--kind", LONG), 1000),  # argparse invalid choice
        (("graph", "--from", LONG, "--kind", "epow"), 300),  # file name too long
    ])
    def test_refused_in_few_bytes(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < bound
        assert "a" * 100 + "..." + "a" * 100 in err

    def test_a_message_under_the_bound_is_unchanged(self):
        assert cli._shortened("x" * 298) == "x" * 298
        assert cli._shortened("x" * 299) == "x" * 147 + "..." + "x" * 147

    def test_the_bound_counts_bytes(self):
        # "é" is two bytes in UTF-8: a cut inside one drops it
        assert cli._shortened("é" * 149) == "é" * 149
        assert cli._shortened("é" * 150) == "é" * 73 + "..." + "é" * 73
