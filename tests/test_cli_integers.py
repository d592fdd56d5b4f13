"""Integers on the command line that Python cannot convert, in an
expression or an option: each is a usage error (exit 2) whose message
stays short and does not echo the digits.  Then integers that Python
converts but that are too long to echo, an order or a lattice or graph
JSON value: each refusal quotes them shortened to 40 characters."""

import json

import pytest

from latgraph.cli import main

DIGITS = "9" * 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("expr", ["Z(" + DIGITS + ")", "Z(²)"], ids=["5000 digits", "superscript"])
def test_expression_names_the_position(capsys, expr):
    code, out, err = run(capsys, "graph", "--group", expr, "--kind", "epow")
    assert code == 2 and out == ""
    assert err == "error: syntax error at position 2: expected an integer\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("option", ["--max-order", "--budget"])
def test_option_is_quoted_shortened(capsys, option):
    code, out, err = run(capsys, "census", "--catalog", "order16", option, DIGITS)
    assert code == 2 and out == ""
    assert f"argument {option}: expected a positive integer, got '9" in err
    assert len(err.encode()) < 1000 and "9" * 100 not in err


def test_a_value_of_28_characters_is_quoted_whole(capsys):
    value = "-" + "9" * 27
    code, _, err = run(capsys, "census", "--catalog", "order16", "--budget", value)
    assert code == 2
    assert f"argument --budget: expected a positive integer, got '{value}'" in err


def short(digits: str) -> str:
    """An integer's digits as a refusal quotes them: 18, "...", then 19."""
    return digits[:18] + "..." + digits[-19:]


LONG = "9" * 4000
PAIR = [[0, 1]]


def test_an_order_over_the_cap_is_quoted_shortened(capsys):
    code, out, err = run(capsys, "graph", "--group", "M(2,10000)", "--kind", "epow")
    assert code == 3 and out == ""
    assert err == f"error: group order {short(str(2**10000))} exceeds the cap of 512\n"


@pytest.mark.parametrize(
    "order,covers,code,message",
    [
        (int(LONG), PAIR, 3, f"group order {short(LONG)} exceeds the cap of 512"),
        (2, [[0, int(LONG)]], 4, f"cover (0,{short(LONG)}) references unknown nodes"),
        (-int(LONG), PAIR, 4, f"node 1 has non-positive order -{short(LONG)[1:]}"),
    ],
    ids=["order", "cover end", "negative order"],
)
def test_a_lattice_json_integer_is_quoted_shortened(
    capsys, tmp_path, order, covers, code, message
):
    path = tmp_path / "lattice.json"
    nodes = [{"id": 0, "order": 1}, {"id": 1, "order": order}]
    path.write_text(json.dumps({"nodes": nodes, "covers": covers}))
    direction = ("--direction", "pow-from-lattice")
    got, out, err = run(capsys, "reconstruct", *direction, "--from", str(path))
    assert got == code and out == ""
    assert err == f"error: {message}\n"


def test_a_graph_json_edge_end_is_quoted_shortened(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "simple", "vertices": 2, "edges": [[0, int(LONG)]]}))
    direction = ("--direction", "lattice-from-epow")
    code, out, err = run(capsys, "reconstruct", *direction, "--from", str(path))
    assert code == 2 and out == ""
    assert err == f"error: edge (0,{short(LONG)}) out of range\n"
