"""Integers on the command line that Python cannot convert, in an
expression, an option or ``LATGRAPH_MAX_ORDER``: each is a usage error
(exit 2) whose message stays short and does not echo the digits."""

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
    code, out, err = run(capsys, "graph", "--group", "Z(4)", "--kind", "epow", option, DIGITS)
    assert code == 2 and out == ""
    assert f"argument {option}: expected a positive integer, got '9" in err
    assert len(err.encode()) < 1000 and "9" * 100 not in err


def test_env_var_is_quoted_shortened(capsys, monkeypatch):
    monkeypatch.setenv("LATGRAPH_MAX_ORDER", DIGITS)
    code, out, err = run(capsys, "graph", "--group", "Z(4)", "--kind", "epow")
    assert code == 2 and out == ""
    assert err.startswith("error: LATGRAPH_MAX_ORDER: expected a positive integer, got '9")
    assert len(err.encode()) < 1000 and "9" * 100 not in err


def test_a_value_of_28_characters_is_quoted_whole(capsys):
    value = "-" + "9" * 27
    code, _, err = run(capsys, "graph", "--group", "Z(4)", "--kind", "epow", "--budget", value)
    assert code == 2
    assert f"argument --budget: expected a positive integer, got '{value}'" in err
