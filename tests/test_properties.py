"""Property tests: every oracle, isomorphism and reconstruction is invariant
under a relabelling of the group's elements, and the rebuild of a lattice
from a graph under a relabelling of the graph's vertices, refusals included.
Any ``--group`` text, however malformed, ends in a documented exit code."""

import contextlib
import functools
import io
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latgraph.catalog import GroupExprError, format_group_expr, parse_group_expr  # noqa: E402
from latgraph.cli import main  # noqa: E402
from latgraph.group_core import validate_group  # noqa: E402
from latgraph.iso import graph_isomorphism, labeled_lattice_isomorphism  # noqa: E402
from latgraph.lattice import build_lattice  # noqa: E402
from latgraph.power_graphs import (  # noqa: E402
    SimpleGraph,
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    pow_oracle,
)
from latgraph.reconstruct import NotAnEnhancedPowerGraph, lattice_from_epow  # noqa: E402

from conftest import CORPUS, group_of, random_cliques_over_a_core, toggled  # noqa: E402

FACTORS = ("Z(2)", "Z(3)", "Z(4)", "S(3)", "D(8)", "Q(8)")
CAP = 96
order_of = functools.cache(lambda expr: group_of(expr).order)

# corpus groups up to order CAP, and direct products of two or three small
# factors within it
groups = st.one_of(
    st.sampled_from(CORPUS),
    st.lists(st.sampled_from(FACTORS), min_size=2, max_size=3).map("x".join),
).filter(lambda expr: order_of(expr) <= CAP)


def relabelled(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table after renaming element x to perm[x]."""
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def full_diff(G) -> np.ndarray:
    """The difference graph on all of G's elements, isolated ones included."""
    diff = diff_oracle(G)
    adj = np.zeros((G.order, G.order), dtype=bool)
    adj[np.ix_(diff.retained, diff.retained)] = diff.graph.adj
    return adj


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(expr=groups, seed=st.integers(0, 2**32 - 1))
def test_relabelling_changes_nothing(expr, seed):
    G = group_of(expr)
    perm = np.random.default_rng(seed).permutation(G.order)
    table = relabelled(np.asarray(G.table), perm)
    H = validate_group(table)

    # each oracle's matrix is the original one permuted
    grid = np.ix_(perm, perm)
    for oracle in (epow_oracle, pow_oracle, dirpow_oracle):
        assert np.array_equal(oracle(H).adj[grid], oracle(G).adj), oracle.__name__
    assert np.array_equal(full_diff(H)[grid], full_diff(G))

    # the search returns a bijection that carries edges onto edges
    g, h = epow_oracle(G), epow_oracle(H)
    result = graph_isomorphism(g, h)
    assert result.found
    m = list(result.mapping)
    assert sorted(m) == list(range(G.order))
    assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    # the lattice rebuilt from the relabelled graph is the group's lattice
    rebuilt = lattice_from_epow(h).lattice
    assert labeled_lattice_isomorphism(rebuilt, build_lattice(G).lattice).found

    # every reconstruction still matches the relabelled group's oracles
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        np.savetxt(path, table, fmt="%d", delimiter=",")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["roundtrip", "--group", f"cayley:{path}"])
    assert code == 0
    assert out.getvalue().splitlines()[-1] == "5/5 PASS"


epow_of = functools.cache(lambda expr: epow_oracle(group_of(expr)))


def rebuilt_or_none(g: SimpleGraph):
    try:
        return lattice_from_epow(g).lattice
    except NotAnEnhancedPowerGraph:
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    mutant_of=st.sampled_from((None, "Z(2)xZ(6)", "Q(16)", "D(24)", "S(4)")),
    seed=st.integers(0, 2**32 - 1),
)
def test_relabelling_keeps_the_outcome(mutant_of, seed):
    # a union of random cliques over a core, or a single-edge mutant of a
    # group's enhanced power graph: most are refused, some rebuilt
    rng = random.Random(seed)
    if mutant_of is None:
        g = random_cliques_over_a_core(rng)
    else:
        epow = epow_of(mutant_of)
        g = toggled(epow, *rng.sample(range(epow.vertex_count), 2))
    perm = np.random.default_rng(seed).permutation(g.vertex_count)
    adj = np.empty_like(g.adj)
    adj[np.ix_(perm, perm)] = g.adj
    L, M = rebuilt_or_none(g), rebuilt_or_none(SimpleGraph(adj))
    assert (L is None) == (M is None)
    assert L is None or labeled_lattice_isomorphism(L, M).found


# grammar fragments and noise for --group texts: every constructor name, a
# path prefix, digits Python reads ('٣') and refuses ('²'), brackets,
# commas, whitespace, NUL and a leading '-'
NAMES = ("Z", "D", "Q", "SD", "M", "S", "A", "Heis", "G16")
NOISE = ("cayley:", "x", "(", ")", ",", "-", " ", "\t", "\0", "²", "٣", *"0123456789")
integers = st.lists(st.integers(0, 99).map(str), min_size=1, max_size=3).map(",".join)
terms = st.one_of(
    st.builds("{}({})".format, st.sampled_from(NAMES), integers),
    st.sampled_from(NAMES + NOISE).map("cayley:{}".format),
)
# products of terms, each followed by a blank or none, and runs of terms,
# names and noise
group_texts = st.one_of(
    st.lists(st.tuples(terms, st.sampled_from(("", " ", "\t"))).map("".join),
             min_size=1, max_size=4).map("x".join),
    st.lists(st.one_of(terms, st.sampled_from(NAMES + NOISE)), max_size=10).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=group_texts)
def test_any_group_text_ends_in_a_documented_exit(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the '=' form keeps a leading '-' from being read as an option
        code = main(["lattice", "--group=" + text, "--max-order", "64"])
    assert code in (0, 2, 3, 4)
    message = err.getvalue()
    assert message.count("\n") == (code != 0) and message.endswith("\n") == (code != 0)
    assert len(message.encode()) < 300 and "Traceback" not in message
    try:
        expr = parse_group_expr(text)
    except GroupExprError:
        return
    assert parse_group_expr(format_group_expr(expr)) == expr
