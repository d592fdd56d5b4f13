"""Property tests: every oracle, isomorphism and reconstruction is invariant
under a relabelling of the group's elements."""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latgraph.cli import main  # noqa: E402
from latgraph.group_core import validate_group  # noqa: E402
from latgraph.iso import graph_isomorphism, labeled_lattice_isomorphism  # noqa: E402
from latgraph.lattice import build_lattice  # noqa: E402
from latgraph.power_graphs import (  # noqa: E402
    diff_oracle,
    dirpow_oracle,
    epow_oracle,
    pow_oracle,
)
from latgraph.reconstruct import lattice_from_epow  # noqa: E402

from conftest import CORPUS, group_of  # noqa: E402

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
