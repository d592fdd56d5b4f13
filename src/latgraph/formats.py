"""Every file format latgraph reads or writes; the math modules touch no file.

Read:

* **Cayley CSV**, the table a ``cayley:`` term or ``--from FILE`` names:
  :func:`cayley_csv_data`, refusing a bad cell with :class:`CayleyParseError`.
* **Graph JSON** and **lattice JSON**, the inputs of ``reconstruct``:
  :func:`graph_from_json` and :func:`lattice_from_json`.  Both go through
  one parse step, which names a payload too deep to parse or with a
  missing or mistyped field as malformed, and both apply the order cap
  before any pair is read.

Written, each ending in a newline by :func:`render`, the one call the
command line prints through:

* ``json``: :func:`graph_to_json` and :func:`lattice_to_json`, which the
  readers invert;
* ``dot``: :func:`graph_to_dot`; a lattice's DOT is that of its cover
  digraph, each node labelled by its order, drawn bottom to top;
* ``summary``: the vertex and edge or arc counts of a graph, the node and
  cover counts of a lattice.

A rebuilt graph names its vertices with :func:`label_strings`,
``n<node>:g<k>``.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from .group_core import DEFAULT_ORDER_CAP, TooLarge
from .lattice import CyclicLattice, InvalidLattice, totient, validate_lattice
from .power_graphs import Digraph, SimpleGraph


# ---------------------------------------------------------------------------
# Cayley CSV


class CayleyParseError(ValueError):
    def __init__(self, row: int, col: int, message: str):
        self.row, self.col = row, col
        super().__init__(f"row {row}, column {col}: {message}")


# the bytes of a plain table: ASCII digits and the separators
_PLAIN_BYTES = b"0123456789 \t,\r\n"
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")
# a plain row longer than _ROW_SLACK * n * (digits(n) + 1) bytes, several
# times any row of n entries below n with short separators, is left to the
# cell loop, which stops splitting a row after its (n + 1)-th cell
_ROW_SLACK = 4


def cayley_csv_data(path: str, order_cap: int) -> tuple[np.ndarray, list[str]]:
    """An n x n Cayley table, comma or whitespace separated, as ``cayley:``
    names it, and its element names ``"0"`` to ``"n-1"``.

    The file is read once.  Blank lines are skipped.  More than
    ``order_cap`` rows raise :class:`TooLarge` before any cell is parsed.  A
    plain file, only ASCII digits, spaces, tabs, commas and line ends with
    no overlong row, is converted by one ``np.loadtxt`` call over its rows.
    Any other file, decoded as strict UTF-8 in every locale, or a plain one
    that does not read as n rows of n int64 entries, goes through the cell
    loop, which converts each cell with ``int``: the accepted
    syntax is Python's either way.  A row of the wrong length or a cell that
    is not an int64 integer raises :class:`CayleyParseError` with its row
    and column.  The table is int64 here; the group's, after validation, is
    read-only ``uint16`` up to order 65536.
    """
    data = Path(path).read_bytes()
    plain = not data.translate(None, _PLAIN_BYTES)
    if not plain:
        data = data.decode()
    # "\r\n" and "\r" end a line either way, and a row of separators alone
    # is a row
    rows = [line for line in data.splitlines() if line.strip()]
    del data  # freed before the table exists
    n = len(rows)
    if n > order_cap:  # before the n x n allocation and any parsing
        raise TooLarge(n, order_cap)
    table = _plain_table(rows) if plain else None
    if table is None:
        table = _cell_table([row.decode() for row in rows] if plain else rows)
    return table, [str(i) for i in range(n)]


def _plain_table(rows: list[bytes]) -> np.ndarray | None:
    """The table of a plain file's rows by one native conversion, or None
    where the cell loop must read them."""
    n = len(rows)
    # every row must hold a digit: np.loadtxt skips a row of separators
    # alone, and warns of it under max_rows, with which it allocates the n
    # rows once instead of growing its result
    if not n or not all(row.strip(b" \t,") for row in rows):
        return None
    if max(map(len, rows)) > _ROW_SLACK * n * (len(str(n)) + 1):
        return None
    try:
        # a ragged row or a cell beyond int64 raises
        table = np.loadtxt(
            (row.translate(_COMMA_TO_SPACE) for row in rows),
            dtype=np.int64, comments=None, ndmin=2, max_rows=n,
        )
    except ValueError:
        return None
    # an entry outside [0, n) is left to the group's validation, as in the
    # cell loop
    return table if table.shape == (n, n) else None


def _cell_table(rows: list[str]) -> np.ndarray:
    """The table read cell by cell with ``int``, naming the first bad row and
    cell; an entry outside ``[0, n)`` is left to the group's validation."""
    n = len(rows)
    table = np.zeros((n, n), dtype=np.int64)
    for r, line in enumerate(rows):
        # at most n + 1 pieces: an overlong row is not split past its first extra cell
        cells = line.replace(",", " ").split(maxsplit=n)
        if len(cells) != n:
            found = f"more than {n}" if len(cells) > n else len(cells)
            raise CayleyParseError(r, min(len(cells), n), f"expected {n} entries, found {found}")
        try:
            table[r] = list(map(int, cells))
        except (ValueError, OverflowError):
            c, message = _first_bad_cell(cells)
            raise CayleyParseError(r, c, message) from None
    return table


def _first_bad_cell(cells: list[str]) -> tuple[int, str]:
    """Column and reason of the first cell that is not an int64 integer."""
    for c, cell in enumerate(cells):
        try:
            value = int(cell)
        except ValueError:
            return c, f"not an integer: {cell!r}"
        if not -(2**63) <= value < 2**63:
            return c, f"integer out of range: {cell!r}"
    raise AssertionError("no bad cell in a row that failed to parse")


# ---------------------------------------------------------------------------
# graph and lattice JSON


def json_int(value) -> int:
    """``value`` itself when it is a JSON integer, else TypeError: no bool,
    float or string is coerced."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_pairs(pairs, n: int) -> list[tuple[int, int]]:
    """``pairs`` as tuples of two JSON integers.  A list of more than n * n
    pairs holds a repeated pair or an end outside the n ids, so it raises
    ValueError before any pair is converted; any other JSON value fails on
    its first element."""
    if isinstance(pairs, list) and len(pairs) > n * n:
        raise ValueError(f"{len(pairs)} pairs, more than the {n * n} pairs of {n} ids")
    return [(json_int(u), json_int(v)) for u, v in pairs]


def _parse(text: str, what: str, fields: Callable[..., tuple]) -> tuple:
    """``fields`` of the JSON value in ``text``.  A value nested too deeply
    to parse, and a KeyError, TypeError or ValueError that ``fields``
    raises, become a ValueError naming the ``what`` JSON malformed; text
    that is not JSON raises ``json.loads``' own ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {what} JSON (nested too deeply)") from None
    try:
        return fields(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what} JSON ({exc!r})") from None


def graph_to_json(g: SimpleGraph | Digraph, labels: list[str] | None = None) -> str:
    """Canonical JSON: {"kind", "vertices", "edges"}; vertices is a count or labels."""
    if isinstance(g, SimpleGraph):
        kind, pairs = "simple", g.edges()
    else:
        kind, pairs = "directed", g.arcs()
    vertices: int | list[str] = g.vertex_count if labels is None else list(labels)
    payload = {"kind": kind, "vertices": vertices, "edges": sorted(map(list, pairs))}
    return json.dumps(payload)


def graph_from_json(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> SimpleGraph | Digraph:
    """Inverse of :func:`graph_to_json` (labels are dropped; ids are positional).

    A malformed payload raises ValueError: ``vertices`` is a label list or a
    non-negative JSON integer, ``edges`` at most n * n pairs, and every edge
    end a JSON integer.  More than ``order_cap`` vertices raise
    :class:`TooLarge` before any edge is read.
    """

    def fields(payload) -> tuple:
        vertices = payload["vertices"]
        n = len(vertices) if isinstance(vertices, list) else json_int(vertices)
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        edges = json_pairs(payload["edges"], n) if n <= order_cap else []
        return n, edges, payload.get("kind")

    n, edges, kind = _parse(text, "graph", fields)
    if n > order_cap:
        raise TooLarge(n, order_cap)
    if kind == "simple":
        return SimpleGraph.from_edges(n, edges)
    if kind == "directed":
        return Digraph.from_arcs(n, edges)
    raise ValueError(f"unknown graph kind {kind!r}")


def lattice_to_json(L: CyclicLattice) -> str:
    """Canonical JSON form (dense ids, sorted covers)."""
    payload = {
        "nodes": [{"id": v, "order": L.orders[v]} for v in L.nodes()],
        "covers": sorted([lo, hi] for (lo, hi) in L.covers),
    }
    return json.dumps(payload)


def lattice_from_json(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> CyclicLattice:
    """Parse and validate the JSON form produced by :func:`lattice_to_json`.

    A malformed payload raises ValueError (node ids, orders and cover ends
    must be JSON integers, and n nodes have at most n * n covers), a lattice
    of a group of order above ``order_cap`` raises :class:`TooLarge` before
    any cover is read, and an invalid one raises :class:`InvalidLattice`
    with its :attr:`~CyclicLattice.violations`.
    """

    def fields(payload) -> tuple:
        order_of = {json_int(rec["id"]): json_int(rec["order"]) for rec in payload["nodes"]}
        # the group has at least one element per node, every node order as
        # a divisor, and sum(phi(order)) elements: the vertices of each graph
        size = max([len(order_of), *order_of.values()])
        if size <= order_cap:
            size = sum(totient(d) for d in order_of.values() if d > 0)
        covers = json_pairs(payload["covers"], len(order_of)) if size <= order_cap else []
        return order_of, size, frozenset(covers), len(payload["nodes"])

    order_of, size, covers, records = _parse(text, "lattice", fields)
    if size > order_cap:
        raise TooLarge(size, order_cap)
    if set(order_of) != set(range(records)):
        raise InvalidLattice("node ids must be dense from 0")
    orders = tuple(order_of[v] for v in range(len(order_of)))
    lattice = CyclicLattice(orders=orders, covers=covers)
    validate_lattice(lattice)
    return lattice


# ---------------------------------------------------------------------------
# DOT, summaries, and the one writer the command line prints through


def graph_to_dot(g: SimpleGraph | Digraph, labels: Sequence | None = None) -> str:
    """DOT text with vertices and edges in canonical order; vertex v is
    labelled ``labels[v]`` when labels are given."""
    directed = isinstance(g, Digraph)
    lines = ["digraph {" if directed else "graph {"]
    for v in range(g.vertex_count):
        if labels is not None:
            text = str(labels[v]).replace('"', '\\"')
            lines.append(f'  {v} [label="{text}"];')
        else:
            lines.append(f"  {v};")
    conn = "->" if directed else "--"
    pairs = g.arcs() if directed else g.edges()
    for u, v in sorted(pairs):
        lines.append(f"  {u} {conn} {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(x: SimpleGraph | Digraph | CyclicLattice, fmt: str,
           labels: list[str] | None = None) -> str:
    """``x`` in the output format ``fmt`` (``summary``, ``json`` or ``dot``),
    ending in a newline; a graph's vertices named by ``labels``."""
    if isinstance(x, CyclicLattice):
        if fmt == "summary":
            return f"nodes={x.node_count} covers={len(x.covers)}\n"
        if fmt == "json":
            return lattice_to_json(x) + "\n"
        # the cover digraph, labelled by order and drawn bottom to top
        dot = graph_to_dot(Digraph.from_arcs(x.node_count, x.covers), x.orders)
        return dot.replace("{\n", "{\n  rankdir=BT;\n", 1)
    if fmt == "summary":
        if isinstance(x, Digraph):
            return f"vertices={x.vertex_count} arcs={x.arc_count}\n"
        return f"vertices={x.vertex_count} edges={x.edge_count}\n"
    return graph_to_json(x, labels) + "\n" if fmt == "json" else graph_to_dot(x, labels)


def label_strings(labels: tuple[int, ...]) -> list[str]:
    """Serialized vertex names, one per vertex: ``n<node>:g<k>`` for the
    k-th vertex of its node, counted from 1 in id order."""
    seen: Counter[int] = Counter()
    names = []
    for v in labels:
        seen[v] += 1
        names.append(f"n{v}:g{seen[v]}")
    return names
