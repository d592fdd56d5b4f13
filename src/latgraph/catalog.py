"""Constructors for the groups the library works with, plus a small
expression language for naming them on the command line.

Grammar:  Expr := Term ('x' Term)* with 'x' the direct product (left
associative); Term := NAME '(' int (',' int)* ')' | 'cayley:' path; NAME in
{Z, D, Q, SD, M, S, A, Heis, G16}.  Whitespace is insignificant except
inside a cayley path, which runs to the next whitespace or the end of the
string.

A term NAME(ints) is one :class:`Term`, and one table, ``_TERMS``, gives
each NAME its arity and its table builder.  Python names a group the way the
command line does, as ``build_group(parse_group_expr(text), order_cap=...)``;
every table, the order-16 catalog's included, is built by
:func:`build_group`.  A builder checks its parameters, then their order
against the cap, and only then allocates: the symmetric and alternating
groups check n! and n!/2 before their generator closure runs.  A direct
product checks its own order, and every table passes
:func:`~latgraph.group_core.validate_group`.  Eleven of the fourteen
order-16 groups are expressions; the other three are permutation records.

Two-generator presentations (dihedral, quaternion, semidihedral, modular)
are realised as normal forms b^j a^i under one metacyclic multiplication
rule, computed for the whole table at once, not by generic rewriting.
"""

from __future__ import annotations

import io
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .group_core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    TooLarge,
    validate_group,
)
from .lattice import is_prime

# a multiplication table and its element names, as the builders return them
_Table = tuple[np.ndarray, list[str]]


class InvalidParameter(ValueError):
    pass


class GroupExprError(ValueError):
    pass


class ExprSyntaxError(GroupExprError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at position {position}: expected {expected}")


class UnknownConstructor(GroupExprError):
    def __init__(self, name: str, position: int = 0):
        self.name = name
        self.position = position
        super().__init__(f"unknown constructor {name!r} at position {position}")


class ArityError(GroupExprError):
    def __init__(self, name: str, expected: int, got: int):
        self.name, self.expected, self.got = name, expected, got
        super().__init__(f"{name} takes {expected} argument(s), got {got}")


class CayleyParseError(ValueError):
    def __init__(self, row: int, col: int, message: str):
        self.row, self.col = row, col
        super().__init__(f"row {row}, column {col}: {message}")


# ---------------------------------------------------------------------------
# expression AST


class GroupExpr:
    """Base class for parsed group expressions."""


@dataclass(frozen=True)
class Term(GroupExpr):
    """One constructor applied to its integers, such as ``M(2,4)``.  A name
    outside ``_TERMS``, the wrong number of arguments or an argument that is
    not an ``int`` (a ``bool`` is not one) is refused here, so no builder
    sees any of them."""

    name: str
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in _TERMS:
            raise UnknownConstructor(self.name)
        arity, _ = _TERMS[self.name]
        if len(self.args) != arity:
            raise ArityError(self.name, arity, len(self.args))
        for arg in self.args:
            if not isinstance(arg, int) or isinstance(arg, bool):
                raise InvalidParameter(f"{self.name} takes integers, got {arg!r}")


@dataclass(frozen=True)
class DirectProduct(GroupExpr):
    left: GroupExpr
    right: GroupExpr


@dataclass(frozen=True)
class FromCayleyFile(GroupExpr):
    path: str


@dataclass(frozen=True)
class NamedGroup:
    """A validated group plus display metadata for element labelling."""

    group: FiniteGroup
    name: str
    element_names: tuple[str, ...]


# ---------------------------------------------------------------------------
# parser

class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # no digits, a digit like '²' that int() refuses, or too many digits
            raise ExprSyntaxError(start, "an integer") from None

    def take_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError(start, "a term")
        return self.text[start : self.pos], start

    def take_path(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError(start, "a file path")
        return self.text[start : self.pos]

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise ExprSyntaxError(self.pos, f"'{char}'")
        self.pos += 1


def parse_group_expr(text: str) -> GroupExpr:
    """Parse an expression like ``"Z(2)xZ(6)"`` or ``"cayley:groups/z4.csv"``."""
    lex = _Lexer(text)
    expr = _parse_term(lex)
    while True:
        lex.skip_ws()
        if lex.pos < len(lex.text) and lex.text[lex.pos] == "x":
            lex.pos += 1
            expr = DirectProduct(expr, _parse_term(lex))
        else:
            break
    lex.skip_ws()
    if lex.pos != len(lex.text):
        raise ExprSyntaxError(lex.pos, "'x' or end of expression")
    return expr


def _parse_term(lex: _Lexer) -> GroupExpr:
    lex.skip_ws()
    if lex.pos >= len(lex.text) or not lex.text[lex.pos].isalpha():
        raise ExprSyntaxError(lex.pos, "a term")
    if lex.text[lex.pos] == "x":
        # 'x' is reserved for the direct product
        raise ExprSyntaxError(lex.pos, "a term")
    name, start = lex.take_name()
    if name == "cayley" and lex.pos < len(lex.text) and lex.text[lex.pos] == ":":
        lex.pos += 1
        return FromCayleyFile(lex.take_path())
    if name not in _TERMS:
        # before the arguments, to name where the term stands; Term checks
        # the name again, and the arity, for every term
        raise UnknownConstructor(name, start)
    lex.expect("(")
    args = [lex.take_int()]
    while lex.peek() == ",":
        lex.expect(",")
        args.append(lex.take_int())
    lex.expect(")")
    return Term(name, tuple(args))


def format_group_expr(expr: GroupExpr) -> str:
    """Canonical text form; ``parse_group_expr`` round-trips it."""
    if isinstance(expr, DirectProduct):
        return f"{format_group_expr(expr.left)}x{format_group_expr(expr.right)}"
    if isinstance(expr, FromCayleyFile):
        return f"cayley:{expr.path}"
    return f"{expr.name}({','.join(map(str, expr.args))})"


# ---------------------------------------------------------------------------
# table builders (internal: return table + element names).  Each checks its
# parameters, then the order they state against the cap, then allocates.


def _check_order(order: int, order_cap: int) -> None:
    if order > order_cap:
        raise TooLarge(order, order_cap)


def _check_power(p: int, k: int, order_cap: int) -> None:
    """Refuse the order p**k over the cap.  An order of more than 4300
    digits, which Python does not print by default, is named as ``p^k``;
    since p**k >= 2**k, such an order is formed only when k is within the
    cap's bit length."""
    if k * math.log10(p) < 4300:
        _check_order(p**k, order_cap)
    elif k > order_cap.bit_length() or p**k > order_cap:
        raise TooLarge(f"{p}^{k}", order_cap)


def _cyclic_data(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if n < 1:
        raise InvalidParameter(f"cyclic group order must be >= 1, got {n}")
    _check_order(n, order_cap)
    ids = np.arange(n, dtype=np.int32)
    table = np.add.outer(ids, ids)
    table %= n
    return table, [str(i) for i in range(n)]


def _metacyclic_data(
    m: int, s: int, t: int, c: int, names: tuple[str, str], order_cap: int
) -> _Table:
    """Table over normal forms b^j a^i (i < m, j < s, id = j*m + i) under the
    one rule the four presentations share:

        b^j a^i · b^l a^k = b^((j+l) mod s) a^((i·t^l + k + c·[j+l >= s]) mod m)
    """
    _check_order(m * s, order_cap)
    # one axis per exponent, so only the int32 table itself is n x n: it is
    # written through a view with those axes, one in-place pass per term
    j, i, l, k = np.ix_(np.arange(s), np.arange(m), np.arange(s), np.arange(m))
    t_pow = np.array([pow(t, e, m) for e in range(s)])
    table = np.empty((m * s, m * s), dtype=np.int32)
    view = table.reshape(s, m, s, m)
    np.add((i * t_pow[l] + c * (j + l >= s)) % m, k, out=view)
    view %= m
    view += (j + l) % s * m
    a_name, b_name = names
    labels = []
    for jj in range(s):
        for ii in range(m):
            b_part = "" if jj == 0 else (b_name if jj == 1 else f"{b_name}{jj}")
            a_part = "" if ii == 0 else (f"{a_name}{ii}" if ii > 1 else a_name)
            labels.append((b_part + a_part) or "e")
    return table, labels


def _dihedral_data(order: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if order < 4 or order % 2:
        raise InvalidParameter(f"dihedral order must be an even integer >= 4, got {order}")
    return _metacyclic_data(order // 2, 2, -1, 0, ("r", "s"), order_cap)


def _quaternion_data(order: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if order < 8 or order & (order - 1):
        raise InvalidParameter(
            f"generalized quaternion order must be a power of 2 >= 8, got {order}"
        )
    m = order // 2
    # b^2 = a^(m/2), b a b^-1 = a^-1
    return _metacyclic_data(m, 2, -1, m // 2, ("a", "b"), order_cap)


def _semidihedral_data(order: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if order < 16 or order & (order - 1):
        raise InvalidParameter(
            f"semidihedral order must be a power of 2 >= 16, got {order}"
        )
    m = order // 2
    # conjugation exponent: x a x = a^(m/2 - 1)
    return _metacyclic_data(m, 2, m // 2 - 1, 0, ("a", "x"), order_cap)


def _modular_data(p: int, n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if not is_prime(p) or n < 3:
        raise InvalidParameter(f"modular group needs a prime p and n >= 3, got p={p}, n={n}")
    _check_power(p, n, order_cap)
    return _metacyclic_data(p ** (n - 1), p, 1 + p ** (n - 2), 0, ("a", "x"), order_cap)


def _heisenberg_data(p: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    """Unitriangular 3x3 matrices over Z/p as triples (a, b, c), id
    (a*p + b)*p + c: (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2 + a1*b2)."""
    if p == 2 or not is_prime(p):
        raise InvalidParameter(f"Heisenberg group needs an odd prime, got {p}")
    _check_power(p, 3, order_cap)
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p, dtype=np.int32)] * 6)
    # written through a view with one axis per coordinate, so no n x n
    # temporary exists and the table owns its memory
    table = np.empty((p**3, p**3), dtype=np.int32)
    np.add(
        ((a1 + a2) % p * p + (b1 + b2) % p) * p, (c1 + c2 + a1 * b2) % p,
        out=table.reshape((p,) * 6),
    )
    labels = [f"({a},{b},{c})" for a in range(p) for b in range(p) for c in range(p)]
    return table, labels


def _perm_cycles(perm: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, i = [start], perm[start]
        while i != start:
            cycle.append(i)
            seen.add(i)
            i = perm[i]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "e"


def _closure_data(degree: int, generators: tuple[tuple[int, ...], ...]) -> _Table:
    """Breadth-first closure of permutation generators, indexed by discovery;
    only ever run on generators whose group's order is known in advance."""
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        u = queue.popleft()
        for g in generators:
            w = tuple(u[g[i]] for i in range(degree))
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
                queue.append(w)
    n = len(elems)
    # products[x, y, i] = (x∘y)[i] = x[y[i]], all n² at once; each product
    # row is found among the elements by its bytes (degree <= 16 fits uint8),
    # so no integer encoding of a permutation can overflow
    E = np.array(elems, dtype=np.uint8).reshape(n, degree)
    row = np.dtype((np.void, degree))
    keys = E.view(row).ravel()
    by_key = np.argsort(keys)
    products = E.take(E, axis=1).view(row).ravel()
    table = by_key[np.searchsorted(keys[by_key], products)].astype(np.int32).reshape(n, n)
    return table, [_perm_cycles(p) for p in elems]


def _product_data(g: _Table, h: _Table, order_cap: int) -> _Table:
    (tg, names_g), (th, names_h) = g, h
    ng, nh = tg.shape[0], th.shape[0]
    _check_order(ng * nh, order_cap)
    # int32 unless a factor is a Cayley file's int64 table, whose entries
    # are not yet known to be in range; written through a view with one axis
    # per factor index, so no n x n temporary exists
    table = np.empty((ng * nh, ng * nh), dtype=np.result_type(tg, th))
    view = table.reshape(ng, nh, ng, nh)
    np.multiply(tg[:, None, :, None], nh, out=view)
    view += th[None, :, None, :]
    names = [f"({a},{b})" for a in names_g for b in names_h]
    return table, names


_SYM_GENERATORS = {
    1: [],
    2: [(1, 0)],
}
for _n in range(3, 7):
    _SYM_GENERATORS[_n] = [
        tuple([1, 0] + list(range(2, _n))),
        tuple(list(range(1, _n)) + [0]),
    ]

_ALT_GENERATORS = {
    2: [],
    3: [(1, 2, 0)],
}
for _n in range(4, 7):
    _three = tuple([1, 2, 0] + list(range(3, _n)))
    if _n % 2:
        _ALT_GENERATORS[_n] = [_three, tuple(list(range(1, _n)) + [0])]
    else:
        _ALT_GENERATORS[_n] = [_three, tuple([0] + list(range(2, _n)) + [1])]


def _symmetric_data(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if n not in _SYM_GENERATORS:
        raise InvalidParameter(f"symmetric group supported for degree 1..6, got {n}")
    _check_order(math.factorial(n), order_cap)
    return _closure_data(n, tuple(_SYM_GENERATORS[n]))


def _alternating_data(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if n not in _ALT_GENERATORS:
        raise InvalidParameter(f"alternating group supported for degree 2..6, got {n}")
    _check_order(math.factorial(n) // 2, order_cap)
    return _closure_data(n, tuple(_ALT_GENERATORS[n]))


# the bytes of a plain table: ASCII digits and the separators
_PLAIN_BYTES = b"0123456789 \t,\r\n"
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")
# a plain row longer than _ROW_SLACK * n * (digits(n) + 1) bytes, several
# times any row of n entries below n with short separators, is left to the
# cell loop, which stops splitting a row after its (n + 1)-th cell
_ROW_SLACK = 4


def _cayley_csv_data(path: str, order_cap: int) -> _Table:
    """An n x n Cayley table, comma or whitespace separated, as ``cayley:``
    names it.

    The file is read once.  Blank lines are skipped.  More than
    ``order_cap`` rows raise :class:`TooLarge` before any cell is parsed.  A
    plain file, only ASCII digits, spaces, tabs, commas and line ends with
    no overlong row, is converted by one ``np.loadtxt`` call over its rows.
    Any other file, decoded as ``Path.read_text`` decodes it, or a plain one
    that does not read as n rows of n entries in ``[0, n)``, goes through
    the cell loop, which converts each cell with ``int``: the accepted
    syntax is Python's either way.  A row of the wrong length or a cell that
    is not an int64 integer raises :class:`CayleyParseError` with its row
    and column.  The table is int64 here; the group's, after validation, is
    read-only int32.
    """
    data = Path(path).read_bytes()
    plain = not data.translate(None, _PLAIN_BYTES)
    if not plain:
        data = io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()
    # "\r\n" and "\r" end a line either way, and a row of separators alone
    # is a row
    rows = [line for line in data.splitlines() if line.strip()]
    del data  # freed before the table exists
    n = len(rows)
    _check_order(n, order_cap)  # before the n x n allocation and any parsing
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
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
        return None
    return table


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
# embedded order-16 data
#
# The three order-16 groups without presentation constructors ship as
# permutation generators (left-regular action, degree 16).  Correctness is
# established by the test suite: order, abelianness, order statistics and
# pairwise separation through the graph machinery.

ORDER16_PERM_RECORDS = [
    {
        "name": "Z4:Z4",
        "degree": 16,
        "generators": [
            [1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12],
            [4, 7, 6, 5, 8, 11, 10, 9, 12, 15, 14, 13, 0, 3, 2, 1],
        ],
    },
    {
        "name": "(Z4xZ2):Z2",
        "degree": 16,
        "generators": [
            [1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12],
            [8, 13, 10, 15, 12, 9, 14, 11, 0, 5, 2, 7, 4, 1, 6, 3],
        ],
    },
    {
        "name": "D8oZ4",
        "degree": 16,
        "generators": [
            [1, 0, 7, 14, 5, 4, 11, 2, 9, 8, 15, 6, 13, 12, 3, 10],
            [3, 6, 13, 0, 7, 10, 1, 4, 11, 14, 5, 8, 15, 2, 9, 12],
            [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3],
        ],
    },
]


# ---------------------------------------------------------------------------
# the constructor table and the one build path


# the groups of order 16 in catalog order, G16(i) being entry i - 1: each a
# name and either the expression it is or its permutation record
_ORDER16: tuple[tuple[str, str | dict], ...] = (
    ("Z16", "Z(16)"),
    ("Z8xZ2", "Z(8)xZ(2)"),
    ("Z4xZ4", "Z(4)xZ(4)"),
    ("Z4xZ2xZ2", "Z(4)xZ(2)xZ(2)"),
    ("Z2xZ2xZ2xZ2", "Z(2)xZ(2)xZ(2)xZ(2)"),
    ("D16", "D(16)"),
    ("Q16", "Q(16)"),
    ("SD16", "SD(16)"),
    ("M(2,4)", "M(2,4)"),
    ("D8xZ2", "D(8)xZ(2)"),
    ("Q8xZ2", "Q(8)xZ(2)"),
    *((r["name"], r) for r in ORDER16_PERM_RECORDS),
)


def _order16_data(index: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if not 1 <= index <= 14:
        raise InvalidParameter(f"G16 index must be 1..14, got {index}")
    _check_order(16, order_cap)
    _, source = _ORDER16[index - 1]
    if isinstance(source, str):
        return _build_data(parse_group_expr(source), 16)
    return _closure_data(source["degree"], tuple(map(tuple, source["generators"])))


# each constructor name with the number of integers it takes and its table
# builder, called as builder(*args, order_cap=cap)
_TERMS: dict[str, tuple[int, Callable[..., _Table]]] = {
    "Z": (1, _cyclic_data),
    "D": (1, _dihedral_data),
    "Q": (1, _quaternion_data),
    "SD": (1, _semidihedral_data),
    "M": (2, _modular_data),
    "S": (1, _symmetric_data),
    "A": (1, _alternating_data),
    "Heis": (1, _heisenberg_data),
    "G16": (1, _order16_data),
}


def _build_data(expr: GroupExpr, order_cap: int) -> _Table:
    if isinstance(expr, DirectProduct):
        left = _build_data(expr.left, order_cap)
        return _product_data(left, _build_data(expr.right, order_cap), order_cap)
    if isinstance(expr, FromCayleyFile):
        return _cayley_csv_data(expr.path, order_cap)
    _, build = _TERMS[expr.name]
    return build(*expr.args, order_cap=order_cap)


def build_group(expr: GroupExpr, *, order_cap: int = DEFAULT_ORDER_CAP) -> NamedGroup:
    """Build the group an expression describes, with element-name metadata.

    A term whose order exceeds ``order_cap`` raises :class:`TooLarge` before
    its table is allocated; a direct product is checked again as a whole."""
    table, names = _build_data(expr, order_cap)
    # the table is this call's own: read-only, validate_group keeps it
    # rather than copying it
    table.setflags(write=False)
    group = validate_group(table, order_cap=order_cap)
    return NamedGroup(group=group, name=format_group_expr(expr), element_names=tuple(names))


def order16_catalog(*, order_cap: int = DEFAULT_ORDER_CAP) -> list[NamedGroup]:
    """All 14 groups of order 16: five abelian, nine non-abelian."""
    return [
        replace(build_group(Term("G16", (i,)), order_cap=order_cap), name=name)
        for i, (name, _) in enumerate(_ORDER16, start=1)
    ]
