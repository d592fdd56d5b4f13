"""Constructors for the groups the library works with, plus a small
expression language for naming them on the command line.

Grammar:  Expr := Term ('x' Term)* with 'x' the direct product; Term :=
NAME '(' int (',' int)* ')' | 'cayley:' path; NAME in {Z, D, Q, SD, M, S, A,
Heis, G16}.  The words are runs of characters, all read by one scanner,
``_scan``: whitespace, which is insignificant between words; a name, a run
of letters and digits, so ``Zx(2)`` names the unknown constructor ``Zx``;
an int, a run of decimal digits that ``int()`` reads; and a cayley path,
which runs to the next whitespace or the end of the string.  The table a
cayley path names is read by :func:`latgraph.formats.cayley_csv_data`.

A term NAME(ints) is one :class:`Term`, and one table, ``_TERMS``, gives
each NAME its arity and its table builder.  Two or more terms joined by 'x'
are one :class:`DirectProduct` of their factors, left to right.  Python
names a group the way the command line does, as
``build_group(parse_group_expr(text), order_cap=...)``; every table, the
order-16 catalog's included, is built by :func:`build_group`.  A builder
checks its parameters, then their order against the cap, and only then
allocates: the symmetric and alternating groups check n! and n!/2 before
their generator closure runs.  A direct product checks the order of each
prefix of its factors, left to right, and then folds their tables from
the right, two at a time; every table passes
:func:`~latgraph.group_core.validate_group`.  Eleven of the fourteen
order-16 groups are expressions; the other three are permutation generators.

Two-generator presentations (dihedral, quaternion, semidihedral, modular)
are realised as normal forms b^j a^i under one metacyclic multiplication
rule, computed for the whole table at once, not by generic rewriting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .group_core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    TooLarge,
    table_dtype,
    validate_group,
)
from .formats import cayley_csv_data
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
    """The direct product of two or more factors, left to right, as
    ``AxBxC`` parses: one product of three factors, not a product nested in
    a product.  Its elements are the tuples of the factors' elements, the
    last factor's varying fastest."""

    factors: tuple[GroupExpr, ...]


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

def _scan(text: str, pos: int, accepts: Callable[[str], bool]) -> int:
    """The end of the run of characters from ``pos`` that ``accepts`` takes."""
    while pos < len(text) and accepts(text[pos]):
        pos += 1
    return pos


def _expect(text: str, pos: int, char: str) -> int:
    """The position after ``char``, which must follow ``pos`` past whitespace."""
    pos = _scan(text, pos, str.isspace)
    if not text.startswith(char, pos):
        raise ExprSyntaxError(pos, f"'{char}'")
    return pos + 1


def parse_group_expr(text: str) -> GroupExpr:
    """Parse an expression like ``"Z(2)xZ(6)"`` or ``"cayley:groups/z4.csv"``:
    a lone term is returned as it is, two or more as one
    :class:`DirectProduct`.  Each word is one run of :func:`_scan`, and the
    position passes from word to word as a plain int; a refusal names the
    position where the word it expected should start."""
    term, pos = _parse_term(text, 0)
    factors = [term]
    while text.startswith("x", pos):
        term, pos = _parse_term(text, pos + 1)
        factors.append(term)
    if pos < len(text):
        raise ExprSyntaxError(pos, "'x' or end of expression")
    return DirectProduct(tuple(factors)) if len(factors) > 1 else factors[0]


def _parse_term(text: str, pos: int) -> tuple[GroupExpr, int]:
    """The term after ``pos`` and whitespace, and the position past it and
    the whitespace that follows it."""
    start = _scan(text, pos, str.isspace)
    pos = _scan(text, start, str.isalnum)
    name = text[start:pos]
    # 'x' is reserved for the direct product
    if not name[:1].isalpha() or name[0] == "x":
        raise ExprSyntaxError(start, "a term")
    if name == "cayley" and text.startswith(":", pos):
        end = _scan(text, pos + 1, lambda c: not c.isspace())
        if end == pos + 1:
            raise ExprSyntaxError(end, "a file path")
        return FromCayleyFile(text[pos + 1 : end]), _scan(text, end, str.isspace)
    if name not in _TERMS:
        # before the arguments, to name where the term stands; Term checks
        # the name again, and the arity, for every term
        raise UnknownConstructor(name, start)
    pos = _expect(text, pos, "(")
    args = []
    while True:
        start = _scan(text, pos, str.isspace)
        pos = _scan(text, start, str.isdigit)
        try:
            args.append(int(text[start:pos]))
        except ValueError:
            # no digits, a digit like '²' that int() refuses, or too many digits
            raise ExprSyntaxError(start, "an integer") from None
        pos = _scan(text, pos, str.isspace)
        if not text.startswith(",", pos):
            break
        pos += 1
    # the ')' first: a term is built, and its arity checked, only once read
    pos = _expect(text, pos, ")")
    return Term(name, tuple(args)), _scan(text, pos, str.isspace)


def format_group_expr(expr: GroupExpr) -> str:
    """Canonical text form; ``parse_group_expr`` round-trips it.  A path runs
    to the next whitespace, so a space ends one that an 'x' follows."""
    if isinstance(expr, DirectProduct):
        return "x".join(format_group_expr(f) + " " * isinstance(f, FromCayleyFile)
                        for f in expr.factors).rstrip()
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
    # row i is the ids rotated left by i, the window at i of the ids written
    # twice; copied from those windows, no sum i + j is formed, which would
    # wrap uint16 above order 32768
    ids = np.arange(n, dtype=table_dtype(n))
    twice = np.concatenate([ids, ids])
    table = np.lib.stride_tricks.as_strided(twice, (n, n), (twice.itemsize,) * 2).copy()
    return table, [str(i) for i in range(n)]


def _metacyclic_data(
    m: int, s: int, t: int, c: int, names: tuple[str, str], order_cap: int
) -> _Table:
    """Table over normal forms b^j a^i (i < m, j < s, id = j*m + i) under the
    one rule the four presentations share:

        b^j a^i · b^l a^k = b^((j+l) mod s) a^((i·t^l + k + c·[j+l >= s]) mod m)
    """
    _check_order(m * s, order_cap)
    # one axis per exponent, so only the table itself is n x n: it is written
    # through a view with those axes, one in-place pass per term.  The terms
    # are cast to the table dtype while they are small; no sum exceeds
    # (m - 1) + (m - 1) before the reduction mod m, or n - 1 after it
    dtype = table_dtype(m * s)
    j, i, l, k = np.ix_(np.arange(s), np.arange(m), np.arange(s), np.arange(m))
    t_pow = np.array([pow(t, e, m) for e in range(s)])
    table = np.empty((m * s, m * s), dtype=dtype)
    view = table.reshape(s, m, s, m)
    np.add(((i * t_pow[l] + c * (j + l >= s)) % m).astype(dtype), k.astype(dtype), out=view)
    view %= m
    view += ((j + l) % s * m).astype(dtype)
    a, b = names
    labels = [_power_name(b, jj) + _power_name(a, ii) or "e"
              for jj in range(s) for ii in range(m)]
    return table, labels


def _power_name(generator: str, e: int) -> str:
    """The e-th power of a generator as an element name writes it: nothing
    for e = 0, the bare name for e = 1, the name and e after that."""
    return "" if e == 0 else generator if e == 1 else f"{generator}{e}"


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
    # every term is below p**3 = n, so the table dtype holds it
    dtype = table_dtype(p**3)
    a1, b1, c1, a2, b2, c2 = np.ix_(*[np.arange(p, dtype=dtype)] * 6)
    # written through a view with one axis per coordinate, so no n x n
    # temporary exists and the table owns its memory
    table = np.empty((p**3, p**3), dtype=dtype)
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
    only ever run on generators whose group's order is known in advance.

    The walk is the group's right Cayley graph: it records right[k][u], the
    id of u∘g_k, for every element u and generator g_k, and for each element
    y it reaches, the pair (parent, k) with y = parent∘g_k.  Then

        x∘y = (x∘parent)∘g_k,

    so column y of the table, in discovery order, is column parent sent
    through right[k]; column 0 is the ids, since x∘e = x."""
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in generators]
    steps = []
    # the walk's queue is elems itself, which grows as it is read
    for u, perm in enumerate(elems):
        for k, g in enumerate(generators):
            w = tuple(perm[i] for i in g)
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
                steps.append((u, k))
            right[k].append(index[w])
    n = len(elems)
    dtype = table_dtype(n)
    gathers = [np.array(r, dtype=dtype) for r in right]
    table = np.empty((n, n), dtype=dtype)
    table[:, 0] = np.arange(n, dtype=dtype)
    for y, (parent, k) in enumerate(steps, start=1):
        table[:, y] = gathers[k].take(table[:, parent])
    return table, [_perm_cycles(p) for p in elems]


def _product_data(factors: list[_Table]) -> _Table:
    """The direct product of a chain of factors, left associative: element
    ((a,b),c) has id (a*|B| + b)*|C| + c.  Mixed-radix ids nest either way,
    as a*|B||C| + (b*|C| + c), so the table is folded from the right, two
    factors at a time: each step writes one factor times the product of the
    factors after it, whose table is the suffix."""
    # the trivial group's table [[0]] adds 0 to every id; left out, no
    # suffix order is n, which uint16 does not hold at order 65536
    tables = [t for t, _ in factors if len(t) != 1 or t.any()] or [factors[0][0]]
    # the table dtype, or int64 when a factor is a Cayley file's table,
    # whose entries are not yet known to be in range.  Every product and sum
    # is formed in it, where no id of the product wraps
    dtype = np.result_type(table_dtype(math.prod(map(len, tables))), *(t.dtype for t in tables))
    *prefix, suffix = tables
    for t in reversed(prefix):
        m, k = len(t), len(suffix)
        # written through the (m, k, m, k) view, so no m² temporary exists;
        # the product in the table dtype, which NumPy 1.x's value-based
        # casting would otherwise narrow to t's, and k a scalar of it
        table = np.empty((m * k, m * k), dtype=dtype)
        view = table.reshape(m, k, m, k)
        np.multiply(t[:, None, :, None], dtype.type(k), out=view, dtype=dtype)
        view += suffix[None, :, None, :]
        suffix = table
    names = factors[0][1]
    for _, right in factors[1:]:
        names = [f"({a},{b})" for a in names for b in right]
    return suffix, names


def _symmetric_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """The transposition (0 1) and the n-cycle (0 1 ... n-1), each as the
    images of 0..n-1, with the identity and duplicates dropped: in S(2) the
    transposition is the 2-cycle, so S(2) has one generator, and S(1) none."""
    e = tuple(range(n))
    return tuple(dict.fromkeys((e, e[1:2] + e[:1] + e[2:], e[1:] + e[:1])))[1:]


def _alternating_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """The 3-cycle (0 1 2) and an even cycle, for odd n the n-cycle
    (0 1 ... n-1), for even n the (n-1)-cycle (1 2 ... n-1) fixing 0, with
    the identity and duplicates dropped: in A(3) the 3-cycle is the n-cycle,
    so A(3) has one generator, and A(2), trivial with no 3-cycle, none."""
    e = tuple(range(n))
    cycle = e[1:] + e[:1] if n % 2 else e[:1] + e[2:] + e[1:2]
    return tuple(dict.fromkeys((e, e[1:3] + e[:1] + e[3:], cycle)))[1:] if n > 2 else ()


def _symmetric_data(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if not 1 <= n <= 6:
        raise InvalidParameter(f"symmetric group supported for degree 1..6, got {n}")
    _check_order(math.factorial(n), order_cap)
    return _closure_data(n, _symmetric_generators(n))


def _alternating_data(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if not 2 <= n <= 6:
        raise InvalidParameter(f"alternating group supported for degree 2..6, got {n}")
    _check_order(math.factorial(n) // 2, order_cap)
    return _closure_data(n, _alternating_generators(n))


# ---------------------------------------------------------------------------
# the constructor table and the one build path


# the groups of order 16 in catalog order, G16(i) being entry i - 1: each a
# name and either the expression it is or, for the three groups without a
# presentation constructor, generators of its left-regular action on 16
# points.  The tests establish each entry: order, abelianness, order
# statistics and pairwise separation through the graph machinery
_ORDER16: tuple[tuple[str, str | tuple[tuple[int, ...], ...]], ...] = (
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
    ("Z4:Z4", (
        (1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12),
        (4, 7, 6, 5, 8, 11, 10, 9, 12, 15, 14, 13, 0, 3, 2, 1),
    )),
    ("(Z4xZ2):Z2", (
        (1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8, 13, 14, 15, 12),
        (8, 13, 10, 15, 12, 9, 14, 11, 0, 5, 2, 7, 4, 1, 6, 3),
    )),
    ("D8oZ4", (
        (1, 0, 7, 14, 5, 4, 11, 2, 9, 8, 15, 6, 13, 12, 3, 10),
        (3, 6, 13, 0, 7, 10, 1, 4, 11, 14, 5, 8, 15, 2, 9, 12),
        (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3),
    )),
)


def _order16_data(index: int, order_cap: int = DEFAULT_ORDER_CAP) -> _Table:
    if not 1 <= index <= 14:
        raise InvalidParameter(f"G16 index must be 1..14, got {index}")
    _check_order(16, order_cap)
    _, source = _ORDER16[index - 1]
    if isinstance(source, str):
        return _build_data(parse_group_expr(source), 16)
    return _closure_data(16, source)


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
        # the factors built left to right; each prefix's order is checked
        # once its last factor is built, and the one table of the whole
        # product only after every check
        factors, order = [], 1
        for factor in expr.factors:
            factors.append(_build_data(factor, order_cap))
            order *= factors[-1][0].shape[0]
            _check_order(order, order_cap)
        return _product_data(factors)
    if isinstance(expr, FromCayleyFile):
        return cayley_csv_data(expr.path, order_cap)
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
