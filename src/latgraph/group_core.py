"""Finite groups as explicit multiplication tables over integer element ids.

Elements are the integers 0..n-1 and every algebraic question reduces to
lookups in an n x n table (``table[x, y]`` is the product ``x * y``).
:func:`validate_group` is the single gate through which every table enters
the system.  It verifies every axiom exactly, with whole-table array
operations and no O(n^3) step.  On a group table closure, identity and
inverses cost about one pass over the table each; a table that fails one
of them gets the scan that names its witness.  Associativity is Light's
test, which checks only the elements of a generating set it grows
greedily.  It closes the reached set by right multiplication by the powers
a, a², a⁴, ... of the tested elements, so a power a^m is reached in about
log2(m) rounds, not m: each such power is a left-nested word in a, so the
closure is the same set as under the tested elements alone.

A group keeps its table in the narrowest unsigned dtype that holds every
id, :func:`table_dtype`: ``uint16`` up to order 65536, so a group of order
4096 holds one 32 MB table.

A group builds its membership matrix ``M`` (``M[z, x]``: x lies in <z>) once,
on first use, with one walk of powers per cyclic subgroup.  The walk notes,
in a Python list, which subgroup each element generates; then one scatter
writes each subgroup's members into its row of a (subgroups x n) matrix, and
one gather gives every element its subgroup's row: the generators of <z>
share z's row.  The same walk keeps the cyclic subgroups it found, and
element orders are the row sums of ``M``.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd

import numpy as np

DEFAULT_ORDER_CAP = 512


def table_dtype(n: int) -> np.dtype:
    """The dtype of a group table of order n: ``uint16`` holds every id
    below 65536, ``uint32`` any order whose table fits in memory."""
    return np.dtype(np.uint16 if n <= 1 << 16 else np.uint32)


class GroupTableError(ValueError):
    """A table failed validation; subclasses carry the witnessing entries."""


class EmptyTable(GroupTableError):
    pass


class NotClosed(GroupTableError):
    def __init__(self, x: int, y: int, value: int):
        self.x, self.y, self.value = x, y, value
        super().__init__(f"entry ({x},{y}) = {value} is not an element id")


class NoIdentity(GroupTableError):
    def __init__(self):
        super().__init__("no two-sided identity element")


class MissingInverse(GroupTableError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"element {x} has no two-sided inverse")


class NotAssociative(GroupTableError):
    def __init__(self, x: int, y: int, z: int):
        self.x, self.y, self.z = x, y, z
        super().__init__(f"({x}*{y})*{z} != {x}*({y}*{z})")


class TooLarge(GroupTableError):
    """An order over the cap: ``size`` is the order (quoted shortened past 40
    digits), or, for one too long to print, its text such as ``"2^3000000"``."""

    def __init__(self, size: int | str, cap: int):
        self.size, self.cap = size, cap
        shown = reprlib.repr(size) if isinstance(size, int) else size
        super().__init__(f"group order {shown} exceeds the cap of {cap}")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A validated finite group.  Immutable; safe to share between threads.
    Derived data (:attr:`membership` and the cyclic subgroups) is built on
    first use."""

    table: np.ndarray  # (n, n) array of dtype table_dtype(n), read-only
    identity: int
    inverse: np.ndarray  # (n,) int array, read-only
    generating_set: tuple[int, ...]  # the elements Light's test checked; they generate G

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    def elements(self) -> range:
        return range(self.order)

    @property
    def membership(self) -> np.ndarray:
        """Read-only (n, n) boolean matrix ``M``; ``M[z, x]`` when x lies in <z>."""
        return self._cyclic_walk[0]

    @property
    def subgroup_index(self) -> np.ndarray:
        """Read-only (n,) int array: entry x is the position of <x> in
        :func:`cyclic_subgroups`."""
        return self._cyclic_walk[2]

    @cached_property
    def _cyclic_walk(self) -> tuple[np.ndarray, tuple[CyclicSubgroup, ...], np.ndarray]:
        """``M``, the sorted cyclic subgroups and :attr:`subgroup_index`, from
        one walk per subgroup, one scatter and one gather.

        ``walked[x]`` is the walk index of <x>, set for all generators of
        <z> by the walk from z, the first of them.  Row i of ``S`` holds the
        members of the i-th subgroup walked, so ``M = S[walked]``.
        """
        walked = [-1] * self.order
        subs = []
        for z in self.elements():
            if walked[z] < 0:
                sub = generated_subgroup(self, z)
                for g in sub.generators:
                    walked[g] = len(subs)
                subs.append(sub)
        sizes = [sub.order for sub in subs]
        S = np.zeros((len(subs), self.order), dtype=bool)
        S[np.repeat(np.arange(len(subs)), sizes),
          np.fromiter(chain.from_iterable(sub.members for sub in subs), np.intp, sum(sizes))] = True
        M = S[walked]
        del S
        # no two subgroups share their members, so this is the order of the
        # CyclicSubgroup tuples, without their generated comparison
        order = sorted(range(len(subs)), key=lambda i: (subs[i].order, subs[i].members))
        index = np.argsort(order)[walked]  # argsort inverts the permutation
        M.setflags(write=False)
        index.setflags(write=False)
        return M, tuple(subs[i] for i in order), index

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True, order=True)
class CyclicSubgroup:
    """A cyclic subgroup: its order, sorted member ids, and generator ids."""

    order: int
    members: tuple[int, ...]
    generators: tuple[int, ...]


def validate_group(table, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Check all four group axioms on a square table and wrap it.

    Raises :class:`EmptyTable`, :class:`NotClosed`, :class:`NoIdentity`,
    :class:`MissingInverse` or :class:`NotAssociative`, naming the entries
    that witness the failure: the first out-of-range entry in row-major
    order, the first element without a two-sided inverse.

    The group keeps a read-only table of dtype :func:`table_dtype`, ``uint16``
    up to order 65536.  A read-only, C-ordered array of that dtype that owns
    its memory is kept as it is; any other table is copied, so the caller's
    array, its writeable flag included, is never changed.

    On a group table each of closure, identity and inverses costs about one
    pass over the table; only a failing table pays for the scan that names
    its witness.

    * Closure: the table's minimum and maximum; the scan for the first
      entry out of range runs only when one of them is.
    * Identity: an identity e has ``0*e == 0``, so only the columns where
      row 0 reads 0 are tried, one in a group, each by its row and column.
    * Inverses: the smallest right inverse of x, if it is also a left
      inverse, is the smallest two-sided one, since every two-sided inverse
      is a right inverse.  One ``argmax`` per row finds it, and one gather
      each way checks both sides; only an element that fails is scanned
      for a two-sided inverse.

    Associativity is checked by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups*, section 1.2).  Call ``a`` associative
    when ``(x*a)*z == x*(a*z)`` for all ``x, z``; one such test is two
    n x n gathers.  The associative elements are closed under products in
    any magma, so the table is associative as soon as every element is a
    product of tested elements.  The identity passes by definition and
    starts out reached; the loop tests the smallest element not yet
    reached, then closes the reached set under products.  Elements are
    reached only by passing the test or as products of ones that did, so the
    check is exact.  Once identity and inverses hold, the reached set is a
    subgroup that at least doubles with each test, so at most
    ``floor(log2(n))`` elements are tested.  Each test runs over blocks of
    rows of about 2^20 cells, and writes each block's two gathers and their
    comparison into three buffers allocated once per call, so its
    temporaries stay small next to the table.  The :class:`NotAssociative`
    witness ``(x, a, z)`` is a genuine failing triple, but not necessarily
    the first one in row-major order.  Starting from the identity changes
    no witness: it only skips a test that always passes, and adds to the
    reached set an element whose products with others add nothing.

    The closure needs no product of two reached elements.  Associative
    elements associate with everything: ``u*(v*w) == (u*v)*w`` for all
    ``u, w`` whenever ``v`` is associative, and every product of tested
    elements is.  So, by induction on the right factor, every product of
    tested elements equals a left-nested word ``(..((t1*t2)*t3)..)*tk`` in
    them, and the reached set is the closure of the identity under right
    multiplication by the tested elements.  Each round multiplies every
    reached element by every power a, a², a⁴, ... of every tested element
    a, until nothing is new: the columns of those powers are gathered once
    per test, and each round reads their reached rows.  The closure is the
    same set: the powers include the tested elements, and each power p·p,
    p associative, gives ``x*(p*p) == (x*p)*p``, a left-nested word in a.
    It takes about log2(m) rounds, not m, to reach a^m.
    """
    arr = np.asarray(table)
    if arr.size == 0:
        raise EmptyTable("empty multiplication table")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GroupTableError(f"table must be square, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GroupTableError("table entries must be integers")
    n = arr.shape[0]
    if n > order_cap:
        raise TooLarge(n, order_cap)

    if arr.min() < 0 or arr.max() >= n:
        x, y = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise NotClosed(x, y, int(arr[x, y]))

    # every entry is now in [0, n), so the table dtype holds it: the
    # NotClosed witness above reports the input's own value.  A read-only
    # table of that dtype that owns its memory, as build_group hands over, is
    # kept; any other is copied
    dtype = table_dtype(n)
    flags = arr.flags
    if not (arr.dtype == dtype and flags.c_contiguous and flags.owndata
            and not flags.writeable):
        arr = arr.astype(dtype, order="C")
        arr.setflags(write=False)
    ids = np.arange(n)
    # an identity e has 0*e == 0; in a group one column of row 0 reads 0
    for e in np.flatnonzero(arr[0] == 0):
        if np.array_equal(arr[e], ids) and np.array_equal(arr[:, e], ids):
            identity = int(e)
            break
    else:
        raise NoIdentity()

    # each pass over the table runs over blocks of rows of about 2^20 cells,
    # so its temporaries stay small next to the table; every table of order
    # up to 1024 is one block
    block = max(1, (1 << 20) // n)
    inverse = np.concatenate([
        (arr[start : start + block] == identity).argmax(axis=1)
        for start in range(0, n, block)
    ])
    for x in np.flatnonzero((arr[ids, inverse] != identity) | (arr[inverse, ids] != identity)):
        # no right inverse, or the smallest is not a left inverse
        two_sided = (arr[x] == identity) & (arr[:, x] == identity)
        if not two_sided.any():
            raise MissingInverse(int(x))
        inverse[x] = two_sided.argmax()

    # the identity passes Light's test by definition
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    tests, powers = [], []
    # at row x of a block, left holds (x*a)*z and right x*(a*z); every index
    # is in range, so mode="clip" never clips and np.take writes into out
    # directly
    height = min(block, n)
    left, right = np.empty((2, height, n), dtype=arr.dtype)
    fails = np.empty((height, n), dtype=bool)
    while not reached.all():
        a = int(reached.argmin())
        for start in range(0, n, block):
            rows = arr[start : start + block]
            h = len(rows)  # the last block may be shorter
            np.take(arr, rows[:, a], axis=0, out=left[:h], mode="clip")
            np.take(rows, arr[a], axis=1, out=right[:h], mode="clip")
            np.not_equal(left[:h], right[:h], out=fails[:h])
            if fails[:h].any():
                # blocks go in row order, so this is the first failing (x, z)
                x, z = map(int, np.argwhere(fails[:h])[0])
                raise NotAssociative(start + x, a, z)
        tests.append(a)
        # a, a², a⁴, ... until one is the identity or already listed; the
        # list is closed under squaring, so none after that one is new
        while a != identity and a not in powers:
            powers.append(a)
            a = int(arr[a, a])
        # each round multiplies every reached element by every power: the
        # reached rows of the powers' columns
        cols = arr[:, powers]
        while not reached[words := np.compress(reached, cols, axis=0)].all():
            reached[words] = True

    inverse.setflags(write=False)
    return FiniteGroup(table=arr, identity=identity, inverse=inverse, generating_set=tuple(tests))


def generated_subgroup(G: FiniteGroup, x: int) -> CyclicSubgroup:
    """The cyclic subgroup <x> with its generator set."""
    powers = [G.identity]  # powers[k] = x^k
    y = x
    while y != G.identity:
        powers.append(y)
        y = int(G.table[y, x])
    d = len(powers)
    gens = tuple(sorted(powers[k] for k in range(d) if gcd(k, d) == 1))
    return CyclicSubgroup(order=d, members=tuple(sorted(powers)), generators=gens)


def cyclic_subgroups(G: FiniteGroup) -> list[CyclicSubgroup]:
    """All distinct cyclic subgroups, sorted by (order, member list), as the
    walk that builds ``G.membership`` found them."""
    return list(G._cyclic_walk[1])


def is_abelian(G: FiniteGroup) -> bool:
    """True when each generator of G is central, so that G is abelian."""
    return all(np.array_equal(G.table[g], G.table[:, g]) for g in G.generating_set)


def order_statistics(G: FiniteGroup) -> dict[int, int]:
    """Map each element order d to the number of elements of order d."""
    return dict(sorted(Counter(G.membership.sum(axis=1).tolist()).items()))
