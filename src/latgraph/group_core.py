"""Finite groups as explicit multiplication tables over integer element ids.

Elements are the integers 0..n-1 and every algebraic question reduces to
lookups in an n x n table (``table[x, y]`` is the product ``x * y``).
:func:`validate_group` is the single gate through which every table enters
the system.  It verifies every axiom exactly, with whole-table array
operations and no O(n^3) step.  On a group table closure, identity and
inverses cost about one pass over the table each; a table that fails one
of them gets the scan that names its witness.  Associativity is Light's
test, which checks only the elements of a generating set it grows
greedily, closing the reached set by right multiplication by the tested
elements.

A group builds its membership matrix ``M`` (``M[z, x]``: x lies in <z>) once,
on first use, with one walk of powers per cyclic subgroup: the generators of
<z> share z's row.  The same walk keeps the cyclic subgroups it found, and
element orders are the row sums of ``M``.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

DEFAULT_ORDER_CAP = 512


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

    table: np.ndarray  # (n, n) int32 array, read-only
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

    @cached_property
    def _cyclic_walk(self) -> tuple[np.ndarray, tuple[CyclicSubgroup, ...]]:
        """``M`` and the cyclic subgroups, from one walk per subgroup."""
        M = np.zeros((self.order, self.order), dtype=bool)
        subs = []
        done = [False] * self.order
        for z in self.elements():
            if done[z]:
                continue
            # the generators of <z> are exactly the elements whose row is z's
            sub = generated_subgroup(self, z)
            subs.append(sub)
            M[z, list(sub.members)] = True
            if len(sub.generators) > 1:
                M[list(sub.generators)] = M[z]
            for x in sub.generators:
                done[x] = True
        M.setflags(write=False)
        return M, tuple(subs)

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

    The group keeps a read-only int32 table.  A read-only, C-ordered int32
    array that owns its memory is kept as it is; any other table is copied,
    so the caller's array, its writeable flag included, is never changed.

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
    ``floor(log2(n))`` elements are tested.  The :class:`NotAssociative`
    witness ``(x, a, z)`` is a genuine failing triple, but not necessarily
    the first one in row-major order.  Starting from the identity changes
    no witness: it only skips a test that always passes, and adds to the
    reached set an element whose products with others add nothing.

    The closure needs no product of two reached elements.  Associative
    elements associate with everything: ``u*(v*w) == (u*v)*w`` for all
    ``u, w`` whenever ``v`` is associative, and every product of tested
    elements is.  So, by induction on the right factor, every product of
    tested elements equals a left-nested word ``(..((t1*t2)*t3)..)*tk`` in
    them.  The reached set therefore grows breadth-first by right
    multiplication by the tested elements: each element is multiplied by
    each tested element once, O(n) work per test instead of gathers of all
    reached pairs.
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

    # every entry is now in [0, n), so int32 holds it: the NotClosed witness
    # above reports the input's own value, and Light's test below gathers
    # half the bytes of int64.  A read-only int32 table that owns its memory,
    # as build_group hands over, is kept; any other is copied
    flags = arr.flags
    if not (arr.dtype == np.int32 and flags.c_contiguous and flags.owndata
            and not flags.writeable):
        arr = arr.astype(np.int32, order="C")
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
    tests = []
    while not reached.all():
        a = int(reached.argmin())
        for start in range(0, n, block):
            rows = arr[start : start + block]
            # at row x of the block, arr[rows[:, a]] holds (x*a)*z and
            # np.take(rows, arr[a], axis=1) holds x*(a*z); NumPy runs np.take
            # faster than the column index rows[:, arr[a]]
            fails = arr[rows[:, a]] != np.take(rows, arr[a], axis=1)
            if fails.any():
                # blocks go in row order, so this is the first failing (x, z)
                x, z = map(int, np.argwhere(fails)[0])
                raise NotAssociative(start + x, a, z)
        tests.append(a)
        # the new words are a and every reached word times a, then each new
        # word times every tested element, until none is new (a mask, not
        # np.unique, which imports numpy.ma on first use)
        words = np.append(arr[reached, a], a)
        while True:
            new = np.zeros(n, dtype=bool)
            new[words] = True
            new &= ~reached
            if not new.any():
                break
            reached |= new
            words = arr[np.ix_(np.flatnonzero(new), tests)]

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
    return sorted(G._cyclic_walk[1])


def is_abelian(G: FiniteGroup) -> bool:
    """True when each generator of G is central, so that G is abelian."""
    return all(np.array_equal(G.table[g], G.table[:, g]) for g in G.generating_set)


def order_statistics(G: FiniteGroup) -> dict[int, int]:
    """Map each element order d to the number of elements of order d."""
    return dict(sorted(Counter(G.membership.sum(axis=1).tolist()).items()))
