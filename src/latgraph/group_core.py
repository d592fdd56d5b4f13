"""Finite groups as explicit multiplication tables over integer element ids.

Elements are the integers 0..n-1 and every algebraic question reduces to
lookups in an n x n table (``table[x, y]`` is the product ``x * y``).
:func:`validate_group` is the single gate through which every table enters
the system.  It verifies every axiom exactly, with whole-table array
operations and no O(n^3) step: associativity by Light's test, which checks
only the elements of a generating set it grows greedily.

A group builds its membership matrix ``M`` (``M[z, x]``: x lies in <z>) once,
on first use, with one walk of powers per cyclic subgroup: the generators of
<z> share z's row.  The same walk keeps the cyclic subgroups it found, and
element orders are the row sums of ``M``.
"""

from __future__ import annotations

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
    """An order over the cap: ``size`` is the order, or, for one too long to
    print, its text as a power such as ``"2^3000000"``."""

    def __init__(self, size: int | str, cap: int):
        self.size, self.cap = size, cap
        super().__init__(f"group order {size} exceeds the cap of {cap}")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A validated finite group.  Immutable; safe to share between threads.
    Derived data (:attr:`membership` and the cyclic subgroups) is built on
    first use."""

    table: np.ndarray  # (n, n) int32 array, read-only
    identity: int
    inverse: np.ndarray  # (n,) int array, read-only

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

    Associativity is checked by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups*, section 1.2).  Call ``a`` associative
    when ``(x*a)*z == x*(a*z)`` for all ``x, z``; one such test is two
    n x n gathers.  The associative elements are closed under products in
    any magma, so the table is associative as soon as every element is a
    product of tested elements.  The loop tests the smallest element not yet
    reached, then closes the reached set under products.  Elements are
    reached only by passing the test or as products of ones that did, so the
    check is exact.  Once identity and inverses hold, the reached set is a
    subgroup that at least doubles with each test, so at most
    ``floor(log2(n)) + 1`` elements are tested.  The :class:`NotAssociative`
    witness ``(x, a, z)`` is a genuine failing triple, but not necessarily
    the first one in row-major order.
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

    bad = np.argwhere((arr < 0) | (arr >= n))
    if len(bad):
        x, y = map(int, bad[0])
        raise NotClosed(x, y, int(arr[x, y]))

    # every entry is now in [0, n), so int32 holds it: the NotClosed witness
    # above reports the input's own value, and Light's test below gathers
    # half the bytes of int64
    arr = arr.astype(np.int32, copy=True)
    ids = np.arange(n)
    # e is an identity when row e and column e both read 0..n-1
    is_identity = (arr == ids).all(axis=1) & (arr == ids[:, None]).all(axis=0)
    if not is_identity.any():
        raise NoIdentity()
    identity = int(is_identity.argmax())

    two_sided = (arr == identity) & (arr.T == identity)
    has_inverse = two_sided.any(axis=1)
    if not has_inverse.all():
        raise MissingInverse(int(has_inverse.argmin()))
    inverse = two_sided.argmax(axis=1)

    # each test runs over blocks of rows of about 2^20 cells, so its gathers
    # stay small next to the table; every table of order up to 1024 is one
    # block
    block = max(1, (1 << 20) // n)
    reached = np.zeros(n, dtype=bool)
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
        reached[a] = True
        while True:  # close the reached set under products
            m = np.flatnonzero(reached)
            reached[arr[np.ix_(m, m)]] = True
            if reached.sum() == len(m):
                break

    arr.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(table=arr, identity=identity, inverse=inverse)


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
    return bool(np.array_equal(G.table, G.table.T))


def order_statistics(G: FiniteGroup) -> dict[int, int]:
    """Map each element order d to the number of elements of order d."""
    return dict(sorted(Counter(G.membership.sum(axis=1).tolist()).items()))
