"""Order-labelled Hasse diagrams of cyclic subgroup lattices.

A :class:`CyclicLattice` stores one node per cyclic subgroup, labelled with
the subgroup's order, plus the cover relation (immediate inclusions).  The
order labels are not decoration: two groups can have isomorphic bare posets
of cyclic subgroups and still have different enhanced power graphs (the
divisor posets of 12 and 18 are both 2x3 grids), so every algorithm downstream
works with the labelled object.

Each lattice makes one Kahn pass over its covers, on first use.  It yields
the stages of :func:`levelize`, the acyclicity check of
:func:`validate_lattice` and the read-only reach matrix of
:func:`reachability`, ``R[c, a]`` meaning a <= c.  Since y lies in <x>
exactly when node(y) <= node(x), the membership matrix of the group is
``M = P·R·Pᵀ`` for the vertex-to-node incidence P, and the four power-type
graphs follow from M (see :mod:`latgraph.power_graphs`).  A valid lattice
lays out those vertices, each labelled by its node, and gathers its M once,
on first use; each graph is built on first access.
:func:`build_lattice` goes the other way, from a group: the covers below a
cyclic subgroup are its subgroups of prime index, read off its own members.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .group_core import CyclicSubgroup, FiniteGroup, cyclic_subgroups
from .power_graphs import PowerGraphs


class InvalidLattice(ValueError):
    """Raised when an operation requires a valid lattice and the check fails."""


def prime_power_parts(d: int) -> dict[int, int]:
    """The full prime powers of d by prime: ``{p: p^e}`` where p^e divides d
    and p^(e+1) does not; by trial division."""
    parts, m, p = {}, d, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            parts[p] = parts.get(p, 1) * p
        p += 1
    if m > 1:
        parts[m] = m
    return parts


@cache
def totient(d: int) -> int:
    """Euler's phi: count of integers in [1, d] coprime to d."""
    if d <= 0:
        raise ValueError(f"totient requires a positive integer, got {d}")
    return math.prod(q - q // p for p, q in prime_power_parts(d).items())


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    if n <= 0:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# the first 13 primes: as Miller-Rabin bases they decide every n below
# 3.3 * 10**24 (Sorenson & Webster, Math. Comp. 86 (2017))
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# a composite below 43² has a prime factor up to 41
_SMALL_PRIMES = frozenset(range(2, 43 * 43)).difference(
    *(range(p * p, 43 * 43, p) for p in _PRIME_BASES)
)


def is_prime(n: int) -> bool:
    """Primality: a set lookup below 43², then trial division by the primes
    up to 41 and deterministic Miller-Rabin to those 13 bases.  Exact below
    3.3·10²⁴; above it, a strong probable-prime test."""
    if n < 43 * 43:
        return n in _SMALL_PRIMES
    for p in _PRIME_BASES:
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisor_cover_pairs(n: int) -> set[tuple[int, int]]:
    """Cover pairs (d, d·p) of the divisor poset of n: d·p divides n for a
    prime p of n."""
    return {(d, d * p) for p in prime_power_parts(n) for d in divisors(n // p)}


@dataclass(frozen=True)
class CyclicLattice:
    """Hasse diagram with integer node ids; ``orders[v]`` is node v's label.
    Immutable; its Kahn pass, its checks, its vertex layout and M run once,
    on first use."""

    orders: tuple[int, ...]
    covers: frozenset[tuple[int, int]]  # (lower, upper)

    @property
    def node_count(self) -> int:
        return len(self.orders)

    def nodes(self) -> range:
        return range(self.node_count)

    @cached_property
    def _kahn_pass(self) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
        """One Kahn pass over the covers: stages as in :func:`levelize` (nodes
        on or above a cover cycle are in none) and the read-only R with
        ``R[c, a]`` when a <= c."""
        uppers: list[list[int]] = [[] for _ in self.nodes()]
        missing = [0] * self.node_count
        for lo, hi in self.covers:
            uppers[lo].append(hi)
            missing[hi] += 1
        R = np.eye(self.node_count, dtype=bool)
        stages: list[set[int]] = []
        stage = {v for v in self.nodes() if not missing[v]}
        while stage:
            stages.append(stage)
            ready: set[int] = set()
            for v in stage:
                for w in uppers[v]:
                    R[w] |= R[v]
                    missing[w] -= 1
                    if not missing[w]:
                        ready.add(w)
            stage = ready
        R.setflags(write=False)
        return tuple(map(frozenset, stages)), R

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every broken structural invariant, with witnesses; empty when valid.

        Checks in turn: nodes exist, orders are positive, covers name nodes
        (else stop); one order-1 node, the bottom; prime cover quotients; no
        cover cycle (else stop); each down-set's orders are its top's divisors,
        once each.  So the bottom is the only minimal node: a down-set is one
        node iff its orders are [1].  And u <= w in down(v) iff order(u) |
        order(w): down(w) has every divisor's order, and down(v) each order
        once.

        The last check, that each pair has a greatest lower bound, runs once
        every other check passes, when each down-set is a divisor lattice.
        The key of node v is its nodes u <= v whose order is a full prime
        power of order(v): p^e divides it and p^(e+1) does not.  Some pair
        lacks a meet exactly when two nodes share a key; each node is
        reported with the first node of its key.  If i and j have no meet,
        take two maximal common lower bounds a and b: their joins c <= i and
        c' <= j have order lcm(|a|, |b|) and differ, or c would be a larger
        common lower bound, and each full prime-power node of c lies below a
        or b, so c and c' share their keys.  Conversely, if c != c' share a
        key, a greatest common lower bound would lie above that key, so it
        would have their full order and equal both."""
        out: list[str] = []
        n = self.node_count
        if n == 0:
            return ("lattice has no nodes",)
        for v, d in enumerate(self.orders):
            if d < 1:
                out.append(f"node {v} has non-positive order {reprlib.repr(d)}")
        for lo, hi in self.covers:
            if not (0 <= lo < n and 0 <= hi < n):
                lo, hi = reprlib.repr(lo), reprlib.repr(hi)
                out.append(f"cover ({lo},{hi}) references unknown nodes")
        if out:
            return tuple(out)

        bottoms = [v for v in self.nodes() if self.orders[v] == 1]
        if len(bottoms) != 1:
            out.append(f"expected one node of order 1, found {bottoms}")

        for lo, hi in sorted(self.covers):
            dlo, dhi = self.orders[lo], self.orders[hi]
            if dhi % dlo != 0 or not is_prime(dhi // dlo):
                out.append(f"cover ({lo},{hi}) has non-prime order quotient {dhi}/{dlo}")

        stages, R = self._kahn_pass
        placed = set().union(*stages)
        if len(placed) < n:
            out.append(f"cover cycle through nodes {sorted(set(self.nodes()) - placed)}")
            return tuple(out)

        orders = np.array(self.orders)
        divisors_of = {d: divisors(d) for d in set(self.orders)}
        # the keys are made only while no other check has written a line
        parts_of = {} if out else {d: prime_power_parts(d).values() for d in divisors_of}
        first: dict[tuple[int, ...], int] = {}
        meets: list[str] = []
        for v, dv in enumerate(self.orders):
            below = R[v].nonzero()[0]
            found = orders[below].tolist()
            order_of = sorted(found)
            if order_of != divisors_of[dv]:
                out.append(f"down-set of node {v} (order {dv}) has orders {order_of}, "
                           f"expected the divisors {divisors_of[dv]}")
            elif not out:
                node_of = dict(zip(found, below.tolist()))
                u = first.setdefault(tuple(node_of[q] for q in parts_of[dv]), v)
                if u != v:
                    meets.append(f"nodes {u},{v} have no greatest common lower bound")
        return tuple(out or meets)

    @cached_property
    def vertex_labels(self) -> tuple[int, ...]:
        """The node of each vertex of the lattice's graphs, laid out stage by
        stage, in id order within a stage: each node v once per generator,
        phi(order(v)) times.  Raises :class:`InvalidLattice` when the lattice
        is not valid."""
        validate_lattice(self)
        nodes = [v for stage in levelize(self) for v in sorted(stage)]
        return tuple(v for v in nodes for _ in range(totient(self.orders[v])))

    @cached_property
    def power_graphs(self) -> PowerGraphs:
        """The four graphs of ``M = P·R·Pᵀ`` on :attr:`vertex_labels`, for the
        vertex-to-node incidence P: ``M[z, x]`` says node(x) <= node(z), that
        is, x lies in <z>.  M is one read-only gather of R; each graph is
        built on first access."""
        node = self.vertex_labels
        M = reachability(self).take(node, 0).take(node, 1)
        M.setflags(write=False)
        return PowerGraphs(M)


@dataclass(frozen=True)
class LatticeWithSubgroups:
    """A lattice together with the concrete subgroup behind each node."""

    lattice: CyclicLattice
    subgroup_of: tuple[CyclicSubgroup, ...]


def build_lattice(G: FiniteGroup) -> LatticeWithSubgroups:
    """Cyclic subgroup lattice of G: nodes in (order, members) order.

    A cyclic subgroup <z> of order d has exactly one subgroup of each order
    e dividing d, each of them cyclic, and the one of order e lies in the
    one of order f exactly when e divides f.  So <z> covers exactly its
    subgroups of prime index: one of order d/p for each prime p dividing d.
    The node of order d/p is the node of any member of <z> of that order,
    read off ``G.subgroup_index``.
    """
    subs = cyclic_subgroups(G)
    orders = tuple(s.order for s in subs)
    node = G.subgroup_index.tolist()
    covers = set()
    for j, s in enumerate(subs):
        node_of = {orders[node[x]]: node[x] for x in s.members}
        covers.update((node_of[s.order // p], j) for p in prime_power_parts(s.order))
    lattice = CyclicLattice(orders=orders, covers=frozenset(covers))
    return LatticeWithSubgroups(lattice=lattice, subgroup_of=tuple(subs))


def _acyclic_pass(L: CyclicLattice) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
    stages, R = L._kahn_pass
    if sum(map(len, stages)) < L.node_count:
        raise InvalidLattice("cover relation contains a cycle")
    return stages, R


def reachability(L: CyclicLattice) -> np.ndarray:
    """Read-only boolean matrix ``R`` with ``R[c, a]`` True when a <= c (row c
    is the down-set of c); raises :class:`InvalidLattice` on a cover cycle."""
    return _acyclic_pass(L)[1]


def validate_lattice(L: CyclicLattice) -> None:
    """Raise :class:`InvalidLattice` with every violation of L, joined by
    "; ", when :attr:`~CyclicLattice.violations` is not empty.

    Passing is a necessary condition only: a valid L need not be the cyclic
    subgroup lattice of any group.  Nodes of orders 1, 2 and 2 with covers
    0→1 and 0→2 pass, yet they have 3 generators in all and no group of
    order 3 has an element of order 2."""
    if L.violations:
        raise InvalidLattice("; ".join(L.violations))


def levelize(L: CyclicLattice) -> list[set[int]]:
    """Partition nodes into stages: a node enters once all its covers-from are placed.

    Stage 0 holds the minimal nodes, which in a valid lattice is just the
    bottom; stage t+1 holds the unplaced nodes all of whose immediate
    predecessors sit in stages <= t.  Raises :class:`InvalidLattice` on a
    cover cycle.  The list is the caller's own.
    """
    return [set(stage) for stage in _acyclic_pass(L)[0]]
