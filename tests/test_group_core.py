"""Multiplication-table validation, element orders, cyclic subgroups."""

import random
from collections import Counter

import numpy as np
import pytest

from latgraph.catalog import build_group, parse_group_expr
from latgraph.group_core import (
    CyclicSubgroup,
    EmptyTable,
    GroupTableError,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
    TooLarge,
    cyclic_subgroups,
    generated_subgroup,
    is_abelian,
    order_statistics,
    validate_group,
)
from latgraph.lattice import divisors, totient

from conftest import (
    CORPUS,
    element_order,
    group_of,
    maximal_cyclic_subgroups,
    naive_associativity_witness,
    reference_identity,
    reference_inverses,
    relabel,
)


def z_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


class TestValidateGroup:
    def test_trivial_group(self):
        G = validate_group([[0]])
        assert G.order == 1
        assert G.identity == 0

    def test_z6_addition_table(self):
        G = validate_group(z_table(6))
        assert G.order == 6
        assert G.identity == 0
        assert G.inverse[2] == 4

    def test_corrupted_z6_entry_is_caught(self):
        table = z_table(6)
        table[1][1] = 3
        with pytest.raises((NotAssociative, MissingInverse)):
            validate_group(table)

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTable):
            validate_group([])

    def test_non_square_rejected(self):
        with pytest.raises(GroupTableError):
            validate_group([[0, 1], [1, 0], [0, 1]])

    def test_out_of_range_entry(self):
        table = z_table(4)
        table[2][3] = 7
        with pytest.raises(NotClosed) as info:
            validate_group(table)
        assert (info.value.x, info.value.y, info.value.value) == (2, 3, 7)

    def test_witness_beyond_int32_is_the_input_value(self):
        # narrowed to int32 first, 2**32 + 1 would wrap to 1, the right entry
        table = np.array(z_table(2), dtype=np.int64)
        table[0, 1] = 2**32 + 1
        with pytest.raises(NotClosed) as info:
            validate_group(table)
        assert (info.value.x, info.value.y, info.value.value) == (0, 1, 4294967297)
        assert "4294967297" in str(info.value)

    def test_keeps_a_read_only_int32_table_that_owns_its_memory(self):
        table = np.array(z_table(6), dtype=np.int32)
        table.setflags(write=False)
        G = validate_group(table)
        assert G.table is table
        assert not table.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda t: t[:, :],  # a view: its base stays writeable
        lambda t: np.asfortranarray(t),
        lambda t: t.astype(np.int64),
    ])
    def test_copies_any_other_read_only_table(self, make):
        base = np.array(z_table(6), dtype=np.int32)
        table = make(base)
        table.setflags(write=False)
        G = validate_group(table)
        assert G.table is not table
        assert not table.flags.writeable
        assert G.table.dtype == np.int32 and G.table.flags.c_contiguous
        base[0, 0] = 5
        assert G.table[0, 0] == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64, np.uint64])
    def test_stores_a_read_only_int32_copy(self, dtype):
        table = np.array(z_table(6), dtype=dtype)
        G = validate_group(table)
        assert G.table.dtype == np.int32
        assert not G.table.flags.writeable
        assert np.array_equal(G.table, table)
        assert table.flags.writeable
        table[0, 0] = 5  # the caller's array stays the caller's
        assert G.table[0, 0] == 0

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            validate_group([[0, 0], [0, 0]])

    def test_not_associative_names_witness(self):
        table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
        with pytest.raises((NotAssociative, MissingInverse)):
            validate_group(table)

    def test_non_associative_loop_with_identity_and_inverses(self):
        # the smallest loop that is not a group: order 5, every element an involution
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAssociative) as info:
            validate_group(table)
        x, y, z = info.value.x, info.value.y, info.value.z
        assert table[table[x][y]][z] != table[x][table[y][z]]

    def test_order_cap(self):
        with pytest.raises(TooLarge):
            validate_group(z_table(9), order_cap=8)

    def test_accepts_every_catalog_group(self, bundles):
        # construction already validates; re-validate the stored tables
        for bundle in bundles.values():
            G = validate_group(np.asarray(bundle.group.table))
            assert G.order == bundle.group.order

    @pytest.mark.parametrize("expr", CORPUS)
    def test_corpus_identity_and_inverses(self, expr, bundles):
        t = bundles[expr].group.table.tolist()
        G = validate_group(t)
        assert G.identity == reference_identity(t)
        assert G.inverse.tolist() == reference_inverses(t, G.identity)[1]


def scanned_outcome(t: np.ndarray):
    """What validate_group must do with table t, by the full scans: the
    exception type and its witness, or the identity and inverses.  Light's
    test need not name the first failing triple, so an associativity
    failure has no witness here."""
    n = len(t)
    bad = np.argwhere((t < 0) | (t >= n))
    if len(bad):
        x, y = map(int, bad[0])
        return NotClosed, (x, y, int(t[x, y]))
    identity = reference_identity(t)
    if identity is None:
        return NoIdentity, None
    missing, inverse = reference_inverses(t, identity)
    if missing is not None:
        return MissingInverse, missing
    if naive_associativity_witness(t) is not None:
        return NotAssociative, None
    return None, (identity, inverse)


def validated_outcome(t: np.ndarray):
    """validate_group's outcome on t in the form of scanned_outcome, after
    checking that a NotAssociative witness is a genuine failing triple and
    that t and its writeable flag are left as they were."""
    before, writeable = t.copy(), t.flags.writeable
    try:
        G = validate_group(t)
        outcome = None, (G.identity, G.inverse.tolist())
    except NotClosed as exc:
        outcome = NotClosed, (exc.x, exc.y, exc.value)
    except NoIdentity:
        outcome = NoIdentity, None
    except MissingInverse as exc:
        outcome = MissingInverse, exc.x
    except NotAssociative as exc:
        x, y, z = exc.x, exc.y, exc.z
        assert t[t[x, y], z] != t[x, t[y, z]]
        outcome = NotAssociative, None
    assert np.array_equal(t, before)
    assert t.flags.writeable == writeable
    return outcome


def _row0_not_a_permutation(t, identity, rng):
    c1, c2 = rng.sample(range(len(t)), 2)
    t[0, c1] = t[0, c2]


def _zero_before_the_identity(t, identity, rng):
    # row 0 reads 0 in a column before the identity's, so the first
    # candidate is not the identity
    t[0, rng.randrange(identity) if identity else rng.randrange(1, len(t))] = 0


def _one_sided_first_right_inverse(t, identity, rng):
    # a right inverse of x in a column before its two-sided inverse
    inverse = (t == identity).argmax(axis=1)
    x = rng.choice(np.flatnonzero(inverse > 0).tolist())
    t[x, rng.randrange(inverse[x])] = identity


def _no_right_inverse(t, identity, rng):
    x = rng.randrange(len(t))
    y = int(np.flatnonzero(t[x] == identity)[0])
    t[x, y] = rng.choice([v for v in range(len(t)) if v != identity])


def _out_of_range(t, identity, rng):
    n = len(t)
    for _ in range(rng.randrange(1, 4)):
        t[rng.randrange(n), rng.randrange(n)] = rng.choice([n, n + 5, -1, -7, 2**40])


class TestFastChecksAgainstScans:
    """The range, identity and inverse checks decide a group table in about
    one pass each; on seeded mutants they must raise what the full scans
    name, with the same witness, and pick the same identity and inverses."""

    MUTATIONS = {
        "none": lambda t, identity, rng: None,
        "row-0-not-a-permutation": _row0_not_a_permutation,
        "zero-before-the-identity": _zero_before_the_identity,
        "one-sided-first-right-inverse": _one_sided_first_right_inverse,
        "no-right-inverse": _no_right_inverse,
        "out-of-range": _out_of_range,
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("expr", ["Z(7)", "S(3)", "Q(8)", "D(10)", "Z(2)xZ(4)", "A(4)"])
    def test_same_outcome_and_witness_as_the_scans(self, mutation, expr):
        table = np.asarray(group_of(expr).table)
        kinds = set()
        for seed in range(12):
            t = relabel(table, seed).astype(np.int64)
            identity = int(np.flatnonzero(t[0] == 0)[0])
            self.MUTATIONS[mutation](t, identity, random.Random(seed))
            outcome = validated_outcome(t)
            assert outcome == scanned_outcome(t)
            kinds.add(outcome[0])
        if mutation == "none":
            assert kinds == {None}
        elif mutation == "out-of-range":
            assert kinds == {NotClosed}
        else:
            assert None not in kinds

    def test_later_identity_candidate_is_found(self):
        # Z(3) with identity 2, then a second 0 in row 0, before column 2
        t = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        t[0, 0] = 0
        assert reference_identity(t) == 2
        assert validated_outcome(t) == scanned_outcome(t) == (NotAssociative, None)


def intercalates(t: np.ndarray, identity: int) -> list[tuple[int, int, int, int]]:
    """2x2 Latin subsquares (rows r1 < r2, columns c1, c2) that avoid the
    identity's row, column and entries, so swapping one keeps closure, the
    identity and every two-sided inverse."""
    n = len(t)
    col_of = np.argsort(t, axis=1)  # col_of[r, v] = the column where row r holds v
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                a, b = int(t[r1, c1]), int(t[r2, c1])
                c2 = int(col_of[r1, b])
                if t[r2, c2] == a and identity not in (r1, r2, c1, c2, a, b):
                    out.append((r1, r2, c1, c2))
    return out


class TestLightsTest:
    """Differential check of the associativity test against the full triple
    loop, on group tables with one intercalate swapped: the swap keeps every
    other axiom, so only associativity can fail."""

    @pytest.mark.parametrize("expr", [
        "Z(2)xZ(2)xZ(2)", "Z(4)xZ(4)", "D(8)", "Q(8)", "Z(2)xZ(6)", "S(4)",
        "Z(2)xZ(2)xZ(2)xZ(2)", "D(16)",
    ])
    def test_agrees_with_triple_loop_after_intercalate_swap(self, expr):
        table = np.asarray(group_of(expr).table)
        for seed in range(3):
            t = relabel(table, seed)
            identity = validate_group(t).identity
            found = intercalates(t, identity)
            assert found
            rng = random.Random(seed)
            for r1, r2, c1, c2 in rng.sample(found, min(4, len(found))):
                u = t.copy()
                u[[r1, r1, r2, r2], [c1, c2, c1, c2]] = t[[r1, r1, r2, r2], [c2, c1, c2, c1]]
                witness = naive_associativity_witness(u)
                if witness is None:
                    G = validate_group(u)
                    assert G.identity == identity
                    continue
                with pytest.raises(NotAssociative) as info:
                    validate_group(u)
                x, y, z = info.value.x, info.value.y, info.value.z
                assert u[u[x, y], z] != u[x, u[y, z]]

    def test_witness_in_a_later_block_is_the_first_failing_pair(self):
        # Z(2)^11 as XOR: an intercalate swapped in rows 1500 and 1600 breaks
        # associativity only in rows past the first block of rows
        n = 2048
        ids = np.arange(n, dtype=np.int32)
        t = np.bitwise_xor.outer(ids, ids)
        r1, r2, c1 = 1500, 1600, 1700
        c2 = c1 ^ r1 ^ r2
        t[[r1, r1, r2, r2], [c1, c2, c1, c2]] = t[[r1, r1, r2, r2], [c2, c1, c2, c1]]
        with pytest.raises(NotAssociative) as info:
            validate_group(t, order_cap=n)
        x, a, z = info.value.x, info.value.y, info.value.z
        assert x >= (1 << 20) // n
        first = np.argwhere(t[t[:, a]] != t[:, t[a]])[0].tolist()
        assert [x, z] == first


class TestElementOrder:
    def test_identity_has_order_one(self):
        G = group_of("D(12)")
        assert element_order(G, G.identity) == 1

    def test_z12_element_5(self):
        G = group_of("Z(12)")
        assert element_order(G, 5) == 12

    @pytest.mark.parametrize("k", range(12))
    def test_zn_formula(self, k):
        # order of k in Z_12 is 12 / gcd(12, k)
        from math import gcd

        G = group_of("Z(12)")
        assert element_order(G, k) == 12 // gcd(12, k)

    def test_c2xc6_has_six_elements_of_order_six(self):
        G = group_of("Z(2)xZ(6)")
        gens = [x for sub in maximal_cyclic_subgroups(G) for x in sub.generators]
        assert len(gens) == 6
        assert all(element_order(G, x) == 6 for x in gens)


class TestGeneratedSubgroup:
    def test_z6_element_2(self):
        sub = generated_subgroup(group_of("Z(6)"), 2)
        assert sub == CyclicSubgroup(order=3, members=(0, 2, 4), generators=(2, 4))

    def test_identity_generates_trivial_subgroup(self):
        G = group_of("Q(8)")
        sub = generated_subgroup(G, G.identity)
        assert sub.members == (G.identity,)
        assert sub.generators == (G.identity,)

    def test_z12_element_5_generates_everything(self):
        sub = generated_subgroup(group_of("Z(12)"), 5)
        assert sub.order == 12
        assert len(sub.generators) == totient(12) == 4

    def test_member_count_equals_element_order(self, bundles):
        for expr in ("Z(24)", "D(16)", "S(4)", "Heis(3)"):
            G = bundles[expr].group
            for x in G.elements():
                assert len(generated_subgroup(G, x).members) == element_order(G, x)


class TestCyclicSubgroups:
    def test_c2xc6_census(self):
        subs = cyclic_subgroups(group_of("Z(2)xZ(6)"))
        by_order = {}
        for s in subs:
            by_order[s.order] = by_order.get(s.order, 0) + 1
        assert by_order == {1: 1, 2: 3, 3: 1, 6: 3}

    def test_zn_subgroups_match_divisors(self):
        subs = cyclic_subgroups(group_of("Z(12)"))
        assert [s.order for s in subs] == divisors(12)

    def test_trivial_group(self):
        assert len(cyclic_subgroups(group_of("Z(1)"))) == 1

    def test_totient_sum_is_group_order(self, bundles):
        for bundle in bundles.values():
            total = sum(totient(s.order) for s in cyclic_subgroups(bundle.group))
            assert total == bundle.group.order

    def test_every_subgroup_below_some_maximal(self):
        G = group_of("S(4)")
        maximal = [set(s.members) for s in maximal_cyclic_subgroups(G)]
        for sub in cyclic_subgroups(G):
            assert any(set(sub.members) <= m for m in maximal)


class TestMembership:
    def test_built_once_and_read_only(self):
        G = group_of("S(4)")
        M = G.membership
        assert G.membership is M
        with pytest.raises(ValueError):
            M[0, 1] = True
        assert not M[0, 1]

    def test_derived_reads_match_element_walks(self, bundles):
        for bundle in bundles.values():
            G = bundle.group
            walks = {generated_subgroup(G, x) for x in G.elements()}
            assert cyclic_subgroups(G) == sorted(walks, key=lambda s: (s.order, s.members))
            sets = [set(s.members) for s in walks]
            maximal = sorted(
                (s for s in walks if not any(set(s.members) < t for t in sets)),
                key=lambda s: (s.order, s.members),
            )
            assert maximal_cyclic_subgroups(G) == maximal
            orders = Counter(element_order(G, x) for x in G.elements())
            assert order_statistics(G) == dict(sorted(orders.items()))


class TestMaximalCyclicSubgroups:
    def test_c2xc6(self):
        maxes = maximal_cyclic_subgroups(group_of("Z(2)xZ(6)"))
        assert [s.order for s in maxes] == [6, 6, 6]

    def test_cyclic_group_has_one(self):
        maxes = maximal_cyclic_subgroups(group_of("Z(30)"))
        assert len(maxes) == 1
        assert maxes[0].order == 30

    def test_s4_census(self):
        maxes = maximal_cyclic_subgroups(group_of("S(4)"))
        counts = {}
        for s in maxes:
            counts[s.order] = counts.get(s.order, 0) + 1
        assert counts == {4: 3, 3: 4, 2: 6}
        assert len(maxes) == 13


class TestIsAbelian:
    def test_cyclic(self):
        assert is_abelian(group_of("Z(6)"))

    def test_s3(self):
        assert not is_abelian(group_of("S(3)"))

    def test_heisenberg(self):
        assert not is_abelian(group_of("Heis(3)"))

    @pytest.mark.parametrize("expr", CORPUS + ("Heis(3)xZ(3)xZ(3)xZ(3)xZ(3)",))
    def test_generators_agree_with_the_whole_table(self, expr):
        # the corpus holds the order-16 catalog; the last group has order
        # 2187 and needs five generators
        G = build_group(parse_group_expr(expr), order_cap=2187).group
        assert is_abelian(G) == np.array_equal(G.table, G.table.T)
        # the elements Light's test checked generate G
        reached = {G.identity}
        frontier = list(reached)
        while frontier:
            new = {int(G.table[x, g]) for x in frontier for g in G.generating_set} - reached
            reached |= new
            frontier = list(new)
        assert len(reached) == G.order


class TestOrderStatistics:
    def test_c2xc6(self):
        assert order_statistics(group_of("Z(2)xZ(6)")) == {1: 1, 2: 3, 3: 2, 6: 6}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_cyclic(self, p):
        assert order_statistics(group_of(f"Z({p})")) == {1: 1, p: p - 1}

    def test_exponent_three_lookalikes(self):
        stats = {1: 1, 3: 26}
        assert order_statistics(group_of("Z(3)xZ(3)xZ(3)")) == stats
        assert order_statistics(group_of("Heis(3)")) == stats

    def test_counts_are_totient_multiples(self, bundles):
        for bundle in bundles.values():
            stats = order_statistics(bundle.group)
            assert sum(stats.values()) == bundle.group.order
            for d, count in stats.items():
                assert count % totient(d) == 0
