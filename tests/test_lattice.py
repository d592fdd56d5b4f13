"""Cyclic subgroup lattices: construction, validation, stages, utilities."""

import itertools
import json

import pytest

from latgraph import formats
from latgraph.formats import lattice_from_json, lattice_to_json
from latgraph.group_core import cyclic_subgroups
from latgraph.lattice import (
    CyclicLattice,
    InvalidLattice,
    build_lattice,
    divisor_cover_pairs,
    divisors,
    is_prime,
    levelize,
    reachability,
    totient,
    validate_lattice,
)

from conftest import CORPUS, down_set, group_of, naive_member_sets, predecessors


class TestNumberTheory:
    @pytest.mark.parametrize(
        "d,phi", [(1, 1), (2, 1), (6, 2), (12, 4), (16, 8), (27, 18), (100, 40)]
    )
    def test_totient(self, d, phi):
        assert totient(d) == phi

    def test_totient_rejects_zero(self):
        with pytest.raises(ValueError):
            totient(0)

    @pytest.mark.parametrize("n", [0, -6])
    def test_divisors_rejects_a_non_positive_n(self, n):
        with pytest.raises(ValueError, match=f"divisors requires a positive integer, got {n}$"):
            divisors(n)

    def test_divisor_cover_pairs_of_12(self):
        assert divisor_cover_pairs(12) == {
            (1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12),
        }

    def test_divisor_cover_pairs_trivial(self):
        assert divisor_cover_pairs(1) == set()

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_divisor_cover_pairs_prime(self, p):
        assert divisor_cover_pairs(p) == {(1, p)}

    def test_divisor_cover_pairs_by_brute_force(self):
        # d -> e is a cover when d | e and e / d has no factor but itself
        for n in range(1, 2001):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            covers = {
                (d, e) for d in divs for e in divs
                if e % d == 0 and e > d and all((e // d) % k for k in range(2, e // d))
            }
            assert divisor_cover_pairs(n) == covers, n


class TestIsPrime:
    def test_agrees_with_trial_division_below_10_5(self):
        small = [p for p in range(2, 317) if all(p % q for q in range(2, p))]

        def trial_division(n):
            for p in small:
                if p * p > n:
                    break
                if n % p == 0:
                    return False
            return n >= 2

        for n in range(-5, 10**5):
            assert is_prime(n) == trial_division(n), n

    @pytest.mark.parametrize(
        "n",
        [
            561,  # a Carmichael number
            3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
            3825123056546413051,  # a strong pseudoprime to the bases 2 to 31
            318665857834031151167461,  # a strong pseudoprime to the bases 2 to 37
            (10**9 + 7) * (10**9 + 9),
        ],
    )
    def test_composites(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
    def test_large_primes(self, p):
        assert is_prime(p)


def expected_c2xc6_lattice() -> CyclicLattice:
    """Hand-built lattice of C2 x C6: bottom, three order-2 atoms, one
    order-3 atom, three order-6 tops; each top covers its own order-2 node
    and the shared order-3 node."""
    orders = (1, 2, 2, 2, 3, 6, 6, 6)
    covers = {(0, 1), (0, 2), (0, 3), (0, 4)}
    covers |= {(1, 5), (2, 6), (3, 7)}
    covers |= {(4, 5), (4, 6), (4, 7)}
    return CyclicLattice(orders=orders, covers=frozenset(covers))


class TestBuildLattice:
    def test_c2xc6_counts(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        assert L.node_count == 8
        assert len(L.covers) == 10

    def test_c2xc6_exact_structure(self):
        from latgraph.iso import labeled_lattice_isomorphism

        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        assert labeled_lattice_isomorphism(L, expected_c2xc6_lattice()).found

    def test_z12_is_divisor_poset(self):
        L = build_lattice(group_of("Z(12)")).lattice
        assert L.node_count == 6
        assert len(L.covers) == 7
        order_of = L.orders
        assert {(order_of[lo], order_of[hi]) for lo, hi in L.covers} == divisor_cover_pairs(12)

    def test_trivial_group(self):
        L = build_lattice(group_of("Z(1)")).lattice
        assert L.node_count == 1
        assert L.covers == frozenset()

    def test_nodes_align_with_subgroups(self):
        LS = build_lattice(group_of("D(12)"))
        for v, sub in enumerate(LS.subgroup_of):
            assert LS.lattice.orders[v] == sub.order

    def test_covers_match_direct_hasse_computation(self, bundles):
        # independent definition: proper inclusion with nothing strictly between
        for expr in ("Z(24)", "Z(2)xZ(6)", "D(16)", "S(4)", "Q(16)", "Heis(3)"):
            G = bundles[expr].group
            L = bundles[expr].lattice.lattice
            subs = cyclic_subgroups(G)
            sets = [set(s.members) for s in subs]
            direct = set()
            for i in range(len(subs)):
                for j in range(len(subs)):
                    if sets[i] < sets[j] and not any(
                        sets[i] < sets[k] < sets[j] for k in range(len(subs))
                    ):
                        direct.add((i, j))
            assert set(L.covers) == direct


    def test_covers_match_pairwise_subset_test(self, bundles):
        # the inclusion test build_lattice replaced: subsets of prime index
        for bundle in bundles.values():
            subs = sorted(
                {frozenset(m) for m in naive_member_sets(bundle.group)},
                key=lambda s: (len(s), sorted(s)),
            )
            L = bundle.lattice.lattice
            assert L.orders == tuple(len(s) for s in subs)
            pairwise = {
                (i, j)
                for i, lo in enumerate(subs)
                for j, hi in enumerate(subs)
                if lo < hi and all(len(hi) // len(lo) % p for p in range(2, len(hi) // len(lo)))
            }
            assert set(L.covers) == pairwise


class TestDerivedOnce:
    def test_reachability_is_read_only(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        R = reachability(L)
        assert reachability(L) is R
        with pytest.raises(ValueError):
            R[L.orders.index(1), 1] = True
        assert not L.violations

    def test_levelize_returns_a_fresh_list(self):
        L = build_lattice(group_of("S(4)")).lattice
        stages = levelize(L)
        expected = [set(s) for s in stages]
        stages[0].add(5)
        stages.append({0})
        del stages[1]
        assert levelize(L) == expected
        assert levelize(L) is not levelize(L)
        assert not L.violations

    def test_checks_report_the_same_violations_twice(self):
        L = CyclicLattice(orders=(1, 4), covers=frozenset({(0, 1)}))
        expected = (
            "cover (0,1) has non-prime order quotient 4/1",
            "down-set of node 1 (order 4) has orders [1, 4], expected the divisors [1, 2, 4]",
        )
        for _ in range(2):
            with pytest.raises(InvalidLattice) as raised:
                validate_lattice(L)
            assert str(raised.value) == "; ".join(expected)
            assert L.violations == expected


class TestDownSetAndPredecessors:
    def test_bottom_down_set(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        bottom = L.orders.index(1)
        assert down_set(L, bottom) == {bottom}

    def test_order6_down_set_in_c2xc6(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        v = next(u for u in L.nodes() if L.orders[u] == 6)
        below = down_set(L, v)
        assert len(below) == 4
        assert sorted(L.orders[u] for u in below) == [1, 2, 3, 6]

    def test_top_of_z12(self):
        L = build_lattice(group_of("Z(12)")).lattice
        top = next(u for u in L.nodes() if L.orders[u] == 12)
        assert down_set(L, top) == set(L.nodes())

    def test_down_set_size_is_divisor_count(self, bundles):
        for expr in ("Z(36)", "S(4)", "SD(16)", "Q(8)xZ(3)"):
            L = bundles[expr].lattice.lattice
            for v in L.nodes():
                assert len(down_set(L, v)) == len(divisors(L.orders[v]))

    def test_bottom_has_no_predecessors(self):
        L = build_lattice(group_of("Z(6)")).lattice
        assert predecessors(L, L.orders.index(1)) == set()

    def test_order6_predecessors_in_c2xc6(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        v = next(u for u in L.nodes() if L.orders[u] == 6)
        assert sorted(L.orders[u] for u in predecessors(L, v)) == [2, 3]

    def test_prime_order_node_covers_only_bottom(self):
        L = build_lattice(group_of("D(8)")).lattice
        for v in L.nodes():
            if L.orders[v] == 2:
                assert predecessors(L, v) == {L.orders.index(1)}

    def test_reachability_is_transitive_closure_of_covers(self, bundles):
        for expr in ("Z(2)xZ(6)", "S(4)", "Z(60)", "G16(13)", "Heis(3)"):
            L = bundles[expr].lattice.lattice
            closure = {(v, v) for v in L.nodes()} | set(L.covers)
            while True:
                grown = closure | {(a, d) for a, b in closure for c, d in closure if b == c}
                if grown == closure:
                    break
                closure = grown
            R = reachability(L)
            assert {(a, c) for a in L.nodes() for c in L.nodes() if R[c, a]} == closure


class TestValidateLattice:
    def test_catalog_lattices_are_valid(self, bundles):
        for bundle in bundles.values():
            L = bundle.lattice.lattice
            assert not L.violations, (bundle.expr, L.violations)
            assert validate_lattice(L) is None

    def test_two_bottoms_rejected(self):
        L = CyclicLattice(orders=(1, 1, 2), covers=frozenset({(0, 2)}))
        assert L.violations
        assert any("order 1" in v for v in L.violations)
        with pytest.raises(InvalidLattice, match="order 1"):
            validate_lattice(L)

    def test_composite_cover_quotient_rejected(self):
        L = CyclicLattice(orders=(1, 2, 8), covers=frozenset({(0, 1), (1, 2)}))
        assert any("non-prime" in v for v in L.violations)

    def test_ambiguous_meet_rejected(self):
        # atoms of orders 2 and 3 both covered by two tops of order 6: every
        # other check passes, and the tops have no unique meet
        L = CyclicLattice(
            orders=(1, 2, 3, 6, 6),
            covers=frozenset({(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)}),
        )
        assert L.violations == ("nodes 3,4 have no greatest common lower bound",)

    def test_ambiguous_meet_found_under_any_numbering(self):
        # the same two tops over two atoms, under every numbering of the
        # nodes: the meet check must single out the pair of tops
        covers = {(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)}
        for perm in itertools.permutations(range(5)):
            orders = [0] * 5
            for old, d in enumerate((1, 2, 3, 6, 6)):
                orders[perm[old]] = d
            L = CyclicLattice(
                orders=tuple(orders),
                covers=frozenset((perm[lo], perm[hi]) for lo, hi in covers),
            )
            meets = [m for m in L.violations if "lower bound" in m]
            u, v = sorted((perm[3], perm[4]))
            assert meets == [f"nodes {u},{v} have no greatest common lower bound"]

    def test_down_set_shape_rejected(self):
        # order-4 node covering the bottom directly: down-set misses a divisor
        L = CyclicLattice(orders=(1, 4), covers=frozenset({(0, 1)}))
        assert L.violations


class TestLevelize:
    def test_c2xc6_stages(self):
        L = build_lattice(group_of("Z(2)xZ(6)")).lattice
        stages = levelize(L)
        stage_orders = [sorted(L.orders[v] for v in stage) for stage in stages]
        assert stage_orders == [[1], [2, 2, 2, 3], [6, 6, 6]]

    def test_chain_gives_singleton_stages(self):
        L = build_lattice(group_of("Z(8)")).lattice
        assert [len(s) for s in levelize(L)] == [1, 1, 1, 1]

    def test_trivial(self):
        L = build_lattice(group_of("Z(1)")).lattice
        assert levelize(L) == [{L.orders.index(1)}]

    def test_stages_respect_covers(self, bundles):
        for expr in ("S(4)", "Z(60)", "G16(13)"):
            L = bundles[expr].lattice.lattice
            stage_of = {}
            for t, stage in enumerate(levelize(L)):
                for v in stage:
                    stage_of[v] = t
            for lo, hi in L.covers:
                assert stage_of[lo] < stage_of[hi]

    def test_cycle_raises(self):
        L = CyclicLattice(
            orders=(1, 2, 4), covers=frozenset({(0, 1), (1, 2), (2, 1)})
        )
        with pytest.raises(InvalidLattice):
            levelize(L)


class TestLatticeJson:
    @pytest.mark.parametrize("expr", CORPUS)
    def test_round_trip(self, expr):
        L = build_lattice(group_of(expr)).lattice
        assert lattice_from_json(lattice_to_json(L)) == L

    def test_ingestion_validates(self):
        text = '{"nodes":[{"id":0,"order":1},{"id":1,"order":4}],"covers":[[0,1]]}'
        with pytest.raises(InvalidLattice):
            lattice_from_json(text)

    def test_more_than_n_squared_covers_refused_before_any_is_read(self, monkeypatch):
        read = []
        monkeypatch.setattr(formats, "json_int", lambda v: read.append(v) or v)
        text = json.dumps({"nodes": [{"id": 0, "order": 1}, {"id": 1, "order": 2}],
                           "covers": [[0, 1]] * 5})
        with pytest.raises(ValueError, match=r"5 pairs, more than the 4 pairs of 2 ids"):
            lattice_from_json(text)
        assert read == [0, 1, 1, 2]  # each node's id and order, and no cover end

    def test_dense_ids_required(self):
        text = '{"nodes":[{"id":0,"order":1},{"id":2,"order":2}],"covers":[[0,2]]}'
        with pytest.raises(InvalidLattice):
            lattice_from_json(text)
