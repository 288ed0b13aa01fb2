"""Permutation and subgroup machinery."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mnlab.perm
from mnlab import (Perm, PermGroup, all_subgroups, alternating, catalog,
                   cyclic, dihedral, group_closure, interval, is_dihedral,
                   is_normal, klein, quaternion, quotient, regular_action,
                   symmetric)
from mnlab.perm import (_on_cosets, _solvable_residual, mulclose,
                        subgroup_records)

from oracles import (closure, core, derived_series_oracle, is_even, is_simple,
                     subgroups_join_closure)
from records_digest import digest, named, recorded

perms = st.integers(2, 6).flatmap(
    lambda d: st.permutations(range(d)).map(Perm))


def perm_pairs(d):
    return st.tuples(st.permutations(range(d)).map(Perm),
                     st.permutations(range(d)).map(Perm))


class TestPerm:
    def test_compose_hand_example(self):
        # p * q is p after q: (p * q)(x) = p(q(x))
        assert (Perm((1, 2, 0)) * Perm((1, 0, 2))).images == (2, 1, 0)

    def test_compose_identity_neutral(self):
        q = Perm((1, 2, 0))
        assert Perm((0, 1, 2)) * q == q

    def test_involution_squares_to_identity(self):
        t = Perm((1, 0))
        assert t * t == Perm((0, 1))

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            Perm((1, 0)) * Perm((1, 2, 0))

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            Perm((0, 0, 1))

    @given(st.integers(2, 6).flatmap(lambda d: perm_pairs(d)))
    def test_inverse_cancels(self, pq):
        p, _ = pq
        assert (p * ~p).is_identity() and (~p * p).is_identity()

    @given(st.integers(2, 5).flatmap(
        lambda d: st.tuples(*([st.permutations(range(d)).map(Perm)] * 3))))
    def test_composition_associative(self, pqr):
        p, q, r = pqr
        assert (p * q) * r == p * (q * r)

    def test_order_and_cycles(self):
        p = Perm.from_cycles(6, [(0, 1, 2), (3, 4)])
        assert p.order() == 6
        assert p.cycles() == [(0, 1, 2), (3, 4)]
        assert str(p) == "(0 1 2)(3 4)"
        assert str(Perm.identity(3)) == "e"

    @pytest.mark.parametrize("G", [symmetric(5), alternating(6)])
    def test_order_is_least_power_to_identity(self, G):
        for p in G:
            k, q = 1, p
            while not q.is_identity():
                k, q = k + 1, q * p
            assert p.order() == k, p


class TestPermIsBytes:
    """A permutation is its image bytes."""

    @given(st.lists(perms, min_size=1, max_size=8))
    def test_equals_hashes_and_sorts_as_bytes(self, ps):
        for p in ps:
            b = bytes(p.images)
            assert p == b and hash(p) == hash(b) and bytes(p) == b
        assert sorted(ps) == sorted(ps, key=lambda p: bytes(p.images))
        assert Perm((1, 0)) == b"\x01\x00"

    def test_images_are_plain_ints(self):
        for p in (Perm((True, False)), Perm((2, 0, 1)), Perm.identity(3)):
            assert all(type(x) is int for x in p.images)
        assert Perm((True, False)).images == (1, 0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_stays_perm(self, protocol):
        p = Perm((2, 0, 1))
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is Perm and q == p and q * q == p * p

    def test_copy_round_trip_stays_perm(self):
        p = Perm((2, 0, 1))
        for q in (copy.copy(p), copy.deepcopy(p)):
            assert type(q) is Perm and q == p and ~q == ~p

    def test_bad_images_messages(self):
        with pytest.raises(ValueError, match=re.escape(
                "not a bijection on 0..2: (0, 0, 1)")):
            Perm((0, 0, 1))
        with pytest.raises(ValueError, match="^degree 257 exceeds bound 256$"):
            Perm(range(257))


class TestGroupIdentity:
    """A group is identified by its element set alone."""

    def test_same_elements_other_generators(self):
        A = group_closure(3, [Perm((1, 0, 2)), Perm((0, 2, 1))])
        B = group_closure(3, [Perm((1, 2, 0)), Perm((1, 0, 2))])
        assert A.generators != B.generators
        assert A == B and hash(A) == hash(B)
        slots = {A: "A", B: "B"}
        assert len(slots) == 1 and slots[A] == "B"
        assert A != group_closure(3, [Perm((1, 2, 0))])

    def test_membership_of_perms_and_raw_bytes(self):
        G = cyclic(3)
        assert Perm((1, 2, 0)) in G and b"\x01\x02\x00" in G
        assert Perm((1, 0, 2)) not in G and b"\x01\x00\x02" not in G


class TestGroupIsItsElementSet:
    """PermGroup is a frozenset of its elements; <= is the subgroup order."""

    def test_equals_and_hashes_as_its_element_set(self):
        for G in (symmetric(3), cyclic(4), klein(), symmetric(4)):
            eset = frozenset(bytes(p) for p in G)
            assert G == eset and hash(G) == hash(eset)
        S4 = symmetric(4)
        assert set(subgroup_records(S4)) == set(all_subgroups(S4))

    def test_le_is_the_subgroup_order(self):
        subs = all_subgroups(symmetric(4)) + (symmetric(3), symmetric(5))
        for H in subs:
            for K in subs:
                inside = all(p in K.elements for p in H.elements)
                strict = inside and len(H.elements) < len(K.elements)
                assert (H <= K) == (K >= H) == inside
                assert (H < K) == (K > H) == strict

    def test_iterates_in_sorted_order_identity_first(self):
        for G in (symmetric(4), dihedral(5), klein()):
            assert list(G) == list(G.elements) == sorted(G.elements)
            assert G.elements[0].is_identity()

    def test_constructor_sorts_raw_bytes(self):
        G = PermGroup(3, [b"\x01\x02\x00"],
                      [b"\x02\x00\x01", b"\x00\x01\x02", b"\x01\x02\x00"])
        assert G.elements == (Perm((0, 1, 2)), Perm((1, 2, 0)), Perm((2, 0, 1)))
        assert all(type(p) is Perm for p in G.elements + G.generators)
        assert G == cyclic(3) and G.order == 3

    def test_pickle_and_copy_keep_the_group(self):
        G = dihedral(4)
        copies = [pickle.loads(pickle.dumps(G, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for H in copies + [copy.copy(G), copy.deepcopy(G)]:
            assert type(H) is PermGroup and H == G
            assert (H.degree, H.generators, H.elements) == (
                G.degree, G.generators, G.elements)
            assert all(type(p) is Perm for p in H.elements + H.generators)


class TestClosure:
    def test_two_transpositions_generate_s3(self):
        G = group_closure(3, [Perm((1, 0, 2)), Perm((0, 2, 1))])
        assert G.order == 6

    def test_empty_generating_set(self):
        G = group_closure(4, [])
        assert G.order == 1 and G.degree == 4

    def test_five_cycle(self):
        assert group_closure(5, [Perm((1, 2, 3, 4, 0))]).order == 5

    def test_generator_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            group_closure(3, [Perm((1, 0))])

    def test_elements_sorted_and_closed(self):
        G = group_closure(3, [Perm((1, 0, 2)), Perm((0, 2, 1))])
        assert list(G.elements) == sorted(G.elements)
        assert G.elements[0].is_identity()
        for p in G:
            for q in G:
                assert p * q in G
            assert ~p in G

    @pytest.mark.parametrize("G", [symmetric(4), dihedral(6), quaternion()],
                             ids=["S4", "D12", "Q8"])
    def test_subgroup_seed(self, G):
        """Seeded by each subgroup K, with K's generators and up to three
        random elements of G in random order, the closure is the oracle's
        closure of the same generators."""
        rng = random.Random(G.order)
        for K in all_subgroups(G):
            for _ in range(3):
                gens = [*K.generators, *rng.sample(G.elements, rng.randint(0, 3))]
                rng.shuffle(gens)
                want = closure(G.degree, gens)
                assert mulclose(G.degree, gens, seed=K) == want
                assert mulclose(G.degree, gens, seed=list(K)) == want
                assert mulclose(G.degree, gens) == want

    @pytest.mark.parametrize("G", [cyclic(1), cyclic(6), symmetric(4),
                                   dihedral(6), quaternion(), alternating(5)],
                             ids=["Z1", "Z6", "S4", "D12", "Q8", "A5"])
    def test_stop_above_is_the_order_bound(self, G):
        """None exactly when the closure has more than stop_above elements,
        unseeded or seeded by a subgroup, G itself included."""
        n = G.order
        for K in (PermGroup.trivial(G.degree), *all_subgroups(G)[1::7], G):
            gens = K.generators + G.generators
            assert mulclose(G.degree, gens, seed=K, stop_above=n) == G
            assert mulclose(G.degree, gens, seed=K, stop_above=n - 1) is None
        assert mulclose(G.degree, G.generators, stop_above=n) == G
        assert mulclose(G.degree, G.generators, stop_above=n - 1) is None


class TestSubgroups:
    def test_s3_has_six_subgroups(self):
        assert len(all_subgroups(symmetric(3))) == 6

    def test_cyclic_subgroup_count_is_divisor_count(self):
        assert len(all_subgroups(cyclic(4))) == 3
        assert len(all_subgroups(cyclic(12))) == 6

    def test_trivial_group(self):
        assert len(all_subgroups(PermGroup.trivial(2))) == 1

    def test_order_bound(self, monkeypatch):
        monkeypatch.setattr(mnlab.perm, "DEFAULT_ORDER_BOUND", 100)
        with pytest.raises(ValueError, match="exceeds bound"):
            all_subgroups(symmetric(5))

    @pytest.mark.parametrize("G", [symmetric(3), symmetric(4), dihedral(4),
                                   dihedral(6), regular_action(cyclic(8))])
    def test_lagrange(self, G):
        for H in all_subgroups(G):
            assert G.order % H.order == 0

    def test_join_closure_oracle_above_order_24(self):
        """The catalog groups the bounded-generation oracle cannot cover,
        and S5, whose subgroups are mostly not normal."""
        big = [(name, G) for name, G in catalog(48) if G.order > 24]
        assert len(big) == 110
        for name, G in big + [("S5", symmetric(5))]:
            assert all_subgroups(G) == subgroups_join_closure(G), name

    def test_join_closure_oracle_on_a5(self):
        """A5 is perfect: its solvable residual is itself, so its
        subgroups come from both the prime-index and the join step."""
        A5 = alternating(5)
        assert all_subgroups(A5) == subgroups_join_closure(A5)

    def test_published_count_a6(self):
        assert len(subgroup_records(alternating(6))) == 501

    def test_generators_close_to_their_set(self):
        """A prime-index step records H's generators plus x, so every
        record's generators must still generate exactly its element set."""
        groups = [G for _, G in catalog(48)] + [symmetric(d) for d in range(1, 7)]
        for G in groups:
            for eset, gens in subgroup_records(G).items():
                assert frozenset(mulclose(G.degree, gens)) == eset

    def test_subgroups_share_the_group_perms(self):
        """all_subgroups hands each subgroup G's own Perm objects, and the
        constructor keeps them, so no element is copied."""
        G = symmetric(4)
        own = {id(p) for p in G.elements}
        for K in all_subgroups(G):
            assert {id(p) for p in K.elements} <= own
            assert {id(p) for p in K.generators} <= own

    def test_join_is_least_upper_bound(self):
        """The closure of A and B is among the enumerated subgroups and lies
        below every enumerated subgroup that holds both."""
        G = symmetric(4)
        subs = all_subgroups(G)
        import itertools
        for A, B in itertools.combinations(subs[:12], 2):
            J = frozenset(mulclose(G.degree, A | B))
            assert J in subs and A <= J and B <= J
            for K in subs:
                if A <= K and B <= K:
                    assert J <= K


class TestRecordedRecords:
    """subgroup_records' sets, generators and dict order against the digests
    in tests/data/subgroup_records.sha256 (see tests/records_digest.py).
    S7 and A7 are listed there too and checked in CI, past this suite."""

    @pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "S6",
                                      "A5", "A6"])
    def test_symmetric_and_alternating(self, name):
        assert digest(named([name])[name]) == recorded()[name]

    def test_catalog_48(self):
        want = {n: d for n, d in recorded().items() if n.startswith("catalog48:")}
        assert len(want) == 184
        assert {n: digest(G) for n, G in named(want).items()} == want


class TestSolvableResidual:
    """_solvable_residual against the all-pairs derived series."""

    @staticmethod
    def residual(G):
        return _solvable_residual(G)

    def test_trivial_on_solvable_groups(self):
        ident = {bytes(range(4))}
        assert self.residual(symmetric(4)) == derived_series_oracle(symmetric(4)) == ident
        for name, G in catalog(48):
            ident = {bytes(range(G.degree))}
            assert self.residual(G) == derived_series_oracle(G) == ident, name

    def test_a5_in_s5_and_a5(self):
        A5 = alternating(5)
        for G in (symmetric(5), A5):
            assert self.residual(G) == derived_series_oracle(G) == A5

    def test_even_permutations_in_s6(self):
        S6 = symmetric(6)
        even = {p for p in S6 if is_even(p)}
        assert len(even) == 360
        assert self.residual(S6) == even


class TestInterval:
    def test_full_interval_is_all_subgroups(self):
        G = symmetric(3)
        triv = all_subgroups(G)[0]
        assert interval(G, triv) == all_subgroups(G)

    def test_degenerate_interval(self):
        G = symmetric(3)
        assert interval(G, G) == (G,)

    def test_a3_is_maximal(self):
        G = symmetric(3)
        A3 = next(H for H in all_subgroups(G) if H.order == 3)
        assert [K.order for K in interval(G, A3)] == [3, 6]

    def test_non_subgroup_rejected(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            interval(cyclic(4), cyclic(3))  # degree mismatch
        with pytest.raises(ValueError, match="not a subgroup"):
            interval(cyclic(4), dihedral(4))  # same degree, not contained


class TestCosets:
    """``_on_cosets``: G acting on the left cosets of H, numbered in order of
    their least members."""

    @staticmethod
    def index(G, H):
        return _on_cosets(G, H, [Perm.identity(G.degree)])[0].degree

    def test_counts(self):
        G = symmetric(3)
        H = next(K for K in all_subgroups(G) if K.order == 2)
        assert self.index(G, H) == 3
        assert self.index(G, G) == 1
        K = klein()
        assert self.index(K, all_subgroups(K)[0]) == 4

    def test_partition_property(self):
        """x sends coset i to the coset of x.r_i, where r_i is the i-th
        least coset minimum."""
        for G in (symmetric(3), dihedral(4), cyclic(6)):
            for H in all_subgroups(G):
                reps = sorted({min(g * h for h in H) for g in G})
                assert len(reps) * H.order == G.order
                for x, act in zip(G, _on_cosets(G, H, G)):
                    assert act.degree == len(reps)
                    for i, r in enumerate(reps):
                        assert min(x * r * h for h in H) == reps[act[i]]


class TestNormalityAndCore:
    def test_is_normal(self):
        G = symmetric(3)
        A3 = next(H for H in all_subgroups(G) if H.order == 3)
        H2 = next(H for H in all_subgroups(G) if H.order == 2)
        assert is_normal(G, A3)
        assert not is_normal(G, H2)
        assert is_normal(G, G)

    def test_core_examples(self):
        G = symmetric(3)
        A3 = next(H for H in all_subgroups(G) if H.order == 3)
        H2 = next(H for H in all_subgroups(G) if H.order == 2)
        assert core(G, H2).order == 1
        assert core(G, A3) == A3
        assert core(G, G) == G

    @pytest.mark.parametrize("G", [symmetric(3), dihedral(4), dihedral(6)])
    def test_core_is_largest_normal_inside(self, G):
        subs = all_subgroups(G)
        for H in subs:
            C = core(G, H)
            assert is_normal(G, C) and C <= H
            for N in subs:
                if N <= H and is_normal(G, N):
                    assert N <= C


class TestQuotient:
    def test_s3_mod_a3(self):
        G = symmetric(3)
        A3 = next(H for H in all_subgroups(G) if H.order == 3)
        assert quotient(G, A3).order == 2

    def test_mod_trivial_preserves_order(self):
        G = symmetric(3)
        triv = all_subgroups(G)[0]
        Q = quotient(G, triv)
        assert Q.order == G.order and Q.degree == G.order

    def test_d8_mod_center_has_exponent_2(self):
        G = dihedral(4)
        center = next(H for H in all_subgroups(G)
                      if H.order == 2 and is_normal(G, H))
        Q = quotient(G, center)
        assert Q.order == 4
        assert all((p * p).is_identity() for p in Q)

    def test_rejects_non_normal(self):
        G = symmetric(3)
        H2 = next(H for H in all_subgroups(G) if H.order == 2)
        assert quotient(G, H2) is None

    @pytest.mark.parametrize("G", [g for _, g in catalog(12)]
                             + [symmetric(4), dihedral(6)])
    def test_quotient_exists_iff_normal(self, G):
        for N in all_subgroups(G):
            assert (quotient(G, N) is not None) == (core(G, N) == N)

    def test_rejects_non_subgroup(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            quotient(cyclic(4), dihedral(4))

    def test_index_past_256_is_refused(self):
        """A non-normal subgroup of order 2 in S6 has index 360: its coset
        action cannot be encoded, so it is refused, not reported non-normal."""
        G = symmetric(6)
        H = group_closure(6, [Perm.from_cycles(6, [(0, 1)])])
        assert not is_normal(G, H)
        with pytest.raises(ValueError, match="256"):
            quotient(G, H)


class TestPredicates:
    def test_is_dihedral(self):
        assert is_dihedral(symmetric(3)) == 3
        assert is_dihedral(cyclic(4)) is None
        assert is_dihedral(klein()) == 2
        assert is_dihedral(cyclic(2)) is None
        assert is_dihedral(symmetric(4)) is None

    @pytest.mark.parametrize("m", range(2, 13))
    def test_dihedral_recognizes_construction(self, m):
        assert is_dihedral(dihedral(m)) == m

    def test_is_simple(self):
        assert is_simple(cyclic(3))
        assert not is_simple(cyclic(4))
        assert not is_simple(symmetric(3))
        with pytest.raises(ValueError):
            is_simple(PermGroup.trivial(1))
