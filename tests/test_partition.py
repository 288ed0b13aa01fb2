"""Restricted-growth-string partitions and their lattice operations."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mnlab import Partition, bell_number
from mnlab.partition import (all_rgs, partition_index, rgs_canonical,
                             rgs_closure, rgs_join, rgs_refines)

from oracles import all_partitions, closure_by_intersection, rgs_meet

labelings = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n))


class TestCanonicalForm:
    def test_valid_rgs(self):
        Partition((0, 0, 1, 2, 1))
        with pytest.raises(ValueError):
            Partition((0, 2, 1))  # block 2 appears before block 1
        with pytest.raises(ValueError):
            Partition((1, 0))

    @pytest.mark.parametrize("labels", [(0, 0.5, 1), (0, 1.0), (0, "1")])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="restricted-growth"):
            Partition(labels)

    @given(labelings)
    def test_rgs_canonical(self, labels):
        p = Partition(rgs_canonical(labels))
        # same grouping, canonical numbering
        for i, j in itertools.combinations(range(len(labels)), 2):
            assert (p[i] == p[j]) == (labels[i] == labels[j])

    def test_value_is_the_rgs(self):
        p = Partition([0, 1, 0])
        assert p == (0, 1, 0) and isinstance(p, tuple)
        assert hash(p) == hash((0, 1, 0))
        assert {p: 1}[(0, 1, 0)] == 1
        assert repr(p) == "Partition((0, 1, 0))"


class TestComparisons:
    def test_order_semantics(self):
        """Refinement is rgs_refines; the comparison operators are the
        lexicographic tuple order, which is not refinement."""
        a, b = Partition((0, 1, 2, 2)), Partition((0, 0, 1, 1))
        c = Partition((0, 1, 0, 1))
        assert rgs_refines(a, b) and not rgs_refines(b, a)
        assert not rgs_refines(c, b) and not rgs_refines(b, c)
        assert rgs_refines(a, a)
        # b < a and b <= a although a refines b, and c > b although
        # neither refines the other
        assert b < a and b <= a and not a <= b and b < c and c > b
        assert sorted([c, a, b]) == [b, c, a]
        assert a == Partition((0, 1, 2, 2)) and a != b
        # a plain RGS on either side compares the same way
        assert rgs_refines(a, (0, 0, 1, 1)) and rgs_refines((0, 1, 2, 2), b)
        assert not rgs_refines((0, 0, 1, 1), a)
        assert (0, 0, 1, 1) < a and b == (0, 0, 1, 1)
        with pytest.raises(TypeError):
            a & b  # no meet operator


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5),
                                         (4, 15), (5, 52), (6, 203)])
    def test_counts_match_bell(self, n, count):
        parts = list(all_rgs(n))
        assert len(parts) == count == bell_number(n)
        assert len(set(parts)) == count
        assert parts == all_partitions(n)

    def test_lexicographic_order(self):
        rgss = list(all_rgs(4))
        assert rgss == sorted(rgss)
        assert rgss[0] == (0, 0, 0, 0)
        assert rgss[-1] == (0, 1, 2, 3)


class TestLatticeOps:
    """``rgs_join`` and ``rgs_refines``, with the meet of ``oracles``."""

    def test_meet_join_hand_example(self):
        a, b = (0, 0, 1, 1), (0, 1, 1, 0)
        assert rgs_meet(a, b) == (0, 1, 2, 3)
        assert rgs_join(a, b) == (0, 0, 0, 0)

    def test_bottom_top_neutral(self):
        bot, top = tuple(range(4)), (0,) * 4
        for p in all_partitions(4):
            assert rgs_join(p, bot) == p and rgs_meet(p, top) == p
            assert rgs_meet(p, bot) == bot and rgs_join(p, top) == top
            assert rgs_refines(bot, p) and rgs_refines(p, top)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_axioms_exhaustive(self, n):
        parts = list(all_partitions(n))
        meet, join = rgs_meet, rgs_join
        for a, b in itertools.product(parts, repeat=2):
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert meet(a, join(a, b)) == a  # absorption
            assert join(a, meet(a, b)) == a
        for a, b, c in itertools.product(parts, repeat=3):
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert join(join(a, b), c) == join(a, join(b, c))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_refines_consistent_with_meet_join(self, n):
        for a, b in itertools.product(all_partitions(n), repeat=2):
            assert rgs_refines(a, b) == (rgs_meet(a, b) == a) \
                == (rgs_join(a, b) == b)

    def test_meet_join_are_bounds(self):
        for a, b in itertools.product(all_partitions(4), repeat=2):
            m, j = rgs_meet(a, b), rgs_join(a, b)
            assert rgs_refines(m, a) and rgs_refines(m, b)
            assert rgs_refines(a, j) and rgs_refines(b, j)
            # the join is the least: the closure of both related-pair sets
            pairs = [(x, y) for x, y in itertools.combinations(range(4), 2)
                     if a[x] == a[y] or b[x] == b[y]]
            assert j == closure_by_intersection(4, pairs, ())


class TestClosure:
    """``rgs_closure`` against the intersection of every partition that
    relates the pairs and is compatible with the ops."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_pair_set_without_ops(self, n):
        points = itertools.combinations_with_replacement(range(n), 2)
        all_pairs = [(y, x) for x, y in points]  # reflexive ones included
        for k in range(len(all_pairs) + 1):
            for pairs in itertools.combinations(all_pairs, k):
                assert rgs_closure(n, pairs, ()) == \
                    closure_by_intersection(n, pairs, ()), pairs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_op_with_each_pair(self, n):
        pair_lists = [[]] + [[(a, b)] for a in range(n) for b in range(n)]
        for op in itertools.product(range(n), repeat=n):
            for pairs in pair_lists:
                assert rgs_closure(n, pairs, [op]) == \
                    closure_by_intersection(n, pairs, [op]), (op, pairs)

    def test_seeded_cases_up_to_six_points(self):
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(1, 6)
            ops = [tuple(rng.randrange(n) for _ in range(n))
                   for _ in range(rng.randint(0, 3))]
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 3))]
            assert rgs_closure(n, pairs, ops) == \
                closure_by_intersection(n, pairs, ops), (n, ops, pairs)


class TestPartitionIndex:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_ids_follow_all_rgs(self, n):
        ix = partition_index(n)
        assert ix.parts == tuple(all_rgs(n))
        assert ix.parts[ix.top] == (0,) * n
        assert ix.parts[ix.bottom] == tuple(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coatom_masks_decide_top_joins(self, n):
        ix = partition_index(n)
        top = (0,) * n
        for (i, a), (j, b) in itertools.product(enumerate(ix.parts), repeat=2):
            assert (ix.co[i] & ix.co[j] == 0) == (rgs_join(a, b) == top)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coatom_mask_superset_is_refinement(self, n):
        ix = partition_index(n)
        for (i, a), (j, b) in itertools.product(enumerate(ix.parts), repeat=2):
            assert (ix.co[j] & ~ix.co[i] == 0) == rgs_refines(a, b)

    def test_size_7_index(self):
        ix = partition_index(7)
        assert len(ix.parts) == 877
        assert ix.co[ix.top] == 0
        # bits 0..62, one per two-block partition, 2^6 - 1 of them
        assert ix.co[ix.bottom] == (1 << 63) - 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_lookups_invert_parts_and_coatom_masks(self, n):
        """Every partition has its own coatom mask, so both lookups are
        one-to-one."""
        ix = partition_index(n)
        assert len(ix.ids) == len(ix.co_ids) == len(ix.parts) == bell_number(n)
        for i, r in enumerate(ix.parts):
            assert ix.ids[r] == i and ix.co_ids[ix.co[i]] == i

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coatom_mask_of_a_join_is_the_and(self, n):
        ix = partition_index(n)
        for (i, a), (j, b) in itertools.product(enumerate(ix.parts), repeat=2):
            assert ix.parts[ix.co_ids[ix.co[i] & ix.co[j]]] == rgs_join(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_disjoint_relations_meet_at_bottom(self, n):
        ix = partition_index(n)
        bottom = tuple(range(n))
        for (i, a), (j, b) in itertools.product(enumerate(ix.parts), repeat=2):
            assert (ix.rel[i] & ix.rel[j] == 0) == (rgs_meet(a, b) == bottom)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_relation_subset_is_refinement(self, n):
        ix = partition_index(n)
        for (i, a), (j, b) in itertools.product(enumerate(ix.parts), repeat=2):
            assert (ix.rel[i] & ~ix.rel[j] == 0) == rgs_refines(a, b)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_pair_bits_and_atoms(self, n):
        """pair_ids gives x, y in either order the bit of {x, y} in a pair
        relation, and atoms[t] is the coatom mask of the partition whose
        relation is that bit alone: x and y in one block, all else apart."""
        ix = partition_index(n)
        assert len(ix.pair_ids) == n * (n - 1) and len(ix.atoms) == n * (n - 1) // 2
        for x, y in itertools.permutations(range(n), 2):
            atom = rgs_canonical(min(x, y) if i == max(x, y) else i for i in range(n))
            t = ix.pair_ids[x, y]
            assert ix.rel[ix.ids[atom]] == 1 << t
            assert ix.atoms[t] == ix.co[ix.ids[atom]]

    def test_size_bound(self):
        with pytest.raises(ValueError, match="outside"):
            partition_index(8)
