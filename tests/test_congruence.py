"""Congruence generation, the brute-force oracle, and the Galois closure."""

import copy
import functools
import itertools
import pickle
import random
import re

import pytest

from mnlab import (Partition, UnaryAlgebra, all_congruences, congruence,
                   congruences_oracle, cyclic, dihedral, galois_is_closed,
                   gset_algebra, klein, preserving_maps, regular_action,
                   symmetric)
from mnlab.congruence import (_congruence_set, _lattice_from_rgs,
                               _principal_rgs, _principals)
from mnlab.partition import INDEX_SIZE_BOUND, rgs_canonical, rgs_refines
from mnlab.perm import PermGroup

from oracles import (all_partitions, atom_systems, orbits_bfs, point_blocks,
                     preserves, rgs_meet)

KLEIN_REGULAR = gset_algebra(regular_action(klein()))


def brute_force_maps(size, parts):
    """Independent route: filter all size**size tables."""
    out = []
    for images in itertools.product(range(size), repeat=size):
        if all(preserves(images, p) for p in parts):
            out.append(images)
    return out


@functools.lru_cache(maxsize=None)
def _partitions(size):
    return tuple(all_partitions(size))


def filtered_congruences(size, ops):
    """Independent route: filter every partition through every op."""
    return {tuple(p) for p in _partitions(size)
            if all(preserves(op, p) for op in ops)}


class TestGsetAlgebra:
    def test_klein_regular_tables(self):
        assert KLEIN_REGULAR.size == 4
        assert KLEIN_REGULAR.ops == ((1, 0, 3, 2), (2, 3, 0, 1))

    def test_identity_action_has_free_congruences(self):
        A = gset_algebra(PermGroup.trivial(3))
        assert A.ops == ()
        assert all_congruences(A).n == 5  # every partition of a 3-set

    def test_natural_dihedral_action(self):
        A = gset_algebra(dihedral(3))
        assert A.size == 3 and len(A.ops) == 2

    def test_validation(self):
        with pytest.raises(ValueError,
                           match=r"^bad operation table \(0, 1\) for size 3$"):
            UnaryAlgebra(3, [[0, 1]])
        with pytest.raises(ValueError,
                           match=r"^bad operation table \(0, 1, 7\) for size 3$"):
            UnaryAlgebra(3, ((0, 1, 2), (0, 1, 7)))
        with pytest.raises(ValueError, match="^carrier must be nonempty$"):
            UnaryAlgebra(0, ())


class TestUnaryAlgebra:
    def test_equality_and_hash_ignore_the_name(self):
        A = UnaryAlgebra(3, [[1, 2, 0]], name="a")
        B = UnaryAlgebra(3, ((1, 2, 0),), name="b")
        assert A == B and hash(A) == hash(B) and len({A, B}) == 1
        assert A.ops == ((1, 2, 0),) and A.name == "a"
        assert A != UnaryAlgebra(3, ((2, 0, 1),))
        assert A != UnaryAlgebra(3, ((1, 2, 0), (1, 2, 0)))
        assert UnaryAlgebra(3, ()) != UnaryAlgebra(4, ())
        assert A != (3, ((1, 2, 0),))

    def test_assignment_raises(self):
        A = UnaryAlgebra(2, ((1, 0),), name="swap")
        for attr in ("size", "ops", "name", "other"):
            with pytest.raises(AttributeError,
                               match=f"^cannot assign to field '{attr}'$"):
                setattr(A, attr, None)
        with pytest.raises(AttributeError):
            del A.ops
        assert (A.size, A.ops, A.name) == (2, ((1, 0),), "swap")

    def test_copy_pickle_and_repr(self):
        A = UnaryAlgebra(2, ((1, 0),), name="swap")
        for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert B == A and B.name == "swap"
        assert repr(A) == "UnaryAlgebra(size=2, ops=1)"


class TestPreserves:
    def test_block_swap(self):
        assert preserves((1, 0, 3, 2), Partition((0, 0, 1, 1)))

    def test_bottom_always_preserved(self):
        for op in itertools.product(range(3), repeat=3):
            assert preserves(op, Partition((0, 1, 2)))

    def test_split_blocks_detected(self):
        assert not preserves((1, 0, 2), Partition((0, 1, 0)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            preserves((0, 1), Partition((0, 1, 2)))


def principal(A, a, b):
    return _principal_rgs(A.size, A.ops, a, b)


class TestPrincipal:
    def test_klein_pair(self):
        assert principal(KLEIN_REGULAR, 0, 1) == (0, 0, 1, 1)

    def test_reflexive_seed_gives_bottom(self):
        assert principal(KLEIN_REGULAR, 2, 2) == (0, 1, 2, 3)

    def test_three_cycle_smears_to_top(self):
        A = UnaryAlgebra(3, ((1, 2, 0),))
        assert principal(A, 0, 1) == (0, 0, 0)

    def test_principal_is_meet_of_containing_congruences(self):
        rng = random.Random(7)
        for _ in range(40):
            size = rng.randint(2, 6)
            ops = tuple(tuple(rng.randrange(size) for _ in range(size))
                        for _ in range(rng.randint(1, 3)))
            A = UnaryAlgebra(size, ops)
            congs = [p for p in all_partitions(size)
                     if all(preserves(op, p) for op in ops)]
            a, b = rng.randrange(size), rng.randrange(size)
            above = [c for c in congs if c[a] == c[b]]
            assert principal(A, a, b) == functools.reduce(rgs_meet, above)


def union_find_principals(size, ops):
    return {_principal_rgs(size, ops, a, b)
            for a in range(size) for b in range(a + 1, size)}


class TestPrincipals:
    """The fixpoint on atom masks against one union-find closure per pair."""

    def test_seeded_algebras(self):
        rng = random.Random(27)
        kinds = [lambda n: [rng.randrange(n) for _ in range(n)],  # random
                 lambda n: [rng.randrange(n)] * n,                # constant
                 lambda n: [rng.randrange(2) for _ in range(n)],  # into {0, 1}
                 lambda n: rng.sample(range(n), n)]               # a bijection
        for size in range(1, INDEX_SIZE_BOUND + 1):
            for n_ops in range(4):
                for _ in range(12):
                    ops = [tuple(rng.choice(kinds)(size)) for _ in range(n_ops)]
                    assert (_principals(size, ops)
                            == union_find_principals(size, ops)), (size, ops)

    def test_every_transitive_action_of_s1_to_s6(self, symmetric_subgroups):
        actions = 0
        for d in range(1, 7):
            for G in symmetric_subgroups(d):
                gens = [g.images for g in G.generators]
                if len(orbits_bfs(d, gens)) == 1:
                    assert _principals(d, gens) == union_find_principals(d, gens)
                    actions += 1
        assert actions == 312

    def test_image_pairs_late_in_the_numbering(self):
        """Under x -> min(x + 1, 6), Cg(a, b) is the block a..6, reached
        through image pairs numbered after (a, b): one pass in pair order
        does not get there."""
        assert _principals(7, [(1, 2, 3, 4, 5, 6, 6)]) == {
            tuple(range(a)) + (a,) * (7 - a) for a in range(6)}
        shift = tuple((i + 1) % 7 for i in range(7))
        assert _principals(7, [shift]) == {(0,) * 7}  # 7 is prime

    def test_index_bound_picks_the_principal_path(self, monkeypatch):
        """Up to INDEX_SIZE_BOUND points the principal congruences come from
        the mask fixpoint with no union-find; one point more, from one
        _principal_rgs call per pair."""
        calls = []
        real = congruence._principal_rgs
        monkeypatch.setattr(congruence, "_principal_rgs",
                            lambda *args: calls.append(args) or real(*args))
        for size in (INDEX_SIZE_BOUND, INDEX_SIZE_BOUND + 1):
            rotation = tuple((i + 1) % size for i in range(size))
            calls.clear()
            assert (_principals(size, [rotation])
                    == union_find_principals(size, [rotation]))
            assert len(calls) == (size * (size - 1) // 2
                                  if size > INDEX_SIZE_BOUND else 0), size


class TestAllCongruences:
    def test_klein_regular_is_m3(self):
        L = all_congruences(KLEIN_REGULAR)
        assert L.n == 5 and L.detect_mn() == 3
        assert congruences_oracle(KLEIN_REGULAR) == L

    def test_cyclic4_regular_is_chain(self):
        L = all_congruences(gset_algebra(cyclic(4)))
        assert L.n == 3 and L.is_chain()

    def test_regular_s3_is_m4(self):
        L = all_congruences(gset_algebra(regular_action(symmetric(3))))
        assert L.n == 6 and L.detect_mn() == 4
        assert congruences_oracle(gset_algebra(regular_action(symmetric(3)))) == L

    def test_size_one_carrier(self):
        assert all_congruences(UnaryAlgebra(1, ())).n == 1

    def test_size_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            all_congruences(UnaryAlgebra(70, ()))

    def test_monotone_in_operations(self):
        rng = random.Random(11)
        for _ in range(30):
            size = rng.randint(2, 6)
            ops = [tuple(rng.randrange(size) for _ in range(size))
                   for _ in range(3)]
            small = _congruence_set(size, ops)
            big = _congruence_set(size, ops[:2])
            assert small <= big


class TestOracle:
    def test_no_ops_keeps_everything(self):
        L = congruences_oracle(UnaryAlgebra(3, ()))
        assert L.n == 5 and L.detect_mn() == 3

    def test_constant_op_keeps_everything(self):
        assert congruences_oracle(UnaryAlgebra(4, ((0, 0, 0, 0),))).n == 15

    def test_size_bound(self):
        with pytest.raises(ValueError, match="oracle bound"):
            congruences_oracle(UnaryAlgebra(12, ()))

    def test_agreement_on_random_algebras(self):
        rng = random.Random(2024)
        for _ in range(60):
            size = rng.randint(1, 7)
            ops = tuple(tuple(rng.randrange(size) for _ in range(size))
                        for _ in range(rng.randint(0, 3)))
            A = UnaryAlgebra(size, ops)
            assert all_congruences(A) == congruences_oracle(A)

    @pytest.mark.parametrize("size", [8, 9])
    def test_agreement_above_the_partition_index(self, size):
        """Carriers past INDEX_SIZE_BOUND close on RGS with rgs_join."""
        rng = random.Random(size)
        shapes = set()
        for _ in range(6):
            ops = tuple(tuple(rng.randrange(size) for _ in range(size))
                        for _ in range(rng.randint(1, 3)))
            A = UnaryAlgebra(size, ops)
            L = all_congruences(A)
            assert L == congruences_oracle(A)
            shapes.add(L.n)
        assert len(shapes) > 1  # not one trivial lattice over and over

    def test_closure_paths_agree_across_the_index_bound(self):
        """A 7-point algebra, closed on coatom masks, and the same algebra
        with an 8th point that every op fixes, closed with rgs_join: the
        8-point congruences restrict onto the 7-point ones, and those that
        keep the new point alone correspond one to one with them."""
        assert INDEX_SIZE_BOUND == 7
        rng = random.Random(78)
        for _ in range(8):
            ops = [tuple(rng.randrange(7) for _ in range(7))
                   for _ in range(rng.randint(1, 2))]
            small = _congruence_set(7, ops)
            big = _congruence_set(8, [op + (7,) for op in ops])
            assert {r[:7] for r in big} == small
            alone = [r[:7] for r in big if r[7] > max(r[:7])]
            assert len(alone) == len(small) and set(alone) == small

    def test_index_bound_picks_the_closure_path(self, monkeypatch):
        """Up to INDEX_SIZE_BOUND points the closure joins coatom masks and
        calls no rgs_join; one point more, it joins RGS."""
        calls = []
        real = congruence.rgs_join
        monkeypatch.setattr(congruence, "rgs_join",
                            lambda a, b: calls.append(a) or real(a, b))
        for size in (INDEX_SIZE_BOUND, INDEX_SIZE_BOUND + 1):
            calls.clear()
            rotation = tuple((i + 1) % size for i in range(size))
            assert _congruence_set(size, [rotation])
            assert bool(calls) == (size > INDEX_SIZE_BOUND), size

    def test_block_systems_agree_with_sympy(self, symmetric_subgroups):
        """sympy's own block routines, on every transitive subgroup of S4,
        S5 and S6: primitive iff Con is the 2-element chain, and the minimal
        block systems are the atoms of Con."""
        from sympy.combinatorics import Permutation, PermutationGroup

        transitive = {}
        for d in (4, 5, 6):
            for K in symmetric_subgroups(d):
                G = PermutationGroup([Permutation(list(g.images))
                                      for g in K.generators] or [Permutation(d - 1)])
                if not G.is_transitive():
                    continue
                transitive[d] = transitive.get(d, 0) + 1
                con = _congruence_set(d, [g.images for g in K.generators])
                assert G.is_primitive() == (len(con) == 2)
                L = all_congruences(gset_algebra(K))
                rgs = sorted(con)  # the lattice's element order
                assert ({rgs_canonical(b) for b in G.minimal_blocks()}
                        == {rgs[a] for a in L.atoms()})
        assert transitive == {4: 9, 5: 20, 6: 279}


def test_interval_map_of_natural_actions(symmetric_subgroups):
    """For every transitive subgroup G of S_d, d <= 6, with G_0 the
    stabilizer of 0: K -> blocks g(K(0)) maps [G_0, G] one-to-one onto the
    congruences of G's natural action, and K1 <= K2 iff the first block
    system refines the second."""
    groups = members = 0
    for d in range(1, 7):
        subs = symmetric_subgroups(d)
        for G in subs:
            gens = [g.images for g in G.generators]
            if len(orbits_bfs(d, gens)) != 1:
                continue
            stabilizer = {g for g in G if g[0] == 0}
            iv = [K for K in subs if stabilizer <= K <= G]
            blocks = [point_blocks(G, K) for K in iv]
            assert len(set(blocks)) == len(iv)
            assert set(blocks) == _congruence_set(d, gens)
            for K1, b1 in zip(iv, blocks):
                for K2, b2 in zip(iv, blocks):
                    assert (K1 <= K2) == rgs_refines(b1, b2)
            groups += 1
            members += len(iv)
    assert (groups, members) == (312, 1077)


class TestOracleSearch:
    """The oracle's pruned search against the plain filter over every
    partition: the same RGS set, and the same lattice, labels included."""

    @staticmethod
    def check(size, ops):
        L = congruences_oracle(UnaryAlgebra(size, ops))
        want = filtered_congruences(size, ops)
        assert {tuple(map(int, s.split(","))) for s in L.labels} == want
        assert L == _lattice_from_rgs(want)
        return L

    def test_every_operation_on_up_to_four_points(self):
        tables = [op for size in range(1, 5)
                  for op in itertools.product(range(size), repeat=size)]
        assert len(tables) == 288
        for op in tables:
            self.check(len(op), (op,))

    def test_every_pair_of_operations_on_three_points(self):
        tables = list(itertools.product(range(3), repeat=3))
        pairs = list(itertools.product(tables, repeat=2))
        assert len(pairs) == 729
        for ops in pairs:
            self.check(3, ops)

    @pytest.mark.parametrize("size", [5, 6, 7, 8, 9])
    def test_seeded_algebras(self, size):
        rng = random.Random(size)
        sizes = set()
        for _ in range(6):
            # ops into the first few points keep more partitions preserved
            image = rng.randint(3, size)
            ops = tuple(tuple(rng.randrange(image) for _ in range(size))
                        for _ in range(rng.randint(1, 3)))
            sizes.add(self.check(size, ops).n)
        assert len(sizes) > 1

    @pytest.mark.parametrize("size,bell", enumerate([1, 2, 5, 15, 52, 203, 877], 1))
    def test_op_free_carrier_keeps_every_partition(self, size, bell):
        assert congruences_oracle(UnaryAlgebra(size, ())).n == bell


class TestPreservingMaps:
    def test_three_atoms_leave_identity_and_constants(self):
        atoms = [Partition(r) for r in ((0, 0, 1), (0, 1, 0), (0, 1, 1))]
        assert preserving_maps(3, atoms) == [(0, 0, 0), (0, 1, 2),
                                             (1, 1, 1), (2, 2, 2)]

    def test_no_constraints_gives_all_maps(self):
        assert len(preserving_maps(3, [])) == 27

    def test_klein_triple(self):
        parts = [Partition(r) for r in ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))]
        maps = preserving_maps(4, parts)
        assert len(maps) == 8  # four translations + four constants
        assert set(maps) == set(brute_force_maps(4, parts))

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_against_brute_force(self, size):
        rng = random.Random(size)
        parts = list(all_partitions(size))
        for _ in range(12):
            chosen = rng.sample(parts, k=rng.randint(0, min(3, len(parts))))
            assert preserving_maps(size, chosen) == sorted(
                brute_force_maps(size, chosen))

    def test_size_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            preserving_maps(9, [])
        # the bound itself is admitted: the maps keeping every pair of 8
        # points together or swapped are the identity and the constants
        atoms = [rgs_canonical(x if i == y else i for i in range(8))
                 for x in range(8) for y in range(x + 1, 8)]
        assert preserving_maps(8, atoms) == sorted(
            [tuple(range(8))] + [(c,) * 8 for c in range(8)])


def galois_closure(size, parts):
    """The Galois closure of ``parts``: the congruence lattice of the algebra
    of every map preserving them."""
    return all_congruences(UnaryAlgebra(size, preserving_maps(size, parts)))


class TestRgsParts:
    """The Galois functions take partitions as RGS sequences, checked."""

    @pytest.mark.parametrize("bad", [(0, 1), (0, 2, 1), (0, -1, 1),
                                     (0, 0.5, 1)])
    @pytest.mark.parametrize("fn", [preserving_maps, galois_closure,
                                    galois_is_closed])
    def test_bad_part_is_named(self, fn, bad):
        with pytest.raises(ValueError, match=re.escape(f"part {bad!r}")):
            fn(3, [(0, 0, 1), bad])

    def test_plain_tuples_lists_and_partitions_agree(self):
        rng = random.Random(3)
        systems = [(3, [(0, 0, 1), (0, 1, 0), (0, 1, 1)]),
                   (4, [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)])]
        for size in (3, 4, 5):
            pool = [tuple(p) for p in all_partitions(size)]
            systems += [(size, rng.sample(pool, k=rng.randint(1, 3)))
                        for _ in range(8)]
        closed = 0
        for size, plain in systems:
            assert all(type(r) is tuple for r in plain)
            wrapped = [Partition(r) for r in plain]
            lists = [list(r) for r in plain]
            maps = preserving_maps(size, plain)
            assert preserving_maps(size, wrapped) == maps
            assert preserving_maps(size, lists) == maps
            L = galois_closure(size, plain)
            assert galois_closure(size, wrapped) == L
            assert galois_closure(size, lists) == L
            verdict = galois_is_closed(size, plain)
            assert galois_is_closed(size, wrapped) == verdict
            assert galois_is_closed(size, lists) == verdict
            closed += verdict
        assert closed >= 2


class TestGaloisClosure:
    def test_eq3_atoms_closed_as_m3(self):
        atoms = [Partition(r) for r in ((0, 0, 1), (0, 1, 0), (0, 1, 1))]
        L = galois_closure(3, atoms)
        assert L.detect_mn() == 3 and L.n == 5
        assert galois_is_closed(3, atoms)

    def test_klein_triple_closed(self):
        parts = [Partition(r) for r in ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))]
        L = galois_closure(4, parts)
        assert L.n == 5 and L.detect_mn() == 3
        assert L == all_congruences(KLEIN_REGULAR)

    def test_four_atom_system_on_small_carrier_never_closed(self):
        # every size-4 candidate, every pairwise-top size-5 one and a seeded
        # sample of the other size-5 ones: the early-exit check agrees with
        # the full closure
        top5 = [c for c, flag in atom_systems(5, 4) if flag]
        rest5 = [c for c, flag in atom_systems(5, 4) if not flag]
        size4 = [c for c, _ in atom_systems(4, 4)]
        assert (len(size4), len(top5), len(rest5)) == (34, 70, 4780)
        sample = ([(4, c) for c in size4] + [(5, c) for c in top5]
                  + [(5, c) for c in random.Random(4).sample(rest5, 100)])
        for size, combo in sample:
            parts = [Partition(r) for r in combo]
            closure = _congruence_set(size, preserving_maps(size, parts))
            assert set(combo) < closure  # grows strictly
            want = {tuple(range(size)), (0,) * size, *combo}
            closed = galois_is_closed(size, parts)
            assert closed == (closure == want)
            assert not closed

    def test_principal_outside_the_system_decides_without_joining(
            self, monkeypatch):
        """On 4 points, Cg(0, 1) of the maps preserving (0, 0, 0, 1) and
        (0, 0, 1, 0) is (0, 0, 1, 2), outside the system, so the check
        answers False before any join; a system whose principals all lie
        in it is joined."""
        joined = []
        real = congruence._join_closure
        monkeypatch.setattr(congruence, "_join_closure",
                            lambda size, gens: joined.append(gens) or real(size, gens))
        assert not galois_is_closed(4, [(0, 0, 0, 1), (0, 0, 1, 0)])
        assert joined == []
        assert not galois_is_closed(4, [(0, 0, 1, 2), (0, 1, 2, 2)])
        assert len(joined) == 1

    def test_closure_contains_inputs_and_bounds(self):
        rng = random.Random(5)
        for _ in range(20):
            size = rng.randint(2, 5)
            pool = list(all_partitions(size))
            parts = rng.sample(pool, k=rng.randint(1, min(3, len(pool))))
            closure = _congruence_set(size, preserving_maps(size, parts))
            assert tuple(range(size)) in closure
            assert (0,) * size in closure
            assert set(parts) <= closure

    def test_closure_is_fixed_point(self):
        rng = random.Random(9)
        for _ in range(10):
            size = rng.randint(2, 5)
            pool = list(all_partitions(size))
            parts = rng.sample(pool, k=rng.randint(1, min(3, len(pool))))
            once = _congruence_set(size, preserving_maps(size, parts))
            twice = _congruence_set(size, preserving_maps(
                size, [Partition(r) for r in once]))
            assert once == twice
