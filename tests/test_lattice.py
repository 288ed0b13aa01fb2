"""Finite lattice representation, shape detection, DOT output."""

import os
import random
import subprocess
import sys
from pathlib import Path

import mnlab
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mnlab import (FinLattice, NotALatticeError, UnaryAlgebra,
                   all_congruences, all_subgroups, chain, cyclic, gset_algebra,
                   klein, regular_action, symmetric)
from mnlab.congruence import _congruence_set
from mnlab.partition import rgs_join

from oracles import (is_antisymmetric, is_join_irreducible, is_lattice,
                     is_reflexive, is_transitive, m_n, pair_has_join, rgs_meet)


@st.composite
def subset_families(draw):
    """A family of subsets of a 4- or 5-set, at most 12 of them, sometimes
    with the empty and the full set added so that lattices are common."""
    m = draw(st.integers(4, 5))
    masks = draw(st.sets(st.integers(0, 2 ** m - 1), min_size=2, max_size=12))
    if draw(st.booleans()):
        masks |= {0, 2 ** m - 1}
    return [frozenset(i for i in range(m) if x >> i & 1) for x in sorted(masks)]


@st.composite
def up_set_lists(draw):
    """Up-set lists on 0 to 6 elements: a random order (the closure of
    random pairs i < j, sometimes with a bottom and a top added), or a
    random relation, reflexive or not; then up to two bits flipped, one of
    them sometimes bit n, out of range."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        below = [1 << i for i in range(n)]  # the closure, column by column
        for j in range(n):
            for i in range(j):
                if draw(st.booleans()):
                    below[j] |= below[i]
        if n >= 2 and draw(st.booleans()):
            below = [1] + [b << 1 | 1 for b in below[:-2]] + [(1 << n) - 1]
        up = [sum(1 << j for j in range(n) if below[j] >> i & 1)
              for i in range(n)]
    else:
        up = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            up = [u | 1 << i for i, u in enumerate(up)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6)),
                              max_size=2 if n else 0)):
        up[i % n] ^= 1 << min(j, n)
    return up


def relabelled(up, perm):
    """Element i becomes perm[i]; bits at or above n stay where they are."""
    n = len(up)
    out = [0] * n
    for i, u in enumerate(up):
        out[perm[i]] = u >> n << n | sum(1 << perm[j] for j in range(n)
                                         if u >> j & 1)
    return out


def first_failure(up):
    """The error FinLattice(up) must raise, as (type, message), with message
    None for a missing join; None if up is a lattice order."""
    n = len(up)
    if n == 0:
        return NotALatticeError, "empty carrier has no bottom element"
    if any(u >> n for u in up):
        return ValueError, f"an up-set has a bit at or above n = {n}"
    leq = bit_matrix(up, n)
    for holds, what in ((is_reflexive, "reflexive"),
                        (is_antisymmetric, "antisymmetric"),
                        (is_transitive, "transitive")):
        if not holds(leq):
            return ValueError, f"order is not {what}"
    for axis, end in ((1, "bottom"), (0, "top")):
        if leq.all(axis=axis).sum() != 1:
            return NotALatticeError, f"{end} element is not unique"
    return None if is_lattice(leq) else (NotALatticeError, None)


def meet(L, i, j):
    """The meet of i and j through ``down``: the element whose down-set is
    their common down-set."""
    return L.down.index(L.down[i] & L.down[j])


def seeded_families():
    """300 seeded families of subsets of a 5-set, each with the empty and
    the full set, as (family, leq) with leq the inclusion matrix."""
    rng = random.Random(13)
    for _ in range(300):
        masks = {0, 31, *rng.sample(range(1, 31), rng.randint(4, 10))}
        family = [frozenset(i for i in range(5) if x >> i & 1)
                  for x in sorted(masks)]
        yield family, np.array([[a <= b for b in family] for a in family])


def bit_matrix(masks, n):
    """Row i holds bits 0..n-1 of masks[i]."""
    size = (n + 7) // 8
    return np.array([np.unpackbits(np.frombuffer(m.to_bytes(size, "little"),
                                                 np.uint8), bitorder="little")[:n]
                     for m in masks], dtype=bool)


def assert_walk_matches_definitions(L, leq):
    """up, down, covers, bottom, top and is_chain against the order matrix:
    j covers i iff i < j with no k strictly between."""
    n = len(leq)
    lt = leq & ~np.eye(n, dtype=bool)
    between = lt.astype(np.float32) @ lt.astype(np.float32)  # #k, i < k < j
    assert (bit_matrix(L.up, n) == leq).all()
    assert (bit_matrix(L.down, n) == leq.T).all()
    assert (bit_matrix(L.covers, n) == (lt & (between == 0))).all()
    assert [L.bottom] == np.flatnonzero(leq.all(axis=1)).tolist()
    assert [L.top] == np.flatnonzero(leq.all(axis=0)).tolist()
    assert L.is_chain() == (leq | leq.T).all()


def subgroup_lattice(G):
    subs = all_subgroups(G)
    return FinLattice.from_inclusion(subs, [f"o{K.order}" for K in subs])


class TestConstruction:
    def test_subgroups_of_s3(self):
        L = subgroup_lattice(symmetric(3))
        assert L.n == 6
        assert len(L.atoms()) == 4
        assert L.detect_mn() == 4

    def test_single_item(self):
        L = FinLattice.from_inclusion([frozenset()])
        assert L.n == 1 and L.height == 0
        assert L.bottom == L.top == 0

    def test_two_chain(self):
        # the related pairs of the bottom and the top partition of a 2-set
        L = FinLattice.from_inclusion([set(), {(0, 1)}])
        assert L.n == 2 and L.height == 1

    def test_missing_join_reported(self):
        items = [frozenset(), frozenset({0}), frozenset({1}),
                 frozenset({0, 1, 2}), frozenset({0, 1, 3}),
                 frozenset({0, 1, 2, 3})]
        with pytest.raises(NotALatticeError) as err:
            FinLattice.from_inclusion(items)
        assert err.value.pair is not None

    def test_missing_bottom_rejected(self):
        items = [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        with pytest.raises(NotALatticeError):
            FinLattice.from_inclusion(items)

    @settings(max_examples=300, deadline=None)
    @given(subset_families())
    def test_accepts_exactly_the_oracle_lattices(self, family):
        leq = np.array([[a <= b for b in family] for a in family],
                       dtype=bool).reshape(len(family), len(family))
        try:
            L = FinLattice.from_inclusion(family)
        except NotALatticeError as err:
            assert not is_lattice(leq)
            if err.pair is not None:
                assert not pair_has_join(leq, *err.pair)
        else:
            assert is_lattice(leq)
            assert all(L.leq(i, j) == leq[i, j]
                       for i in range(L.n) for j in range(L.n))

    def test_missing_join_names_a_join_irreducible(self):
        """Seeded families of subsets of a 5-set, with the empty and the
        full set: whenever construction fails it names a pair with no join,
        and one member of the pair has exactly one lower cover."""
        named = 0
        for family, leq in seeded_families():
            try:
                FinLattice.from_inclusion(family)
            except NotALatticeError as err:
                assert err.pair is not None
                assert not pair_has_join(leq, *err.pair)
                assert any(is_join_irreducible(leq, k) for k in err.pair)
                named += 1
            else:
                assert is_lattice(leq)
        assert named >= 30

    def test_missing_join_is_sought_among_join_irreducibles(self):
        """X = a v b and Y = c v d have two minimal upper bounds, so neither
        X v Y nor X v c exists.  X and Y come first, but joins are tested
        only against the join-irreducibles, here the atoms a..d, so the
        pair reported is X and c."""
        X, Y, a, b, c, d = {1, 2}, {3, 4}, {1}, {2}, {3}, {4}
        family = [X, Y, set(), a, b, c, d, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 6},
                  {1, 2, 3, 4, 5, 6}]
        with pytest.raises(NotALatticeError) as err:
            FinLattice.from_inclusion(family)
        assert err.value.pair == (0, 5)

    def test_walk_on_seeded_families(self):
        built = 0
        for family, leq in seeded_families():
            if is_lattice(leq):
                assert_walk_matches_definitions(
                    FinLattice.from_inclusion(family), leq)
                built += 1
        assert built >= 250

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_on_eq_n(self, n):
        """Eq(n), with the refinement order read off the RGS labels."""
        L = all_congruences(UnaryAlgebra(n, ()))
        rgs = [tuple(map(int, s.split(","))) for s in L.labels]
        related = np.array([[r[x] == r[y] for x in range(n) for y in range(x)]
                            for r in rgs], dtype=bool)
        leq = ~(related[:, None, :] & ~related[None, :, :]).any(axis=2)
        assert_walk_matches_definitions(L, leq)

    @settings(max_examples=300, deadline=None)
    @given(up_set_lists(), st.randoms(use_true_random=False))
    @example([0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000],
             random.Random(0))  # 1, 2 < 3, 4: a bounded order with no 1 v 2
    def test_accepts_exactly_the_oracle_lattices_of_any_relation(self, up, rng):
        """As drawn, under a random relabelling and with the indices
        reversed, since the covers walk takes the highest index first: a
        lattice order passes the definitions, and anything else raises the
        first failing check's error."""
        n = len(up)
        perm = list(range(n))
        rng.shuffle(perm)
        for variant in (up, relabelled(up, perm),
                        relabelled(up, range(n - 1, -1, -1))):
            want = first_failure(variant)
            if want is None:
                assert_walk_matches_definitions(FinLattice(variant),
                                                bit_matrix(variant, n))
                continue
            with pytest.raises(want[0]) as err:
                FinLattice(variant)
            if want[1] is not None:
                assert str(err.value) == want[1] and type(err.value) is want[0]
            else:
                x, j = err.value.pair
                assert str(err.value) == f"elements {x} and {j} have no join"
                assert not pair_has_join(bit_matrix(variant, n), x, j)

    def test_non_partial_order_rejected(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            FinLattice([0b11, 0b11])

    def test_non_reflexive_rejected(self):
        with pytest.raises(ValueError, match="reflexive"):
            FinLattice([0b11, 0b00])

    def test_non_transitive_rejected(self):
        # 0 <= 1 and 1 <= 2, but not 0 <= 2
        with pytest.raises(ValueError, match="transitive"):
            FinLattice([0b011, 0b110, 0b100])

    def test_antisymmetry_reported_before_transitivity(self):
        # 0 <= 1 <= 0, and 0 <= 1 <= 2 without 0 <= 2
        with pytest.raises(ValueError, match="^order is not antisymmetric$"):
            FinLattice([0b011, 0b111, 0b100])

    def test_reflexivity_reported_first(self):
        # not 0 <= 0, and 0 <= 1 <= 2 without 0 <= 2
        with pytest.raises(ValueError, match="^order is not reflexive$"):
            FinLattice([0b010, 0b110, 0b100])

    def test_out_of_range_bit_rejected(self):
        for up in ([0b111, 0b10], [-1, 0b10]):
            with pytest.raises(ValueError, match="at or above"):
                FinLattice(up)

    def test_wrong_label_count_rejected(self):
        with pytest.raises(ValueError, match="label count"):
            FinLattice([0b11, 0b10], ["only one"])


class TestShape:
    def test_detect_mn_on_reference(self):
        for n in range(3, 13):
            L = m_n(n)
            assert L.detect_mn() == n
            assert L.height == 2
            assert len(L.atoms()) == n
            assert L.atoms() == [i for i, c in enumerate(L.covers) if c >> L.top & 1]

    def test_three_chain_is_not_mn(self):
        assert chain(3).detect_mn() is None
        assert chain(3).shape() == ("chain", None)

    @pytest.mark.parametrize("lower,upper", [(1, 2), (2, 1)], ids=["up", "down"])
    def test_pentagon_is_not_mn(self, lower, upper):
        # N5: bottom 0, top 4, lower < upper, and 3 beside both; of its three
        # middle elements one pair is comparable, the smaller listed first
        # ("up") or second ("down")
        up = [0b11111, 0, 0, 0b11000, 0b10000]
        up[lower] = 1 << lower | 1 << upper | 1 << 4
        up[upper] = 1 << upper | 1 << 4
        L = FinLattice(up)
        assert L.detect_mn() is None
        assert L.shape() == ("other", None)

    def test_con_of_klein_regular_is_m3(self):
        L = all_congruences(gset_algebra(regular_action(klein())))
        assert L.detect_mn() == 3

    def test_boolean_2_is_not_mn(self):
        L = m_n(2)
        assert L.detect_mn() is None
        assert L.shape() == ("boolean-2", None)
        # the other 4-element lattice
        assert chain(4).shape() == ("chain", None)

    def test_height_examples(self):
        assert m_n(4).height == 2
        assert chain(1).height == 0
        L = subgroup_lattice(cyclic(8))
        assert L.height == 3 and L.is_chain()

    def test_shape_report(self):
        rep = subgroup_lattice(symmetric(3)).shape_report()
        assert rep == {"size": 6, "height": 2, "atoms": 4,
                       "shape": "M_n", "n": 4}

    def test_meet_join_tables(self):
        L = m_n(3)
        assert meet(L, 1, 2) == L.bottom
        assert L.join(1, 2) == L.top
        assert meet(L, 1, 1) == 1 == L.join(1, 1)
        leq = bit_matrix(L.up, L.n)
        for i in range(L.n):
            for j in range(L.n):
                lows = leq[:, i] & leq[:, j]
                assert lows[meet(L, i, j)] and leq[lows, meet(L, i, j)].all()

    @pytest.mark.parametrize("n", [4, 5])
    def test_meet_join_of_eq_n_are_partition_meet_join(self, n):
        L = all_congruences(UnaryAlgebra(n, ()))
        rgs = sorted(_congruence_set(n, ()))
        assert L.labels == tuple(",".join(map(str, r)) for r in rgs)
        assert L.n == len(set(rgs)) == {4: 15, 5: 52}[n]
        for i in range(L.n):
            for j in range(L.n):
                assert rgs[meet(L, i, j)] == rgs_meet(rgs[i], rgs[j])
                assert rgs[L.join(i, j)] == rgs_join(rgs[i], rgs[j])


class TestDot:
    def test_m3_counts(self):
        dot = m_n(3).to_dot()
        assert dot.count("label=") == 5
        assert dot.count("->") == 6

    def test_two_chain(self):
        dot = chain(2).to_dot()
        assert dot.count("label=") == 2 and dot.count("->") == 1

    def test_m4_cover_count(self):
        assert m_n(4).to_dot().count("->") == 8

    def test_deterministic(self):
        assert m_n(5).to_dot() == m_n(5).to_dot()


def test_import_leaves_numpy_out():
    code = "import sys, mnlab; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
