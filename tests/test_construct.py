"""Group constructors, actions, and the catalog."""

import re

import pytest

from mnlab import (all_subgroups, alternating, catalog, coset_action, cyclic,
                   dihedral, direct_product, is_dihedral, klein, quaternion,
                   regular_action, symmetric)
from mnlab import construct
from mnlab.cli import main
from mnlab.perm import PermGroup

from oracles import core, orbits_bfs
from records_digest import recorded


def fixes_no_point(R: PermGroup) -> bool:
    """Only the identity fixes a point: every point stabilizer is trivial."""
    return all(g(x) != x for g in R if not g.is_identity()
               for x in range(R.degree))


class TestConstructors:
    @pytest.mark.parametrize("m,order", [(2, 4), (3, 6), (5, 10), (12, 24)])
    def test_dihedral_orders(self, m, order):
        assert dihedral(m).order == order

    def test_dihedral_3_equals_s3(self):
        assert dihedral(3) == symmetric(3)

    def test_dihedral_2_is_regular_klein(self):
        G = dihedral(2)
        assert G.degree == 4 and G.order == 4
        assert G == klein()
        assert len(orbits_bfs(G.degree, G.generators)) == 1

    def test_dihedral_rejects_small_m(self):
        with pytest.raises(ValueError):
            dihedral(1)

    @pytest.mark.parametrize("n,order", [(1, 1), (4, 4), (7, 7)])
    def test_cyclic(self, n, order):
        assert cyclic(n).order == order

    def test_symmetric_and_alternating(self):
        assert symmetric(4).order == 24
        assert alternating(4).order == 12
        assert alternating(4) <= symmetric(4)

    @pytest.mark.parametrize("make", [cyclic, symmetric, alternating])
    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_n_below_1(self, make, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            make(n)

    @pytest.mark.parametrize("G,degree", [(symmetric(1), 1), (alternating(1), 1),
                                          (alternating(2), 2)])
    def test_trivial_cases_have_no_generators(self, G, degree):
        assert G == PermGroup.trivial(degree)
        assert G.degree == degree and G.generators == ()

    def test_quaternion(self):
        Q = quaternion()
        assert Q.order == 8 and Q.degree == 8
        involutions = [p for p in Q if not p.is_identity() and (p * p).is_identity()]
        assert len(involutions) == 1  # unique element of order 2
        assert is_dihedral(Q) is None

    def test_direct_product_orders(self):
        assert direct_product(cyclic(2), cyclic(3)).order == 6
        assert direct_product(klein(), symmetric(3)).order == 24


class TestRegularAction:
    def test_s3_regular(self):
        R = regular_action(symmetric(3))
        assert R.degree == 6 and R.order == 6
        assert len(orbits_bfs(R.degree, R.generators)) == 1
        assert fixes_no_point(R)

    def test_trivial_group(self):
        R = regular_action(PermGroup.trivial(3))
        assert R.degree == 1 and R.order == 1

    def test_klein_regular_gens_are_double_transpositions(self):
        R = regular_action(klein())
        assert sorted(g.images for g in R.generators) == [(1, 0, 3, 2), (2, 3, 0, 1)]

    @pytest.mark.parametrize("G", [cyclic(5), dihedral(4), quaternion(),
                                   symmetric(3)])
    def test_regular_properties(self, G):
        R = regular_action(G)
        assert R.order == G.order and R.degree == G.order
        assert len(orbits_bfs(R.degree, R.generators)) == 1
        assert fixes_no_point(R)


class TestCosetAction:
    def test_s3_mod_point_stabilizer_is_natural(self):
        G = symmetric(3)
        H = next(K for K in all_subgroups(G) if K.order == 2)
        act = coset_action(G, H)
        assert act.degree == 3 and act == G

    def test_s3_mod_a3(self):
        G = symmetric(3)
        A3 = next(K for K in all_subgroups(G) if K.order == 3)
        act = coset_action(G, A3)
        assert act.degree == 2 and act.order == 2

    def test_trivial_subgroup_gives_regular_action(self):
        G = symmetric(3)
        triv = all_subgroups(G)[0]
        assert coset_action(G, triv) == regular_action(G)

    @pytest.mark.parametrize("G", [g for _, g in catalog(12)]
                             + [symmetric(4), dihedral(6)])
    def test_kernel_equals_core(self, G):
        """The kernel is the core of H, so the action has order |G|/|core|."""
        for H in all_subgroups(G):
            act = coset_action(G, H)
            assert act.degree == G.order // H.order
            assert act.order == G.order // core(G, H).order

    def test_rejects_non_subgroup(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            coset_action(cyclic(4), dihedral(4))


class TestCatalog:
    def test_max_order_1(self):
        cat = catalog(1)
        assert [name for name, _ in cat] == ["Z1"]

    def test_max_order_6_members(self):
        names = [name for name, _ in catalog(6)]
        for want in ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "V4", "D6"]:
            assert want in names

    def test_max_order_8_has_q8_and_d8(self):
        names = [name for name, _ in catalog(8)]
        assert "Q8" in names and "D8" in names

    def test_entries_are_regular_and_unique(self):
        cat = catalog(16)
        groups = [G for _, G in cat]
        assert len(set(groups)) == len(groups)
        for _, G in cat:
            assert G.order <= 16
            assert G.degree == G.order
            assert G.order == 1 or len(orbits_bfs(G.degree, G.generators)) == 1

    def test_dihedral_and_symmetric_dedup(self):
        # regular D6 and regular S3 are the same permutation group
        names = [name for name, _ in catalog(6)]
        assert "D6" in names and "S3" not in names

    def test_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            catalog(49)

    @pytest.mark.parametrize("name,order", [("V4", 4), ("A4", 12), ("S4", 24)])
    def test_base_member_from_its_own_order(self, name, order):
        assert name in [n for n, _ in catalog(order)]

    def test_catalog_48_builds_each_klein_group_once(self, monkeypatch):
        # D4 = dihedral(2) is V4 itself, so neither it nor its 20 products
        # are built only to be dropped; the names are those recorded
        calls = []
        real = construct.regular_action
        monkeypatch.setattr(construct, "regular_action",
                            lambda G: calls.append(G) or real(G))
        names = [name for name, _ in catalog(48)]
        assert len(calls) == 197
        assert names == [n.split(":", 1)[1] for n in recorded()
                         if n.startswith("catalog48:")]


class TestGroupSpec:
    """A group spec, a kind with the flags it reads, as `mnlab group make`
    checks it against the CLI's table of kinds: n for cyclic and symmetric,
    m for dihedral, --left and --right for a product, none for klein."""

    @pytest.mark.parametrize("args", [
        ("cyclic",), ("dihedral",), ("symmetric",), ("klein", "--n", "3"),
        ("klein", "--left", "klein"), ("product",), ("product", "--left", "klein"),
        ("product", "--left", "klein", "--right", "klein", "--n", "3"),
        ("cyclic", "--n", "3", "--left", "klein"),
    ])
    def test_malformed_spec(self, args, capsys):
        # refused before anything is built; the error names the flag
        assert main(["group", "make", "--kind", *args]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert re.fullmatch(f"mnlab: error: group make --kind {args[0]}"
                            r" (does not read|requires) --[a-z]+\n", out.err)

    @pytest.mark.parametrize("args,message", [
        (("klein", "--n", "3"), "klein does not read --n"),
        (("product",), "product requires --left"),
        (("cyclic", "--n", "3", "--left", "klein"), "cyclic does not read --left"),
    ])
    def test_malformed_spec_message(self, args, message, capsys):
        assert main(["group", "make", "--kind", *args]) == 2
        err = capsys.readouterr().err
        assert err == f"mnlab: error: group make --kind {message}\n"
