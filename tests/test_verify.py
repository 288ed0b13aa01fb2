"""Verification sweeps and their supporting enumeration machinery."""

import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from mnlab import (Partition, PermGroup, UnaryAlgebra, all_congruences,
                   all_subgroups, catalog, check_lemma, check_theorem1,
                   check_theorem2, congruences_oracle, galois_is_closed,
                   gset_algebra, is_dihedral, minimal_representation, quotient,
                   symmetric, verify)
from mnlab.congruence import _congruence_set
from mnlab.partition import rgs_join, rgs_meet, rgs_refines
from mnlab.perm import _orbits, mulclose
from mnlab.verify import _atom_systems, _mn_of, _orbit_firsts, _subgroup_key

from oracles import (atom_systems, is_simple, maximal_descent_closure,
                     subgroups_bounded_gen, system_orbits)

# check_theorem2(3, 6).to_dict() without timing_ms, as written before the
# sweep Galois-checked one system per orbit
THEOREM2_P3_S6 = Path(__file__).parent / "data" / "theorem2_p3_s6.json"
# SHA-256 of json.dumps(check_lemma(48).to_dict() without timing_ms,
# indent=2, sort_keys=True); the 279 KB report itself is not kept
LEMMA_48_SHA256 = Path(__file__).parent / "data" / "lemma_48.sha256"


@functools.lru_cache(maxsize=None)
def _theorem2_p3_s6() -> dict:
    """One size-6 sweep, shared by the tests that read its report."""
    report = check_theorem2(3, max_size=6).to_dict()
    report.pop("timing_ms")
    return report


class TestEnumeration:
    @pytest.mark.parametrize("d,count", [(2, 2), (3, 6), (4, 30)])
    def test_conjugacy_expanded_matches_plain(self, d, count, symmetric_subgroups):
        """The conjugacy-expanded enumerator against the plain closure of
        up to three cyclic subgroups."""
        subs = symmetric_subgroups(d)
        assert subs == subgroups_bounded_gen(symmetric(d))
        assert len(subs) == count

    @pytest.mark.parametrize("d,count", [(5, 156), (6, 1455)])
    def test_published_subgroup_counts(self, d, count, symmetric_subgroups):
        """Subgroup counts of S5 and S6 from OEIS A005432."""
        assert len(symmetric_subgroups(d)) == count

    def test_bounded_gen_oracle_spot_checks(self):
        from mnlab import cyclic, dihedral, quaternion, alternating
        for G in (cyclic(12), dihedral(6), quaternion(), alternating(4)):
            assert tuple(all_subgroups(G)) == subgroups_bounded_gen(G)

    def test_maximal_descent_reaches_everything(self):
        from mnlab import dihedral
        subs = all_subgroups(dihedral(6))
        assert maximal_descent_closure(subs) == {K._eset for K in subs}

    def test_orbit_count(self):
        assert len(_orbits(4, (bytes((1, 0, 3, 2)),))) == 2
        assert len(_orbits(4, (bytes((1, 2, 3, 0)),))) == 1
        assert len(_orbits(3, ())) == 3

    def test_mn_of_congset(self):
        from mnlab import regular_action, klein
        from mnlab.congruence import _congruence_set
        A = gset_algebra(regular_action(klein()))
        bottom, top = (0, 1, 2, 3), (0, 0, 0, 0)
        mids = [r for r in _congruence_set(4, A.ops) if r not in (bottom, top)]
        assert _mn_of(mids, rgs_refines) == 3
        assert _mn_of([], rgs_refines) is None
        # (0, 0, 1, 2) refines the other two: not M_3
        assert _mn_of([(0, 0, 1, 2), (0, 0, 0, 1), (0, 0, 1, 1)], rgs_refines) is None


class TestLemmaSweep:
    def test_small_catalog_passes(self):
        report = check_lemma(max_order=8)
        assert report.status == "PASS"
        assert report.counterexamples == []
        assert all(f["ok"] for f in report.findings)
        # the regular Klein group over its trivial subgroup is a hit
        klein_hits = [f for f in report.findings
                      if f["group"] == "V4" and f["subgroup_order"] == 1]
        assert klein_hits and klein_hits[0]["n"] == 3
        assert klein_hits[0]["conclusions"]["quotient_dihedral_m"] == 2

    def test_findings_sorted_and_hypothesis_only(self):
        report = check_lemma(max_order=12)
        keys = [(f["group"], f["subgroup_key"]) for f in report.findings]
        assert keys == sorted(keys)
        for f in report.findings:
            assert f["index"] < 2 * f["n"]

    def test_max_order_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            check_lemma(max_order=49)

    def test_report_48_matches_the_recorded_digest(self):
        report = check_lemma(max_order=48).to_dict()
        report.pop("timing_ms")
        text = json.dumps(report, indent=2, sort_keys=True)
        assert report["counterexamples"] == [] and report["status"] == "PASS"
        assert (hashlib.sha256(text.encode()).hexdigest()
                == LEMMA_48_SHA256.read_text().strip())

    def test_rotation_simple_by_the_simplicity_oracle(self):
        """rotation_simple, read from m alone, is the brute-force simplicity
        of Q's rotation subgroup: the cyclic group generated by the least
        element of order m in Q = G/H."""
        report = check_lemma(max_order=48)
        groups = dict(catalog(48))
        subgroups = {}
        visited = 0
        for f in report.findings:
            G = groups[f["group"]]
            if f["group"] not in subgroups:
                subgroups[f["group"]] = {_subgroup_key(K): K
                                         for K in all_subgroups(G)}
            Q = quotient(G, subgroups[f["group"]][f["subgroup_key"]])
            m = f["conclusions"]["quotient_dihedral_m"]
            rot = min(g._b for g in Q if g.order() == m)
            R = PermGroup._from_eset(Q.degree, mulclose(Q.degree, (rot,)))
            assert R.order == m
            assert is_simple(R) == f["conclusions"]["rotation_simple"]
            visited += 1
        assert visited == report.counts["hypothesis_hits"] == 398

    def test_non_dihedral_quotient_fails(self, monkeypatch):
        """Fault injection: every quotient reads as dihedral of order 8, so
        m = 4 is not prime and each hit fails on n = m + 1."""
        monkeypatch.setattr(verify, "is_dihedral", lambda Q: 4)
        report = check_lemma(max_order=24)
        assert report.status == "FAIL" and report.findings
        assert report.witnesses == [] and report.counterexamples == report.findings
        for f in report.findings:
            c = f["conclusions"]
            assert c["quotient_dihedral_m"] == 4 and c["h_normal"]
            assert not c["rotation_simple"] and not c["n_eq_p_plus_1"]
            assert not f["ok"]

    def test_non_normal_subgroup_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "is_normal", lambda G, H: False)
        report = check_lemma(max_order=24)
        assert report.status == "FAIL" and report.findings
        assert report.witnesses == [] and report.counterexamples == report.findings
        for f in report.findings:
            c = f["conclusions"]
            assert not c["h_normal"] and c["quotient_dihedral_m"] is None
            assert not f["ok"]

    def test_report_json_deterministic_up_to_timing(self):
        a = check_lemma(max_order=6).to_dict()
        b = check_lemma(max_order=6).to_dict()
        a.pop("timing_ms"), b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestTheorem1:
    def test_p2_degree_up_to_4_finds_the_klein_hit(self):
        # degrees 1..5 are swept; the one hit is the regular Klein group
        report = check_theorem1(2)
        assert report.status == "PASS"
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w["degree"] == 4 and w["order"] == 4
        assert w["regular"] and w["dihedral_m"] == 2

    def test_unsupported_p(self):
        with pytest.raises(ValueError, match="unsupported"):
            check_theorem1(5)

    def test_non_dihedral_hit_fails(self, monkeypatch):
        """Fault injection: the Klein hit reads as not dihedral, so it is a
        counterexample and nothing is a witness."""
        monkeypatch.setattr(verify, "is_dihedral", lambda K: None)
        report = check_theorem1(2)
        assert report.status == "FAIL" and report.witnesses == []
        assert [(c["degree"], c["order"], c["regular"], c["dihedral_m"])
                for c in report.counterexamples] == [(4, 4, True, None)]

    def test_no_hit_fails(self, monkeypatch):
        """Fault injection: no congruence lattice reads as M_n, so the sweep
        finds nothing and an empty sweep fails."""
        monkeypatch.setattr(verify, "_mn_of", lambda mids, leq: None)
        report = check_theorem1(2)
        assert report.status == "FAIL" and report.counts["hits"] == 0
        assert report.witnesses == [] and report.counterexamples == []

    @pytest.mark.parametrize("d,transitive", [(2, 1), (3, 2), (5, 20)])
    def test_prime_degree_rule(self, d, transitive, symmetric_subgroups):
        """The rule that excludes degree 7, checked by enumeration at the
        smaller primes: every transitive subgroup of S_d has exactly two
        congruences, by the brute-force partition filter over all of K's
        elements."""
        found = 0
        for K in symmetric_subgroups(d):
            if {g(0) for g in K} == set(range(d)):
                found += 1
                A = UnaryAlgebra(d, tuple(g.images for g in K))
                assert congruences_oracle(A).n == 2
        assert found == transitive


class TestTheorem2:
    def test_small_sizes_have_no_closed_systems(self):
        report = check_theorem2(3, max_size=4)
        assert report.status == "PASS"
        by_size = {f["size"]: f for f in report.findings}
        assert by_size[4]["candidate_systems"] == 34
        assert by_size[4]["closed_systems"] == 0
        assert by_size[2]["candidate_systems"] == 0
        assert by_size[3]["candidate_systems"] == 0

    def test_smallest_size(self):
        report = check_theorem2(3, max_size=2)
        assert report.findings == [{"size": 2, "candidate_systems": 0,
                                    "closed_systems": 0}]

    @pytest.mark.parametrize("max_size", [2, 4])
    def test_report_names_the_unreached_carrier(self, max_size):
        """Below max_size 2p the claim at carrier 2p goes unchecked: the
        status stays PASS and a note says what was left out."""
        report = check_theorem2(3, max_size=max_size)
        assert report.status == "PASS"
        assert report.notes == [
            "expected: zero closed systems below carrier 6, at least one at 6",
            f"max_size {max_size} < 6: carrier 6 is not reached, so only the"
            " first claim is checked"]

    def test_unsupported_parameters(self):
        with pytest.raises(ValueError, match="unsupported"):
            check_theorem2(5, max_size=4)
        with pytest.raises(ValueError):
            check_theorem2(3, max_size=9)
        with pytest.raises(ValueError):
            check_theorem2(3, max_size=1)

    def test_closed_system_below_2p_fails(self, monkeypatch):
        """Fault injection: every size-5 system reads as Galois-closed."""
        real = verify.galois_is_closed
        monkeypatch.setattr(verify, "galois_is_closed",
                            lambda n, atoms: n == 5 or real(n, atoms))
        report = check_theorem2(3, max_size=6)
        assert report.status == "FAIL"
        closed = {f["size"]: f["closed_systems"] for f in report.findings}
        assert closed == {2: 0, 3: 0, 4: 0, 5: 70, 6: 20}

    def test_no_closed_system_at_2p_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "galois_is_closed", lambda n, atoms: False)
        report = check_theorem2(3, max_size=6)
        assert report.status == "FAIL" and report.witnesses == []
        assert report.findings[-1] == {"size": 6, "candidate_systems": 718785,
                                       "closed_systems": 0}

    def test_candidate_systems_are_atom_systems(self):
        """Every listed system at sizes 5 and 6: four proper partitions with
        pairwise meet bottom and every pairwise join, hence the joint join,
        the top."""
        for size, listed in ((5, 70), (6, 3390)):
            bottom, top = tuple(range(size)), (0,) * size
            _, systems = _atom_systems(size, 4)
            assert len(systems) == listed
            for system in systems:
                assert len(set(system)) == 4
                assert bottom not in system and top not in system
                for a, b in itertools.combinations(system, 2):
                    assert rgs_meet(a, b) == bottom and rgs_join(a, b) == top

    def test_size4_candidates_by_plain_combinations(self):
        want = atom_systems(4, 4)
        assert len(want) == 34 and not any(flag for _, flag in want)
        assert _atom_systems(4, 4) == (34, [])

    def test_size5_candidates_by_plain_combinations(self):
        """The itertools.combinations oracle over the 50 proper partitions of
        a 5-set: the same count, and the same 70 systems with every pairwise
        join top, in the same order."""
        want = atom_systems(5, 4)
        top = [system for system, flag in want if flag]
        assert (len(want), len(top)) == (4850, 70)
        assert _atom_systems(5, 4) == (4850, top)

    def test_closed_systems_are_the_regular_dihedral_congruences(self, symmetric_subgroups):
        """The 20 closed size-6 systems are exactly the atom sets of
        Con(K) over the 20 regular subgroups K of S6 that are dihedral of
        order 6."""
        regular = [K for K in symmetric_subgroups(6)
                   if K.order == 6 and {g(0) for g in K} == set(range(6))
                   and is_dihedral(K) == 3]
        assert len(regular) == 20
        want = set()
        for K in regular:
            L = all_congruences(gset_algebra(K))
            rgs = sorted(_congruence_set(6, [g.images for g in K.generators]))
            want.add(frozenset(rgs[a] for a in L.atoms()))
        assert len(want) == 20
        got = [frozenset(map(tuple, w["system"]))
               for w in _theorem2_p3_s6()["witnesses"] if w["size"] == 6]
        assert len(got) == 20 and set(got) == want

    def test_report_matches_the_recorded_one(self):
        """Byte-identical to the report recorded when every pairwise-top
        system was Galois-checked on its own: the counts
        0/0/34/4850/718785 and the same 20 witnesses in the same order."""
        recorded = THEOREM2_P3_S6.read_text()
        # the dicts first: a failing compare of the whole texts diffs slowly
        assert _theorem2_p3_s6() == json.loads(recorded)
        assert json.dumps(_theorem2_p3_s6(), indent=2, sort_keys=True) + "\n" == recorded

    @pytest.mark.parametrize("size,closed", [(5, 0), (6, 20)])
    def test_orbit_verdict_is_the_direct_verdict(self, size, closed):
        """The sweep gives each pairwise-top system the verdict of the first
        system of its S_n orbit; that equals a Galois check on the system
        itself, for every system."""
        _, systems = _atom_systems(size, 4)
        direct = [galois_is_closed(size, [Partition(r) for r in system])
                  for system in systems]
        assert [direct[i] for i in _orbit_firsts(size, systems)] == direct
        assert sum(direct) == closed

    @pytest.mark.parametrize("size,orbit_sizes", [
        (5, [20, 20, 30]),
        (6, [20, 30, 40, 120, 120, 180, 360, 360, 720, 720, 720]),
    ])
    def test_orbits_match_all_permutations(self, size, orbit_sizes):
        """The orbits under two generators equal the orbits found by
        applying all n! relabellings to one system each."""
        _, systems = _atom_systems(size, 4)
        found: dict[int, set] = {}
        for system, first in zip(systems, _orbit_firsts(size, systems)):
            found.setdefault(first, set()).add(frozenset(system))
        want = system_orbits(systems, size)
        assert sorted(map(len, want)) == orbit_sizes
        assert set(map(frozenset, found.values())) == set(map(frozenset, want))
        if size == 6:
            recorded = json.loads(THEOREM2_P3_S6.read_text())["witnesses"]
            closed = {frozenset(map(tuple, w["system"])) for w in recorded}
            assert closed in want


class TestMinimalRepresentation:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witness_shape_and_oracle(self, p):
        A, L = minimal_representation(p)
        assert A.size == 2 * p
        assert len(A.ops) == 2
        assert L.detect_mn() == p + 1
        assert L.n == p + 3
        assert congruences_oracle(A) == L

    @pytest.mark.parametrize("p", [7, 11])
    def test_witness_shape_larger_primes(self, p):
        A, L = minimal_representation(p)
        assert A.size == 2 * p and L.detect_mn() == p + 1

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="prime"):
            minimal_representation(6)

    def test_lattice_agrees_with_direct_computation(self):
        A, L = minimal_representation(3)
        assert all_congruences(A) == L
