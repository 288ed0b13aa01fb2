"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts both the exact expected facts and the runtime budget.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from mnlab import (Partition, UnaryAlgebra, all_congruences, all_subgroups,
                   catalog, check_lemma, check_theorem1, check_theorem2,
                   congruences_oracle, coset_action, galois_is_closed,
                   minimal_representation, preserving_maps)
from mnlab.cli import main
from mnlab.congruence import _congruence_set
from mnlab.partition import rgs_canonical, rgs_join, rgs_refines

from oracles import all_partitions, rgs_meet, subgroups_bounded_gen
from reports import recorded_text

RESULTS = []

# the recorded_text of check_theorem1(p): p = 3 as written before the
# group layer built every coset action through one function, p = 2 before
# subgroup joins were taken one per normalizer orbit
THEOREM1_P2 = Path(__file__).parent / "data" / "theorem1_p2.json"
THEOREM1_P3 = Path(__file__).parent / "data" / "theorem1_p3.json"


@contextmanager
def criterion(ident, budget_s, description):
    t0 = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        dt = time.perf_counter() - t0
        verdict = "FAIL" if failed or dt >= budget_s else "PASS"
        line = (f"ACCEPTANCE {ident}: {verdict} - {description}"
                f" ({dt:.2f}s / budget {budget_s:.0f}s)")
        RESULTS.append(line)
        print("\n" + line)
    assert dt < budget_s, f"runtime {dt:.2f}s exceeded budget {budget_s}s"


def test_criterion_1_minimal_witness_p3(tmp_path, capsys):
    with criterion(1, 1.0, "witness p=3 via CLI: size 6, M_4, oracle agrees"):
        algebra = tmp_path / "w.algebra"
        report = tmp_path / "con.json"
        assert main(["witness", "--p", "3", "--out", str(algebra)]) == 0
        assert main(["con", str(algebra), "--oracle", "--out", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["algebra"]["size"] == 6
        assert len(data["congruences"]) == 6
        assert data["lattice"]["shape"] == "M_n" and data["lattice"]["n"] == 4
        assert data["oracle"] == {"checked": True, "match": True}


def test_criterion_2_witness_family():
    with criterion(2, 10.0, "witness family p in {2,3,5,7,11}; oracle to p=5"):
        for p in (2, 3, 5, 7, 11):
            A, L = minimal_representation(p)
            assert A.size == 2 * p
            assert L.n == p + 3
            assert len(L.atoms()) == p + 1
            assert L.height == 2
            if p <= 5:
                assert congruences_oracle(A) == L


def test_criterion_3_lemma_sweep():
    with criterion(3, 5.0, "lemma sweep over catalog(24): >=3 hits, 0 violations"):
        report = check_lemma(max_order=24)
        assert report.status == "PASS"
        assert report.counterexamples == []
        hits = report.findings
        assert len(hits) >= 3
        for f in hits:
            c = f["conclusions"]
            assert c["h_normal"]
            assert c["quotient_dihedral_m"] is not None
            assert c["n_eq_p_plus_1"]
            assert c["two_index2_intermediates"]
            assert c["rotation_simple"]
        klein = [f for f in hits
                 if f["group"] == "V4" and f["subgroup_order"] == 1]
        assert klein and klein[0]["n"] == 3 and klein[0]["index"] == 4
        # the regular S3 is catalogued as D6 (same permutation group)
        s3reg = [f for f in hits
                 if f["group"] == "D6" and f["subgroup_order"] == 1]
        assert s3reg and s3reg[0]["n"] == 4 and s3reg[0]["index"] == 6
        assert s3reg[0]["conclusions"]["quotient_dihedral_m"] == 3


def test_criterion_4_theorem1_p2():
    with criterion(4, 5.0, "theorem1 p=2: exactly one M_3 hit up to degree 5"):
        report = check_theorem1(2)
        assert report.status == "PASS"
        assert report.counterexamples == []
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w["degree"] == 4 and w["order"] == 4
        assert w["regular"] and w["dihedral_m"] == 2
        by_degree = {f["degree"]: f for f in report.findings}
        assert by_degree[4]["subgroups"] == 30
        assert by_degree[5]["subgroups"] == 156
        assert sum(f["hits"] for f in report.findings) == 1
        assert recorded_text(report.to_dict()) == THEOREM1_P2.read_text()


def test_criterion_5_theorem1_p3_slow_tier():
    with criterion(5, 5.0, "theorem1 p=3: degree-6 exhaustive + degree-7"
                             " prime-degree rule"):
        report = check_theorem1(3)
        assert report.status == "PASS"
        assert report.counterexamples == []
        assert len(report.witnesses) >= 1
        for w in report.witnesses:
            assert w["order"] == 6 and w["regular"] and w["dihedral_m"] == 3
        by_degree = {f["degree"]: f for f in report.findings}
        assert "exhaustive" in by_degree[6]["mode"]
        assert by_degree[6]["subgroups"] == 1455
        assert "prime-degree rule" in by_degree[7]["mode"]
        assert by_degree[7]["hits"] == 0
        assert any("degree 7 excluded by the prime-degree rule" in note
                   for note in report.notes)
        assert not any("assum" in note.lower() for note in report.notes)
        assert recorded_text(report.to_dict()) == THEOREM1_P3.read_text()


def test_criterion_6_theorem2_p3():
    with criterion(6, 5.0, "theorem2 p=3: no closed M_4 system below size 6"):
        report = check_theorem2(3, max_size=6)
        assert report.status == "PASS"
        by_size = {f["size"]: f for f in report.findings}
        assert by_size[4]["closed_systems"] == 0
        assert by_size[5]["closed_systems"] == 0
        assert by_size[6]["closed_systems"] >= 1
        assert by_size[6]["candidate_systems"] == 718785
        # every reported closed system re-closes to itself
        for w in report.witnesses:
            size, parts = w["size"], [Partition(r) for r in w["system"]]
            assert galois_is_closed(size, parts)
            closure = _congruence_set(size, preserving_maps(size, parts))
            reclosure = _congruence_set(size, preserving_maps(
                size, [Partition(r) for r in closure]))
            assert closure == reclosure


def test_criterion_7_p2_boundary():
    with criterion(7, 1.0, "three atoms of Eq(3) are Galois-closed as M_3"):
        atoms = [Partition(r) for r in ((0, 0, 1), (0, 1, 0), (0, 1, 1))]
        assert galois_is_closed(3, atoms)
        L = all_congruences(UnaryAlgebra(3, preserving_maps(3, atoms)))
        assert L.detect_mn() == 3 and L.n == 5


def _theta(inv_reps, reps, K):
    """Coset partition induced by an intermediate subgroup: two cosets are
    related when their representatives differ by an element of K."""
    from mnlab.perm import _compose
    labels = []
    for i, r in enumerate(reps):
        for j in range(i + 1):
            if _compose(inv_reps[j], r) in K:
                labels.append(j)
                break
    return rgs_canonical(labels)


def test_criterion_8_property_suites():
    with criterion(8, 90.0, "oracle equivalence, interval correspondence,"
                             " dual enumeration, partition axioms"):
        # (a) algorithmic vs brute-force congruences on 200 random algebras
        rng = random.Random(20240817)
        for _ in range(200):
            size = rng.randint(1, 7)
            ops = tuple(tuple(rng.randrange(size) for _ in range(size))
                        for _ in range(rng.randint(0, 3)))
            A = UnaryAlgebra(size, ops)
            assert all_congruences(A) == congruences_oracle(A)

        # (b) Con(coset action) matches the subgroup interval, order and all
        from mnlab.perm import _inverse
        for name, G in catalog(24):
            subs = all_subgroups(G)
            for H in subs:
                iv = [K for K in subs if H <= K]
                act = coset_action(G, H)
                reps = sorted({min(g * h for h in H) for g in G})
                inv_reps = [_inverse(r) for r in reps]
                congs = _congruence_set(act.degree, act.generators)
                thetas = {K: _theta(inv_reps, reps, K) for K in iv}
                assert set(thetas.values()) == congs, name
                for K1 in iv:
                    for K2 in iv:
                        assert (K1 <= K2) == rgs_refines(thetas[K1], thetas[K2])

        # (c) join-closure enumeration vs bounded-generation oracle
        for name, G in catalog(24):
            assert tuple(all_subgroups(G)) == subgroups_bounded_gen(G), name

        # (d) partition lattice axioms, exhaustively through size 5: each
        # pair's meet and join once, by index, then every identity from the
        # tables; refinement agrees with both
        for n in range(1, 6):
            parts = list(all_partitions(n))
            ids = {a: i for i, a in enumerate(parts)}
            meet = [[ids[rgs_meet(a, b)] for b in parts] for a in parts]
            join = [[ids[rgs_join(a, b)] for b in parts] for a in parts]
            for (i, a), (j, b) in itertools.product(enumerate(parts), repeat=2):
                assert rgs_refines(a, b) == (meet[i][j] == i) \
                    == (join[i][j] == j)
            for a, b in itertools.product(range(len(parts)), repeat=2):
                assert meet[a][b] == meet[b][a] and join[a][b] == join[b][a]
                assert meet[a][join[a][b]] == a and join[a][meet[a][b]] == a
            for a, b, c in itertools.product(range(len(parts)), repeat=3):
                assert meet[meet[a][b]][c] == meet[a][meet[b][c]]
                assert join[join[a][b]][c] == join[a][join[b][c]]


def test_zzz_summary():
    print("\n" + "\n".join(RESULTS))
    assert len(RESULTS) == 8
