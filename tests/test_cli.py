"""Command-line interface: exit codes, file outputs, reproducibility."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mnlab import all_congruences, cli, congruence, verify
from mnlab.cli import main
from mnlab.io import load_algebra

from reports import recorded_digest, recorded_text

DATA = Path(__file__).parent / "data"
# each recorded report under tests/data and the mnlab verify arguments that
# write it; the lemma's report is kept as a digest only
RECORDED = {"theorem1_p2.json": ["theorem1", "--p", "2"],
            "theorem1_p3.json": ["theorem1", "--p", "3"],
            "theorem2_p3_s6.json": ["theorem2", "--p", "3", "--max-size", "6"],
            "lemma_48.sha256": ["lemma", "--max-order", "48"]}


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestGroupMake:
    def test_dihedral_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["group", "make", "--kind", "dihedral", "--m", "3",
                             "--out", str(out)], capsys)
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["degree"] == 3 and len(data["generators"]) == 2
        assert json.loads(stdout)["order"] == 6

    def test_regular_flag(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["group", "make", "--kind", "dihedral", "--m", "3",
                             "--regular", "--out", str(out)], capsys)
        assert rc == 0
        assert json.loads(stdout)["degree"] == 6

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        for argv, name, written in ((["--regular"], "D6-regular", None),
                                    (["--name", "mine", "--out", str(out)],
                                     "mine", str(out))):
            rc, stdout, _ = run(["group", "make", "--kind", "dihedral", "--m", "3",
                                 *argv], capsys)
            assert rc == 0
            assert json.loads(stdout) == {"format": 1, "name": name,
                                          "degree": 6 if written is None else 3,
                                          "order": 6, "written": written}

    def test_order_bound_admits_5040(self, capsys):
        rc, stdout, _ = run(["group", "make", "--kind", "symmetric", "--n", "7"],
                            capsys)
        assert rc == 0 and json.loads(stdout)["order"] == 5040

    def test_product(self, capsys):
        rc, stdout, _ = run(["group", "make", "--kind", "product",
                             "--left", "cyclic:2", "--right", "cyclic:3"], capsys)
        assert rc == 0 and json.loads(stdout)["order"] == 6

    def test_missing_parameter_is_usage_error(self, capsys):
        rc, _, err = run(["group", "make", "--kind", "dihedral"], capsys)
        assert rc == 2 and "--m" in err

    def test_order_bound_is_usage_error(self, capsys):
        # S8 has 40,320 elements: above the bound, yet small enough to build
        rc, stdout, err = run(["group", "make", "--kind", "symmetric",
                               "--n", "8"], capsys)
        assert rc == 2 and stdout == "" and "5040" in err

    def test_degree_bound_is_usage_error(self, capsys):
        # the product acts on 250 + 10 points, each factor within the bound
        for argv in (["--kind", "dihedral", "--m", "200", "--regular"],
                     ["--kind", "product", "--left", "cyclic:250",
                      "--right", "cyclic:10"]):
            rc, stdout, err = run(["group", "make", *argv], capsys)
            assert rc == 2 and stdout == "" and "256" in err

    def test_flags_the_kind_does_not_read_are_usage_errors(self, capsys):
        for argv, flag in ((["--kind", "klein", "--n", "5"], "--n"),
                           (["--kind", "cyclic", "--n", "3", "--m", "7",
                             "--left", "x"], "--m"),
                           (["--kind", "product", "--left", "klein:9",
                             "--right", "cyclic:2"], "--left")):
            rc, stdout, err = run(["group", "make", *argv], capsys)
            assert rc == 2 and stdout == "" and flag in err, argv

    def test_unknown_flag_is_an_error(self, capsys):
        rc, _, _ = run(["group", "make", "--kind", "dihedral", "--m", "3",
                        "--frobnicate"], capsys)
        assert rc == 2


class TestWitnessAndCon:
    def test_witness_then_con_with_oracle(self, tmp_path, capsys):
        algebra = tmp_path / "w.algebra"
        rc, stdout, _ = run(["witness", "--p", "3", "--out", str(algebra)], capsys)
        assert rc == 0
        head = json.loads(stdout)
        assert head["size"] == 6 and head["lattice"]["shape"] == "M_n"

        dot = tmp_path / "w.dot"
        report = tmp_path / "con.json"
        rc, stdout, _ = run(["con", str(algebra), "--oracle",
                             "--dot", str(dot), "--out", str(report)], capsys)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["lattice"] == {"size": 6, "height": 2, "atoms": 4,
                                   "shape": "M_n", "n": 4}
        assert data["oracle"] == {"checked": True, "match": True}
        assert len(data["congruences"]) == 6
        assert dot.read_text().count("->") == 8

    @pytest.mark.parametrize("p", [3, 5])
    def test_con_builds_the_congruence_set_once(self, p, tmp_path, capsys,
                                                monkeypatch):
        algebra = tmp_path / "w.algebra"
        run(["witness", "--p", str(p), "--out", str(algebra)], capsys)
        A = load_algebra(algebra)
        # the payload as written when the list came from a second build
        want = {"format": 1,
                "algebra": {"size": A.size, "ops": len(A.ops), "name": A.name},
                "congruences": [list(r) for r in sorted(
                    congruence._congruence_set(A.size, A.ops))],
                "lattice": all_congruences(A).shape_report(),
                "oracle": {"checked": False}}
        calls = []
        real = congruence._congruence_set

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(congruence, "_congruence_set", counted)
        # a module that imported the name itself would bypass the patch above
        monkeypatch.setattr(cli, "_congruence_set", counted, raising=False)
        rc, stdout, _ = run(["con", str(algebra)], capsys)
        assert rc == 0 and len(calls) == 1
        assert stdout == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_witness_rejects_non_prime(self, capsys):
        rc, _, err = run(["witness", "--p", "4"], capsys)
        assert rc == 2 and "prime" in err

    @pytest.mark.parametrize("p", [37, 1_000_000_007, 10**20 + 39])
    def test_witness_checks_the_carrier_bound_first(self, p, capsys):
        # a prime this large would take the primality test or dihedral(p)
        # hours or gigabytes
        start = time.perf_counter()
        rc, stdout, err = run(["witness", "--p", str(p)], capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and stdout == ""
        assert err == (f"mnlab: error: carrier size 2p = {2 * p} outside 2..64;"
                       " the largest prime p is 31\n")

    def test_con_missing_file(self, tmp_path, capsys):
        rc, _, err = run(["con", str(tmp_path / "nope.algebra")], capsys)
        assert rc == 2

    def test_malformed_files_are_usage_errors(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"degree": 2, "generators": [[1, 0]]}))
        bad = {"list": [1, 2], "null": None,
               "float_op": {"size": 2, "ops": [[0, 1.5]]},
               "float_size": {"size": 2.7, "ops": []},
               "int_name": {"size": 2, "ops": [], "name": 5}}
        for name, data in bad.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            for argv in (["con", str(path)], ["interval", str(g), str(path)]):
                rc, stdout, err = run(argv, capsys)
                assert rc == 2 and stdout == "", (name, argv)
                assert err.startswith("mnlab: error: ") and str(path) in err
        rc, stdout, err = run(["con", str(tmp_path)], capsys)  # a directory
        assert rc == 2 and stdout == "" and str(tmp_path) in err
        # not JSON at all: an empty file, a truncated one and one nested past
        # the recursion limit, each refused at once
        for name, text in (("empty", ""), ("truncated", '{"size": 2, "ops": [[0'),
                           ("nested", "[" * 100_000)):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for argv in (["con", str(path)], ["interval", str(g), str(path)]):
                start = time.perf_counter()
                rc, stdout, err = run(argv, capsys)
                assert time.perf_counter() - start < 10, (name, argv)
                assert rc == 2 and stdout == "", (name, argv)
                assert err.startswith("mnlab: error: ") and str(path) in err

    def test_con_oracle_size_cap(self, tmp_path, capsys):
        algebra = tmp_path / "big.algebra"
        rot12 = [(i + 1) % 12 for i in range(12)]
        algebra.write_text(json.dumps(
            {"format": 1, "size": 12, "ops": [rot12]}))
        rc, _, err = run(["con", str(algebra), "--oracle"], capsys)
        assert rc == 2 and "oracle" in err
        # without the oracle flag the same file is fine
        rc, stdout, _ = run(["con", str(algebra)], capsys)
        assert rc == 0 and len(json.loads(stdout)["congruences"]) == 6


class TestInterval:
    def test_interval_report(self, tmp_path, capsys):
        """Group files written by group make, and one with no generators,
        read back: Sub(S3) is M_4 and [Z3, S3] is the chain 3 < 6."""
        s3, z3, e3 = (tmp_path / f"{name}.json" for name in ("s3", "z3", "e3"))
        for kind, out in (("symmetric", s3), ("cyclic", z3)):
            assert run(["group", "make", "--kind", kind, "--n", "3",
                        "--out", str(out)], capsys)[0] == 0
        e3.write_text(json.dumps({"format": 1, "degree": 3,
                                  "generators": []}))
        for h, orders, shape in ((e3, [1, 2, 2, 2, 3, 6], ("M_n", 4)),
                                 (z3, [3, 6], ("chain", None))):
            rc, stdout, _ = run(["interval", str(s3), str(h)], capsys)
            assert rc == 0
            data = json.loads(stdout)
            assert (data["lattice"]["shape"], data["lattice"].get("n")) == shape
            assert data["interval"]["subgroup_orders"] == orders
            assert data["interval"]["index"] == 6 // orders[0]

    def test_group_file_bounds_are_usage_errors(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"degree": 2, "generators": [[1, 0]]}))
        s8 = {"degree": 8, "generators": [[1, 0, 2, 3, 4, 5, 6, 7],
                                          [1, 2, 3, 4, 5, 6, 7, 0]]}
        for name, data, bound in (("negative", {"degree": -1, "generators": []}, "256"),
                                  ("wide", {"degree": 300, "generators": []}, "256"),
                                  ("s8", s8, "5040")):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            for argv in (["interval", str(path), str(g)],
                         ["interval", str(g), str(path)]):
                rc, stdout, err = run(argv, capsys)
                assert rc == 2 and stdout == "", (name, argv)
                assert str(path) in err and bound in err, (name, argv)

    def test_not_a_subgroup_names_input(self, tmp_path, capsys):
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        g.write_text(json.dumps({"format": 1, "degree": 3,
                                 "generators": [[1, 0, 2]]}))
        h.write_text(json.dumps({"format": 1, "degree": 3,
                                 "generators": [[1, 2, 0]]}))
        rc, _, err = run(["interval", str(g), str(h)], capsys)
        assert rc == 2 and "not a subgroup" in err and str(h) in err


class TestVerify:
    def test_lemma_small_passes(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc, stdout, _ = run(["verify", "lemma", "--max-order", "6",
                             "--out", str(report)], capsys)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["status"] == "PASS" and data["sweep"] == "lemma"

    def test_lemma_trivial_catalog_is_vacuous(self, capsys):
        rc, stdout, _ = run(["verify", "lemma", "--max-order", "1"], capsys)
        data = json.loads(stdout)
        # no M_n intervals at all, so no hypothesis hits and no failures
        assert data["counts"]["hypothesis_hits"] == 0
        assert data["counterexamples"] == []

    def test_lemma_nonpositive_order_is_usage_error(self, capsys):
        rc, stdout, err = run(["verify", "lemma", "--max-order", "-3"], capsys)
        assert rc == 2 and stdout == "" and "at least 1" in err

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_report_matches_the_recorded_one(self, name, capsys):
        """Each recorded report, written by mnlab verify from its arguments
        alone; theorem1 --p 3 needs no other flag."""
        rc, stdout, _ = run(["verify", *RECORDED[name]], capsys)
        assert rc == 0
        report, recorded = json.loads(stdout), (DATA / name).read_text()
        if name.endswith(".sha256"):
            assert recorded_digest(report) == recorded.strip()
        else:
            assert recorded_text(report) == recorded

    @pytest.mark.parametrize("name", ["theorem1_p3.json", "theorem2_p3_s6.json"])
    def test_report_does_not_depend_on_the_hash_seed(self, name):
        """Each run of the suite has its own random hash seed, so a report
        whose bytes followed the order of a str or bytes set would fail only
        now and then; fixed seeds make that a steady failure."""
        want = recorded_digest(json.loads((DATA / name).read_text()))
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "mnlab.cli", "verify", *RECORDED[name]],
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True)
            assert recorded_digest(json.loads(proc.stdout)) == want, seed

    def test_flags_the_sweep_does_not_read_are_usage_errors(self, capsys):
        for argv, flag in ((["lemma", "--p", "3"], "--p"),
                           (["lemma", "--max-size", "4"], "--max-size"),
                           (["theorem1", "--p", "3", "--max-size", "4"],
                            "--max-size"),
                           (["theorem1", "--p", "3", "--max-order", "24"],
                            "--max-order"),
                           (["theorem2", "--p", "3", "--max-size", "4",
                             "--max-order", "24"], "--max-order")):
            rc, stdout, err = run(["verify", *argv], capsys)
            assert rc == 2 and stdout == "", argv
            assert err.startswith("mnlab: error: ") and flag in err, argv

    def test_lemma_max_order_defaults_to_24(self, capsys):
        rc, stdout, _ = run(["verify", "lemma"], capsys)
        assert rc == 0 and json.loads(stdout)["params"] == {"max_order": 24}

    def test_theorem2_small(self, capsys):
        rc, stdout, _ = run(["verify", "theorem2", "--p", "3",
                             "--max-size", "4"], capsys)
        assert rc == 0
        data = json.loads(stdout)
        assert data["status"] == "PASS"
        assert "carrier 6 is not reached" in data["notes"][-1]

    def test_failing_sweeps_exit_1(self, monkeypatch, capsys):
        """Fault injection through the CLI: each broken conjunct turns the
        report to FAIL and the exit code to 1."""
        real = verify.galois_is_closed
        theorem2 = ["verify", "theorem2", "--p", "3", "--max-size", "6"]
        for name, fake, argv in (
                ("galois_is_closed", lambda n, atoms: n == 5 or real(n, atoms),
                 theorem2),
                ("galois_is_closed", lambda n, atoms: False, theorem2),
                ("quotient", lambda G, H: None, ["verify", "lemma"]),
                ("is_dihedral", lambda K: None,
                 ["verify", "theorem1", "--p", "2"]),
                ("_mn_of", lambda mids, leq: 3,
                 ["verify", "theorem1", "--p", "2"])):
            with monkeypatch.context() as m:
                m.setattr(verify, name, fake)
                rc, stdout, _ = run(argv, capsys)
            assert rc == 1 and json.loads(stdout)["status"] == "FAIL", name

    def test_theorem2_rejects_p5(self, capsys):
        rc, _, err = run(["verify", "theorem2", "--p", "5",
                          "--max-size", "4"], capsys)
        assert rc == 2 and "p = 3" in err

    def test_timing_is_not_negative(self, capsys):
        for argv in (["lemma", "--max-order", "6"], ["theorem1", "--p", "2"],
                     ["theorem2", "--p", "3", "--max-size", "4"]):
            rc, stdout, _ = run(["verify", *argv], capsys)
            assert rc == 0 and json.loads(stdout)["timing_ms"] >= 0, argv

    def test_identical_argv_identical_report_modulo_timing(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["verify", "lemma", "--max-order", "8", "--out", str(r1)], capsys)
        run(["verify", "lemma", "--max-order", "8", "--out", str(r2)], capsys)
        assert (recorded_text(json.loads(r1.read_text()))
                == recorded_text(json.loads(r2.read_text())))


# each group kind and each sweep, with a flag it does not read added or a
# flag it requires left out; --max-order is optional, so lemma requires none
GROUP = ["group", "make", "--kind"]
FLAG_CASES = [
    (GROUP + ["cyclic", "--n", "3", "--m", "3"], "--m"),
    (GROUP + ["cyclic", "--n", "3", "--left", "cyclic:2"], "--left"),
    (GROUP + ["cyclic", "--n", "3", "--right", "cyclic:2"], "--right"),
    (GROUP + ["cyclic"], "--n"),
    (GROUP + ["symmetric", "--n", "3", "--m", "3"], "--m"),
    (GROUP + ["symmetric", "--n", "3", "--left", "cyclic:2"], "--left"),
    (GROUP + ["symmetric", "--n", "3", "--right", "cyclic:2"], "--right"),
    (GROUP + ["symmetric"], "--n"),
    (GROUP + ["dihedral", "--m", "3", "--n", "3"], "--n"),
    (GROUP + ["dihedral", "--m", "3", "--left", "cyclic:2"], "--left"),
    (GROUP + ["dihedral", "--m", "3", "--right", "cyclic:2"], "--right"),
    (GROUP + ["dihedral"], "--m"),
    (GROUP + ["klein", "--n", "3"], "--n"),
    (GROUP + ["klein", "--m", "3"], "--m"),
    (GROUP + ["klein", "--left", "cyclic:2"], "--left"),
    (GROUP + ["klein", "--right", "cyclic:2"], "--right"),
    (GROUP + ["product", "--left", "cyclic:2", "--right", "cyclic:3", "--n", "3"],
     "--n"),
    (GROUP + ["product", "--left", "cyclic:2", "--right", "cyclic:3", "--m", "3"],
     "--m"),
    (GROUP + ["product", "--right", "cyclic:3"], "--left"),
    (GROUP + ["product", "--left", "cyclic:2"], "--right"),
    (["verify", "lemma", "--p", "3"], "--p"),
    (["verify", "lemma", "--max-size", "4"], "--max-size"),
    (["verify", "theorem1", "--p", "3", "--max-size", "4"], "--max-size"),
    (["verify", "theorem1", "--p", "3", "--max-order", "24"], "--max-order"),
    (["verify", "theorem1"], "--p"),
    (["verify", "theorem2", "--p", "3", "--max-size", "4", "--max-order", "24"],
     "--max-order"),
    (["verify", "theorem2", "--max-size", "4"], "--p"),
    (["verify", "theorem2", "--p", "3"], "--max-size"),
]


@pytest.mark.parametrize("argv,flag", FLAG_CASES,
                         ids=[" ".join(argv) for argv, _ in FLAG_CASES])
def test_flag_not_read_or_left_out_is_usage_error(argv, flag, capsys):
    rc, stdout, err = run(argv, capsys)
    assert rc == 2 and stdout == ""
    assert err.startswith("mnlab: error: ") and flag in err.split()


# each kind, and products of each kind; n and m lie in 1..256, both ends
# included; the summary line carries the built group's order and degree
ORDER_CASES = [
    (["cyclic", "--n", "6"], "Z6", 6, 6),
    (["dihedral", "--m", "4"], "D8", 8, 4),
    (["symmetric", "--n", "4"], "S4", 24, 4),
    (["klein"], "V4", 4, 4),
    (["cyclic", "--n", "1"], "Z1", 1, 1),
    (["cyclic", "--n", "256"], "Z256", 256, 256),
    (["product", "--left", "cyclic:3", "--right", "klein"], "Z3xV4", 12, 7),
    (["product", "--left", "klein", "--right", "klein"], "V4xV4", 16, 8),
    (["product", "--left", "symmetric:4", "--right", "dihedral:5"], "S4xD10",
     240, 9),
    (["product", "--left", "dihedral:3", "--right", "klein"], "D6xV4", 24, 7),
    # the least factor parameter of each kind: dihedral's is 2
    (["product", "--left", "dihedral:2", "--right", "cyclic:1"], "D4xZ1", 4, 5),
]


@pytest.mark.parametrize("argv,name,order,degree", ORDER_CASES,
                         ids=[" ".join(argv) for argv, *_ in ORDER_CASES])
def test_group_make_order_and_name(argv, name, order, degree, tmp_path, capsys):
    out = tmp_path / "g.json"
    rc, stdout, err = run(GROUP + argv + ["--out", str(out)], capsys)
    assert rc == 0 and err == ""
    assert json.loads(stdout) == {"format": 1, "name": name, "degree": degree,
                                  "order": order, "written": str(out)}
    data = json.loads(out.read_text())
    assert data["name"] == name and data["degree"] == degree


# checked before n! is computed: past the bound, --n 1000000 would otherwise
# read as a group order over 5040
BOUND_CASES = [
    (["symmetric", "--n", "-5"], "parameter -5 must lie in 1..256"),
    (["symmetric", "--n", "0"], "parameter 0 must lie in 1..256"),
    (["symmetric", "--n", "257"], "parameter 257 must lie in 1..256"),
    (["symmetric", "--n", "1000000"], "parameter 1000000 must lie in 1..256"),
    (["dihedral", "--m", "0"], "parameter 0 must lie in 1..256"),
    (["product", "--left", "cyclic:2", "--right", "cyclic:-2"],
     "--right: bad factor parameter in 'cyclic:-2'"),
    (["product", "--left", "symmetric:257", "--right", "klein"],
     "--left: bad factor parameter in 'symmetric:257'"),
]


@pytest.mark.parametrize("argv,message", BOUND_CASES,
                         ids=[" ".join(argv) for argv, _ in BOUND_CASES])
def test_group_make_parameter_outside_1_to_256(argv, message, capsys):
    rc, stdout, err = run(GROUP + argv, capsys)
    assert rc == 2 and stdout == ""
    assert err == f"mnlab: error: {message}\n"


def test_dihedral_m_below_2_names_the_flag(capsys):
    # in 1..256, but below construct.dihedral's least m, like dihedral:1
    rc, stdout, err = run(GROUP + ["dihedral", "--m", "1"], capsys)
    assert rc == 2 and stdout == ""
    assert err == "mnlab: error: --m: dihedral needs at least 2, got 1\n"


FACTOR_CASES = [
    ("cyclic", "bad factor parameter in 'cyclic'"),
    ("cyclic:", "bad factor parameter in 'cyclic:'"),
    ("cyclic:x", "bad factor parameter in 'cyclic:x'"),
    ("cyclic:300", "bad factor parameter in 'cyclic:300'"),
    # in 1..256, but below construct.dihedral's least m
    ("dihedral:1", "bad factor parameter in 'dihedral:1'"),
    ("bogus:3", "bad factor 'bogus:3'; use kind:param, e.g. cyclic:3, or klein"),
    ("klein:9", "bad factor 'klein:9'; use kind:param, e.g. cyclic:3, or klein"),
]


@pytest.mark.parametrize("flag", ["left", "right"])
@pytest.mark.parametrize("text,message", FACTOR_CASES,
                         ids=[text for text, _ in FACTOR_CASES])
def test_bad_factor_message(text, message, flag, capsys):
    factors = {"left": "cyclic:2", "right": "cyclic:2", flag: text}
    start = time.perf_counter()
    rc, stdout, err = run(GROUP + ["product", "--left", factors["left"],
                                   "--right", factors["right"]], capsys)
    assert time.perf_counter() - start < 10
    assert rc == 2 and stdout == ""
    assert err == f"mnlab: error: --{flag}: {message}\n"


def test_order_past_the_bound_names_the_bound(capsys):
    # 4 x 256! has 508 digits, so the message names the bound alone
    rc, stdout, err = run(GROUP + ["product", "--left", "symmetric:256",
                                   "--right", "klein"], capsys)
    assert rc == 2 and stdout == ""
    assert err == "mnlab: error: group order exceeds bound 5040\n"


def test_unknown_kind_is_usage_error(capsys):
    rc, stdout, err = run(GROUP + ["frobnicate"], capsys)
    assert rc == 2 and stdout == ""
    assert "invalid choice" in err and "frobnicate" in err
    for kind in ("cyclic", "dihedral", "symmetric", "klein", "product"):
        assert kind in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mnlab.cli", "witness", "--p", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == 4

    def test_import_loads_no_heavy_modules(self):
        # a fresh interpreter, so nothing this suite imported counts; what
        # site loaded before the import does not count either
        code = ("import sys; before = set(sys.modules); import mnlab;"
                " print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        added = set(proc.stdout.split())
        assert "mnlab.verify" in added
        assert not added & {"hashlib", "_hashlib", "dataclasses", "inspect",
                            "typing"}

    def test_no_command_is_usage_error(self, capsys):
        assert run([], capsys)[0] == 2
