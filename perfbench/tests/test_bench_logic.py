"""Tests of the benchmark's own logic (not of mnlab).

    python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import run
import tracer
import workloads
from tracer import Target, Tracer

BENCH = Path(__file__).resolve().parent.parent


# --- self time ------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer("t", clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        wleaf()
        wleaf()
        clock.advance(0.5)

    def outer():
        wmiddle()
        clock.advance(3.0)
        wleaf()

    wleaf = tr._wrap(leaf, Target("m", "leaf"), "m")
    wmiddle = tr._wrap(middle, Target("m", "middle", coarse=True), "m")
    wouter = tr._wrap(outer, Target("m", "outer", coarse=True), "m")
    with tr.span("bench"):
        wouter()

    rows = tracer.Rows(tr.rows())
    assert rows.calls("m.leaf") == 3
    assert rows.total_s("m.leaf") == pytest.approx(3.0)
    assert rows.self_s("m.leaf") == pytest.approx(3.0)
    assert rows.total_s("m.middle") == pytest.approx(4.5)
    assert rows.self_s("m.middle") == pytest.approx(2.5)
    assert rows.total_s("m.outer") == pytest.approx(8.5)
    assert rows.self_s("m.outer") == pytest.approx(3.0)
    # hot leaves aggregate per (function, parent)
    parents = {r[2]: r[3] for r in tr.rows() if r[0] == "m.leaf"}
    assert parents == {"m.middle": 2, "m.outer": 1}
    # coarse spans keep their parent, trace id and self time
    spans = {s["name"]: s for s in tr.spans}
    assert spans["m.outer"]["parent"] == spans["bench"]["id"]
    assert spans["m.middle"]["parent"] == spans["m.outer"]["id"]
    assert {s["trace"] for s in tr.spans} == {"t"}
    assert spans["m.middle"]["self_s"] == pytest.approx(2.5)
    assert spans["bench"]["end"] - spans["bench"]["start"] == pytest.approx(8.5)
    assert spans["bench"]["self_s"] == pytest.approx(0.0)


def test_generator_is_timed_per_next():
    clock = FakeClock()
    tr = Tracer("t", clock=clock)

    def gen():
        for i in range(3):
            clock.advance(2.0)
            yield i
        clock.advance(1.0)

    wgen = tr._wrap(gen, Target("m", "gen", generator=True), "m")
    with tr.span("bench"):
        for _ in wgen():
            clock.advance(10.0)  # the consumer's time is not the generator's
    rows = tracer.Rows(tr.rows())
    assert rows.calls("m.gen") == 4
    assert rows.units("m.gen") == 3
    assert rows.self_s("m.gen") == pytest.approx(7.0)


def test_install_covers_every_binding_and_restores():
    import mnlab
    original = mnlab.partition.rgs_join
    tr = Tracer("t")
    tr.install()
    try:
        assert tr.absent == []
        assert mnlab.verify.rgs_join is not original
        assert mnlab.congruence.rgs_join is not original
        mnlab.verify.rgs_join((0, 1, 2), (0, 0, 1))
        mnlab.congruence.rgs_join((0, 1, 2), (0, 0, 1))
        mnlab.congruence.rgs_join((0, 1, 2), (0, 1, 1))
    finally:
        tr.uninstall()
    assert mnlab.verify.rgs_join is original
    assert mnlab.congruence.rgs_join is original
    rows = tracer.Rows(tr.rows())
    assert rows.calls("partition.rgs_join", "verify") == 1
    assert rows.calls("partition.rgs_join", "congruence") == 2


def test_missing_target_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        Target("partition", "no_such_function"),
        Target("lattice", "NoSuchClass.method")))
    tr = Tracer("t")
    tr.install()
    tr.uninstall()
    assert tr.absent == ["partition.no_such_function", "lattice.NoSuchClass.method"]
    metrics = tracer.layer_metrics(tr.rows())
    assert set(metrics) == {m[0] for m in tracer.LAYER_METRICS}


# --- percentiles ----------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (19, None), (20, 50), (99, 50), (100, 90), (219, 90), (999, 90),
    (1000, 99), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    got = run.tail_percentile([float(i) for i in range(n)])
    if want is None:
        assert got is None
    else:
        q, value, count = got
        assert (q, count) == (want, n)
        assert sum(1 for i in range(n) if i > value) >= 10


def test_end_to_end_medians_and_setup_scaling():
    workers = [{"setup_s": 0.2, "verdict_s": v, "peak_rss_mb": 30.0,
                "calls": [("a", 1.0), ("b", v - 1.0)], "speed_factor": f}
               for v, f in ((10.0, 1.2), (12.0, 1.4))]
    probes = [{"setup_s": s} for s in (0.1, 0.1, 0.3)]
    m = run.end_to_end(workers, probes)
    # the raw set-up median, in the run's reference seconds
    assert m["setup_s"] == pytest.approx(0.2 * 1.3)
    assert m["verdict_s"] == pytest.approx(11.0)
    assert m["call_p50_ms"] == pytest.approx(1000.0)
    assert m["call_max_s"] == pytest.approx(10.0)


def test_nearest_rank():
    assert run.nearest_rank([3.0, 1.0], 50) == 1.0
    assert run.nearest_rank([3.0, 1.0], 100) == 3.0
    assert run.nearest_rank(list(range(1, 101)), 90) == 90


# --- verdict checks -------------------------------------------------------

def _cycles(img):
    seen, out = set(), []
    for i in range(len(img)):
        if i in seen or img[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = img[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "e"


def _group_reports(expected):
    lemma = {"status": "PASS",
             "findings": [{"group": g, "subgroup_key": k, "ok": True}
                          for g, k in expected["lemma_keys"]]}
    witnesses = [{"degree": len(g[0]), "generators": [_cycles(p) for p in g],
                  "dihedral_m": 3} for g in expected["theorem1_witness_groups"]]
    theorem1 = {"status": "PASS", "counterexamples": [], "witnesses": witnesses}
    return lemma, theorem1


def _theorem2_report(expected):
    return {"status": "PASS",
            "findings": [{"size": s, "closed_systems": 0} for s in (4, 5)]
            + [{"size": 6, "closed_systems": 20}],
            "witnesses": [{"size": 6, "system": s}
                          for s in expected["theorem2_closed_systems"]]}


def test_expected_facts_have_the_seed_sizes():
    expected = workloads.load_expected()
    assert len(expected["lemma_keys"]) == 398
    assert len(expected["theorem1_witness_groups"]) == 20
    assert len(expected["theorem2_closed_systems"]) == 20


def test_group_checks_pass_and_catch_a_tampered_report():
    expected = workloads.load_expected()
    lemma, theorem1 = _group_reports(expected)
    checks = workloads.Checks()
    workloads.check_groups(lemma, theorem1, expected, checks)
    assert checks.failed == 0 and checks.attempted > 400

    lemma["findings"][5]["ok"] = False
    del lemma["findings"][7]
    theorem1["witnesses"][0]["generators"] = theorem1["witnesses"][0]["generators"][:1]
    checks = workloads.Checks()
    workloads.check_groups(lemma, theorem1, expected, checks)
    # finding not ok; lemma set differs; witness order, regularity,
    # abelian-ness; witness set differs
    assert checks.failed == 6, checks.failures


def test_partition_checks_catch_a_tampered_report():
    expected = workloads.load_expected()
    report = _theorem2_report(expected)
    checks = workloads.Checks()
    workloads.check_partitions(report, expected, checks, lambda s, r: True)
    assert checks.failed == 0

    report["witnesses"].append({"size": 5, "system": [[0, 0, 1, 1, 1]] * 4})
    checks = workloads.Checks()
    workloads.check_partitions(report, expected, checks, lambda s, r: r[0][0] == 0)
    assert checks.failed == 1

    checks = workloads.Checks()
    workloads.check_partitions(report, expected, checks, lambda s, r: False)
    assert checks.failed == 21


def test_algebra_checks_catch_a_tampered_lattice(monkeypatch):
    import mnlab
    r = workloads.Run("algebras", seed=1)
    r.setup()
    r.algebras = [mnlab.UnaryAlgebra(4, ()), mnlab.UnaryAlgebra(4, ((1, 2, 3, 0),))]
    r.timed()
    checks = workloads.Checks()
    r.check(checks)
    assert (checks.attempted, checks.failed) == (3, 0)

    # a lattice that drops congruences: the oracle and Bell(4) both disagree
    real = mnlab.congruence.all_congruences
    monkeypatch.setattr(mnlab.congruence, "all_congruences",
                        lambda A: real(mnlab.UnaryAlgebra(A.size, ((1, 0, 3, 2),))))
    r.timed()
    checks = workloads.Checks()
    r.check(checks)
    assert checks.failed == 3


def test_bell_numbers():
    assert [workloads.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


# --- inputs ---------------------------------------------------------------

def test_seed_fixes_the_algebra_list():
    a, b = workloads.algebra_tables(7), workloads.algebra_tables(7)
    assert a == b
    assert a != workloads.algebra_tables(8)
    cells = {}
    for size, ops in a:
        cells[size, len(ops)] = cells.get((size, len(ops)), 0) + 1
    assert cells == {**{(n, 0): 1 for n in workloads.ALGEBRA_SIZES},
                     **workloads.ALGEBRA_CELLS}


# --- the benchmark file ---------------------------------------------------

def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


# --- speed scaling --------------------------------------------------------

def test_speed_factor_uses_samples_inside_or_nearest():
    import speed
    sampler = speed.SpeedSampler()
    ref = speed.REFERENCE_PROBE_S
    for i in range(20):  # a slow stretch (probe at 2x) from t = 10 on
        sampler.stamps.append(float(i))
        sampler.probes.append(ref * (2 if i >= 10 else 1))
    assert sampler.factor(0.5, 8.5) == pytest.approx(1.0)
    assert sampler.scaled(10.0, 19.0) == pytest.approx(4.5)
    # a short interval takes the MIN_SAMPLES nearest samples: 6..10
    assert sampler.factor(8.2, 8.3) == pytest.approx(5 / 6)
    assert sampler.factor(30.0, 31.0) == pytest.approx(0.5)
