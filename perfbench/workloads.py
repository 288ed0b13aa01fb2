"""The benchmark's workloads: their inputs, their timed calls and the checks
on their verdicts.

Each workload is a closed loop: one caller makes one library call, waits for
its verdict, then makes the next.  Only the ``algebras`` workload depends on
the seed; the two sweeps are exhaustive, so ``groups`` and ``partitions``
ignore it.  Checks are keyed on mathematical facts (verdicts, witness sets,
lattice sizes) and never on report fields that later changes may legitimately
alter (``mode``, ``notes``, ``candidate_systems``, ``timing_ms``).

Nothing here imports ``mnlab`` at module level: the worker times that import
as part of set-up.
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path
from typing import Callable

WORKLOADS = ("groups", "partitions", "algebras")

LEMMA_MAX_ORDER = 48      # the largest bound check_lemma accepts
THEOREM_P = 3
THEOREM2_MAX_SIZE = 6
ALGEBRA_SIZES = (5, 6, 7)
# random algebras per (carrier size, op count) cell.  Size-7 algebras with 2
# or 3 ops have small lattices and cost about the same each, and they are
# most of the sample, so the median falls inside that one cell instead of
# between size classes, where it would move with the seed.  Single-op cells
# are heavy-tailed (lattices of up to ~180 elements), so they are kept few.
ALGEBRA_CELLS = {**{(n, 1): 8 for n in ALGEBRA_SIZES},
                 (5, 2): 8, (5, 3): 8, (6, 2): 8, (6, 3): 8,
                 (7, 2): 64, (7, 3): 64}
# ops whose image has fewer points are redrawn.  Such a map on 7 points is a
# rare draw (about 1 in 300) whose lattice has hundreds of elements (406 on
# one seed, 4.7 s), so it would decide a run's verdict_s on its own; the
# op-free algebras already cover large lattices, up to Eq(7).
MIN_IMAGE = 3

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class Checks:
    """Counts attempted and failed verdict checks, keeping the first few
    failure messages."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
        return ok


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# --- independent helpers (no mnlab code) -----------------------------------

def bell(n: int) -> int:
    """Bell number by the recurrence B(m+1) = sum C(m, k) B(k)."""
    from math import comb
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Image tuple of a permutation written as disjoint cycles, "e" = identity."""
    img = list(range(degree))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = [int(x) for x in cyc.split()]
        for i, x in enumerate(pts):
            img[x] = pts[(i + 1) % len(pts)]
    return tuple(img)


def closure(gens: list[tuple[int, ...]], degree: int) -> frozenset:
    """Element set generated by ``gens`` (breadth-first products)."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[x[i]] for i in range(degree))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


# --- extracting the facts a check compares ---------------------------------

def lemma_keys(report: dict) -> set[tuple[str, str]]:
    return {(f["group"], f["subgroup_key"]) for f in report["findings"]}


def witness_group(w: dict) -> frozenset:
    gens = [parse_cycles(g, w["degree"]) for g in w["generators"]]
    return closure(gens, w["degree"])


def group_key(eset: frozenset) -> tuple:
    return tuple(sorted(eset))


def closed_systems(report: dict, size: int) -> set[frozenset]:
    return {frozenset(tuple(r) for r in w["system"])
            for w in report["witnesses"] if w["size"] == size}


def expected_facts(lemma: dict, theorem1: dict, theorem2: dict) -> dict:
    """The facts the checks compare against, from reports of a trusted run."""
    return {
        "lemma_max_order": LEMMA_MAX_ORDER,
        "lemma_keys": sorted(lemma_keys(lemma)),
        "theorem1_witness_groups": sorted(
            [list(map(list, group_key(witness_group(w))))
             for w in theorem1["witnesses"]]),
        "theorem2_closed_systems": sorted(
            sorted(map(list, s))
            for s in closed_systems(theorem2, THEOREM2_MAX_SIZE)),
    }


# --- checks ---------------------------------------------------------------

def check_groups(lemma: dict, theorem1: dict, expected: dict, checks: Checks) -> None:
    checks.expect(lemma["status"] == "PASS", "lemma: status is not PASS")
    for f in lemma["findings"]:
        checks.expect(f["ok"], f"lemma: finding {f['group']}/{f['subgroup_key']} not ok")
    want = {tuple(k) for k in expected["lemma_keys"]}
    got = lemma_keys(lemma)
    checks.expect(got == want, f"lemma: (group, subgroup) set differs:"
                  f" {len(got - want)} extra, {len(want - got)} missing")

    checks.expect(theorem1["status"] == "PASS", "theorem1: status is not PASS")
    checks.expect(not theorem1["counterexamples"], "theorem1: counterexamples reported")
    order = 2 * THEOREM_P
    groups = set()
    for w in theorem1["witnesses"]:
        d = w["degree"]
        eset = witness_group(w)
        groups.add(group_key(eset))
        orbit = {g[0] for g in eset}
        nonabelian = any(_compose(a, b) != _compose(b, a) for a in eset for b in eset)
        checks.expect(len(eset) == order, f"theorem1: witness of order {len(eset)}")
        checks.expect(len(orbit) == d and len(eset) == d,
                      "theorem1: witness action is not regular")
        # the only nonabelian group of order 2p is the dihedral one
        checks.expect(nonabelian, "theorem1: witness group is abelian")
        checks.expect(w["dihedral_m"] == THEOREM_P,
                      f"theorem1: dihedral_m {w['dihedral_m']}")
    want_groups = {tuple(map(tuple, g)) for g in expected["theorem1_witness_groups"]}
    checks.expect(groups == want_groups, f"theorem1: witness groups differ:"
                  f" {len(groups - want_groups)} extra,"
                  f" {len(want_groups - groups)} missing")


def check_partitions(theorem2: dict, expected: dict, checks: Checks,
                     is_closed: Callable[[int, list], bool]) -> None:
    """``is_closed(size, rgs_list)`` re-runs the Galois closure on a system."""
    checks.expect(theorem2["status"] == "PASS", "theorem2: status is not PASS")
    by_size = {f["size"]: f for f in theorem2["findings"]}
    for s in (4, 5):
        checks.expect(by_size.get(s, {}).get("closed_systems") == 0,
                      f"theorem2: size {s} reports closed systems")
        checks.expect(not closed_systems(theorem2, s),
                      f"theorem2: size {s} has closed witnesses")
    got = closed_systems(theorem2, THEOREM2_MAX_SIZE)
    want = {frozenset(map(tuple, s)) for s in expected["theorem2_closed_systems"]}
    checks.expect(got == want, f"theorem2: size-6 closed systems differ:"
                  f" {len(got - want)} extra, {len(want - got)} missing")
    for system in sorted(map(sorted, got)):
        checks.expect(is_closed(THEOREM2_MAX_SIZE, system),
                      f"theorem2: system {system} does not re-close")


def check_algebras(results: list[dict], checks: Checks) -> None:
    """``results`` holds one entry per algebra: size, ops, n (the lattice
    size), and match (whether the lattice equals the oracle's)."""
    for r in results:
        checks.expect(r["match"], f"algebra size {r['size']} ops {r['ops']}:"
                      " congruence lattice differs from the oracle")
        if r["ops"] == 0:
            checks.expect(r["n"] == bell(r["size"]),
                          f"op-free algebra of size {r['size']}: {r['n']}"
                          f" congruences, expected Bell = {bell(r['size'])}")


# --- inputs ---------------------------------------------------------------

def algebra_tables(seed: int) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The seeded algebra list as (size, op tables): the fixed number of
    ALGEBRA_CELLS per (size, op count) cell, each op a random map with at
    least MIN_IMAGE points in its image, plus the op-free algebra of each
    size once, in a seeded order."""
    rng = random.Random(seed)

    def op(n: int) -> tuple[int, ...]:
        while True:
            table = tuple(rng.randrange(n) for _ in range(n))
            if len(set(table)) >= MIN_IMAGE:
                return table

    out = [(n, ()) for n in ALGEBRA_SIZES]
    for (n, k), count in sorted(ALGEBRA_CELLS.items()):
        for _ in range(count):
            out.append((n, tuple(op(n) for _ in range(k))))
    rng.shuffle(out)
    return out


# --- running --------------------------------------------------------------

class Run:
    """One workload in one process: ``setup()`` builds the inputs,
    ``timed()`` makes the calls and records each call's start and end
    (``perf_counter``), ``check()`` runs the verdict checks outside the timed
    region."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.calls: list[tuple[str, float, float]] = []
        self.results: dict = {}

    def setup(self) -> None:
        import mnlab
        self.mnlab = mnlab
        if self.workload == "algebras":
            self.algebras = [mnlab.UnaryAlgebra(n, ops)
                             for n, ops in algebra_tables(self.seed)]

    def _call(self, name: str, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.calls.append((name, t0, time.perf_counter()))
        return out

    def timed(self) -> None:
        # look functions up at call time, so traced bindings are the ones used
        verify = self.mnlab.verify
        if self.workload == "groups":
            self.results["lemma"] = self._call(
                "lemma", verify.check_lemma, LEMMA_MAX_ORDER).to_dict()
            self.results["theorem1"] = self._call(
                "theorem1", verify.check_theorem1, THEOREM_P).to_dict()
        elif self.workload == "partitions":
            self.results["theorem2"] = self._call(
                "theorem2", verify.check_theorem2, THEOREM_P,
                THEOREM2_MAX_SIZE).to_dict()
        else:
            congruence = self.mnlab.congruence
            out = self.results["algebras"] = []
            for A in self.algebras:
                t0 = time.perf_counter()
                L = congruence.all_congruences(A)
                match = L == congruence.congruences_oracle(A)
                self.calls.append((f"algebra{A.size}", t0, time.perf_counter()))
                out.append({"size": A.size, "ops": len(A.ops), "n": L.n,
                            "match": match})

    def check(self, checks: Checks) -> None:
        if self.workload == "groups":
            check_groups(self.results["lemma"], self.results["theorem1"],
                         load_expected(), checks)
        elif self.workload == "partitions":
            mnlab = self.mnlab

            def is_closed(size, system):
                return mnlab.galois_is_closed(
                    size, [mnlab.Partition(r) for r in system])

            check_partitions(self.results["theorem2"], load_expected(), checks,
                             is_closed)
        else:
            check_algebras(self.results["algebras"], checks)
