"""Verification sweeps: interval shapes over the group catalog, transitive
actions of small degree, Galois-closed partition systems, and the minimal
congruence-lattice witness.

Each sweep returns a VerificationReport whose findings are fully determined
by its parameters (timing aside).  Every verdict is exact: the transitive
sweep enumerates every subgroup of each symmetric group up to degree 6 and
excludes degree 7 by the prime-degree rule, which its report states.
"""

from __future__ import annotations

import operator
import time

from .congruence import (CON_SIZE_BOUND, UnaryAlgebra, _congruence_set,
                         all_congruences, galois_is_closed, gset_algebra)
from .construct import catalog, dihedral, regular_action, symmetric
from .lattice import FinLattice, _mn_of
from .partition import partition_index, rgs_canonical, rgs_refines
from .perm import (PermGroup, _orbits, _prime_power, _small_genset,
                   is_dihedral, quotient, subgroup_records)

THEOREM1_ENUM_DEGREE = 6
THEOREM2_SIZE_BOUND = 6
PRIME_DEGREE_RULE = (
    "prime-degree rule: the blocks of a transitive action all have one size,"
    " which divides the degree, so at a prime degree Con is the 2-element"
    " chain and never M_n")


def _subgroup_key(H: PermGroup) -> str:
    import hashlib  # on first use: it loads OpenSSL, ~45% of a cold import mnlab
    digest = hashlib.sha1(b"|".join(H.elements)).hexdigest()[:10]
    return f"o{H.order}:{digest}"


class VerificationReport:
    """Structured outcome of one sweep."""

    def __init__(self, sweep: str, params: dict, status: str,
                 findings: list | None = None, witnesses: list | None = None,
                 counterexamples: list | None = None, counts: dict | None = None,
                 notes: list | None = None, timing_ms: float = 0.0):
        self.sweep, self.params, self.status = sweep, params, status
        self.findings, self.witnesses, self.counterexamples = (
            [] if x is None else x for x in (findings, witnesses, counterexamples))
        self.counts = {} if counts is None else counts
        self.notes = [] if notes is None else notes
        self.timing_ms = timing_ms

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        # vars keeps __init__'s assignment order, the field order
        return {"format": 1, **vars(self), "timing_ms": round(self.timing_ms, 3)}


def check_lemma(max_order: int = 24) -> VerificationReport:
    """Sweep every catalog group and subgroup for M_n-shaped intervals with
    index below 2n, and check: the subgroup is normal, the quotient is
    dihedral of order 2m with m prime and n = m + 1, and at least two
    intermediate subgroups have index 2.  Each finding is a dict; it also
    reports whether the quotient's rotation subgroup is simple, which for a
    cyclic group of order m means m is prime.

    The subgroups are the element sets of perm.subgroup_records, sorted by
    size, so the interval [H, G] is the supersets of H in that order.  Only
    an H that meets the hypothesis is built as a PermGroup."""
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    t0 = time.perf_counter()
    findings = []
    n_groups = n_intervals = n_mn = n_skipped = 0
    for name, G in catalog(max_order):
        n_groups += 1
        recs = subgroup_records(G)
        subs = sorted(recs, key=len)
        for eset in subs:
            iv = [K for K in subs if eset <= K]  # by order, so eset first, G last
            n_intervals += 1
            n = _mn_of(iv[1:-1], operator.le)
            if n is None:
                continue
            n_mn += 1
            index = G.order // len(eset)
            if index >= 2 * n:
                n_skipped += 1
                continue
            H = PermGroup(G.degree, recs[eset], eset)
            Q = quotient(G, H)
            h_normal = Q is not None
            m = is_dihedral(Q) if h_normal else None
            # the rotations form a cyclic group of order m: simple iff m is prime
            m_prime = m is not None and _prime_power(m) == m
            n_eq = m_prime and n == m + 1
            two_index2 = sum(1 for K in iv[1:-1] if len(K) == 2 * H.order) >= 2
            findings.append({
                "group": name,
                "subgroup_key": _subgroup_key(H),
                "subgroup_order": H.order,
                "n": n,
                "index": index,
                "conclusions": {"h_normal": h_normal, "quotient_dihedral_m": m,
                                "n_eq_p_plus_1": n_eq,
                                "two_index2_intermediates": two_index2,
                                "rotation_simple": m_prime},
                # n_eq needs m, which is found only for a normal H
                "ok": n_eq and two_index2,
            })
    findings.sort(key=lambda f: (f["group"], f["subgroup_key"]))
    bad = [f for f in findings if not f["ok"]]
    return VerificationReport(
        sweep="lemma",
        params={"max_order": max_order},
        status="PASS" if findings and not bad else "FAIL",
        findings=findings,
        witnesses=[f for f in findings if f["ok"]],
        counterexamples=bad,
        counts={
            "groups": n_groups,
            "intervals": n_intervals,
            "mn_intervals": n_mn,
            "hypothesis_hits": len(findings),
            "skipped_index_at_least_2n": n_skipped,
        },
        notes=["sweep domain is the curated catalog of regular representations,"
               " not all finite groups"],
        timing_ms=(time.perf_counter() - t0) * 1e3,
    )


def check_theorem1(p: int) -> VerificationReport:
    """Sweep transitive subgroups of small symmetric groups and check that
    every one whose natural-action congruence lattice is M_{p+1} is the
    regular dihedral action of order 2p.

    Degrees up to 6 are enumerated exhaustively: every subgroup of the
    symmetric group, from perm.subgroup_records.  Degree 7, the only larger
    degree below 2(p+1) for p in {2, 3}, is prime and is excluded by
    PRIME_DEGREE_RULE, which the report states.
    """
    if p not in (2, 3):
        raise ValueError(f"unsupported p = {p}; only p in {{2, 3}} is implemented")
    t0 = time.perf_counter()
    target = p + 1
    per_degree = []
    witnesses = []
    counterexamples = []
    notes = []
    for d in range(1, 2 * p + 2):
        if d > THEOREM1_ENUM_DEGREE:
            if _prime_power(d) != d:
                raise ValueError(f"degree {d} is neither enumerated nor prime")
            per_degree.append({"degree": d, "hits": 0,
                               "mode": "excluded by the prime-degree rule"})
            notes.append(f"degree {d} excluded by the {PRIME_DEGREE_RULE}")
            continue
        bottom, top = tuple(range(d)), (0,) * d
        recs = subgroup_records(symmetric(d))
        stats = {"degree": d, "mode": "all-subgroups exhaustive",
                 "subgroups": len(recs), "transitive": 0}
        hits = []
        for eset, gens in recs.items():
            if len({x[0] for x in eset}) != d:  # the orbit of 0 is not all
                continue
            stats["transitive"] += 1
            congs = _congruence_set(d, gens)
            mids = [r for r in congs if r != bottom and r != top]
            if _mn_of(mids, rgs_refines) == target:
                hits.append(PermGroup(d, _small_genset(d, eset), eset))
        stats["hits"] = len(hits)
        # generators and order depend on the element sets alone
        for K in sorted(hits, key=lambda K: K.elements):
            m = is_dihedral(K)
            entry = {
                "degree": d,
                "order": K.order,
                "generators": [str(g) for g in K.generators],
                "transitive": True,
                "regular": K.order == d,
                "dihedral_m": m,
            }
            ok = entry["regular"] and m == p  # m == p: dihedral of order 2p
            (witnesses if ok else counterexamples).append(entry)
        per_degree.append(stats)

    total_hits = len(witnesses) + len(counterexamples)
    status = "PASS" if total_hits >= 1 and not counterexamples else "FAIL"
    return VerificationReport(
        sweep="theorem1",
        params={"p": p, "max_degree": 2 * p + 1},
        status=status,
        findings=per_degree,
        witnesses=witnesses,
        counterexamples=counterexamples,
        counts={"hits": total_hits,
                "expected_hit_profile": {"order": 2 * p, "dihedral_m": p,
                                         "regular": True}},
        notes=notes,
        timing_ms=(time.perf_counter() - t0) * 1e3,
    )


def _atom_systems(size: int, k: int) -> tuple[int, list[tuple]]:
    """Count the k-sets of proper partitions with pairwise meet bottom and
    joint join top, and list the ones whose pairwise joins are all the top,
    as tuples of RGS in lexicographic order.

    Clique searches on interned partition ids, for k >= 2: meet is bottom
    when pair relations are disjoint, join is top when coatom masks are.
    Relabelling the carrier keeps both, so all partitions of one shape (block
    sizes) lie in equally many candidates: the count runs one search per
    shape, weights it by the shape's number of partitions and divides by k.
    The listing takes the k-cliques, ids ascending, of the sparse graph of
    bottom meets and top joins; pairwise top joins make the joint join top.
    """
    ix = partition_index(size)
    parts, rel, co = ix.parts, ix.rel, ix.co
    proper = range(1, ix.bottom)
    full = sum(1 << i for i in proper)
    # apart[i]: proper ids whose meet with i is bottom; below[c]: proper ids
    # that refine coatom c; tops[m]: proper ids below none of the coatoms in
    # m, so joining a partition of coatom mask m to the top
    apart = [sum(1 << j for j in proper if not r & rel[j]) for r in rel]
    below = [sum(1 << i for i in proper if co[i] >> c & 1)
             for c in range(co[ix.bottom].bit_length())]
    tops = {}
    for m in co:
        under = 0
        for c, ids in enumerate(below):
            if m >> c & 1:
                under |= ids
        tops[m] = full & ~under

    def count(cand: int, joined: int, left: int) -> int:
        # left-sets of meet-disjoint ids of cand that join joined to the top
        if left == 1:
            return (cand & tops[joined]).bit_count()
        n = 0
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            n += count(cand & apart[i], joined & co[i], left - 1)
        return n

    shapes: dict[tuple, list[int]] = {}  # shape -> [least id, class size]
    for i in proper:
        shape = tuple(sorted(map(parts[i].count, set(parts[i]))))
        shapes.setdefault(shape, [i, 0])[1] += 1
    total = sum(n * count(apart[i], co[i], k - 1) for i, n in shapes.values())

    adj = [a & tops[m] for a, m in zip(apart, co)]  # meet bottom, join top
    pairwise_top = []

    def listing(cand: int, chosen: tuple) -> None:
        # the ids of cand, each above every id chosen and adjacent to each
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            nxt = cand & adj[i]
            if len(chosen) == k - 1:
                pairwise_top.append((*chosen, parts[i]))
            elif nxt:
                listing(nxt, (*chosen, parts[i]))

    listing(full, ())
    return total // k, pairwise_top


def _orbit_firsts(size: int, systems: list[tuple]) -> list[int]:
    """For each system, the position of the first system in its orbit under
    S_size, which relabels the carrier: perm._orbits on positions in the
    list, under the transposition (0 1) and the size-cycle.  The list must be
    S_size-invariant; an image outside it raises KeyError."""
    ids = partition_index(size).ids
    keys = [frozenset(ids[r] for r in system) for system in systems]
    pos = {key: i for i, key in enumerate(keys)}
    moves = []
    for g in ((1, 0, *range(2, size)), (*range(1, size), 0)):
        move = [ids[rgs_canonical([r[x] for x in g])] for r in ids]
        moves.append([pos[frozenset(move[j] for j in key)] for key in keys])
    first = {i: orbit[0] for orbit in _orbits(len(systems), moves) for i in orbit}
    return [first[i] for i in range(len(systems))]


def check_theorem2(p: int, max_size: int) -> VerificationReport:
    """Exhaust candidate M_{p+1} atom systems on small carriers and count the
    Galois-closed ones: none may exist below carrier size 2p, and the regular
    dihedral congruences give one at exactly 2p."""
    if p != 3:
        raise ValueError(f"unsupported p = {p}; the partition sweep is"
                         " implemented for p = 3 only")
    if not 2 <= max_size <= THEOREM2_SIZE_BOUND:
        raise ValueError(f"max_size must lie in 2..{THEOREM2_SIZE_BOUND}")
    t0 = time.perf_counter()
    k = p + 1
    per_size = []
    witnesses, counterexamples = [], []
    ok = True
    for s in range(2, max_size + 1):
        # a closed system needs every *pairwise* join at the top already:
        # the closure contains pairwise joins, and a join of two distinct
        # atoms can be neither bottom nor a third atom.  Closedness survives
        # relabelling the carrier, so one Galois check per orbit decides all.
        n_candidates, pairwise_top = _atom_systems(s, k)
        firsts = _orbit_firsts(s, pairwise_top)
        verdict = {i: galois_is_closed(s, pairwise_top[i])
                   for i in set(firsts)}
        closed = [[list(r) for r in system]
                  for system, i in zip(pairwise_top, firsts) if verdict[i]]
        per_size.append({
            "size": s,
            "candidate_systems": n_candidates,
            "closed_systems": len(closed),
        })
        # a closed system below 2p refutes the first claim
        (counterexamples if s < 2 * p else witnesses).extend(
            {"size": s, "system": c} for c in closed)
        if s == 2 * p and not closed:
            ok = False
    notes = [f"expected: zero closed systems below carrier {2 * p},"
             f" at least one at {2 * p}"]
    if max_size < 2 * p:
        notes.append(f"max_size {max_size} < {2 * p}: carrier {2 * p} is not"
                     " reached, so only the first claim is checked")
    return VerificationReport(
        sweep="theorem2",
        params={"p": p, "max_size": max_size},
        status="PASS" if ok and not counterexamples else "FAIL",
        findings=per_size,
        witnesses=witnesses,
        counterexamples=counterexamples,
        counts={"total_closed": sum(x["closed_systems"] for x in per_size)},
        notes=notes,
        timing_ms=(time.perf_counter() - t0) * 1e3,
    )


def minimal_representation(p: int) -> tuple[UnaryAlgebra, FinLattice]:
    """The size-2p unary algebra whose congruence lattice is M_{p+1}: the
    regular action of the order-2p dihedral group, one operation for the
    rotation generator and one for the reflection generator."""
    if not 2 <= 2 * p <= CON_SIZE_BOUND:  # before any work that grows with p
        raise ValueError(f"carrier size 2p = {2 * p} outside 2..{CON_SIZE_BOUND};"
                         " the largest prime p is 31")
    if _prime_power(p) != p:
        raise ValueError(f"p must be prime, got {p}")
    A = gset_algebra(regular_action(dihedral(p)), name=f"regular-D{2 * p}-set")
    L = all_congruences(A)
    got = L.detect_mn()
    if got != p + 1:
        raise AssertionError(f"witness lattice shape M_{got}, expected M_{p + 1}")
    return A, L
