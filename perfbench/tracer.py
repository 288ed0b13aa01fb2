"""Call tracing for the traced benchmark run.

Wrappers are installed from outside the library on every module-namespace
binding of a traced function, so a call is seen whichever module it is made
from: ``mnlab.verify.rgs_join`` and ``mnlab.congruence.rgs_join`` are the same
function reached through two bindings, and each binding is recorded as its
own call site.  Hot leaves (millions of calls) are aggregated per
(function, binding, parent function); coarse calls additionally keep one span
each, with its parent span and the run's trace id.

A layer's self time is its duration minus the time covered by the traced
calls it makes.  Time spent in the wrappers themselves lands in the caller's
self time, which is why the per-layer numbers come from a separate run and
the end-to-end metrics from an untraced one.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

ROOT = "<root>"

MODULES = ("mnlab", "mnlab.perm", "mnlab.construct", "mnlab.partition",
           "mnlab.congruence", "mnlab.lattice", "mnlab.verify", "mnlab.io",
           "mnlab.cli")


def _count_true(args, result) -> int:
    return 1 if result else 0


def _result_len(args, result) -> int:
    return len(result)


def _lattice_size(args, result) -> int:
    return args[0].n  # FinLattice.__init__(self, ...): self is built by now


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and ``name`` locate it, with
    ``Class.method`` names for methods.  ``coarse`` keeps a span per call;
    ``measure(args, result)`` adds a count per call (units); ``generator``
    times each ``next()`` and counts the items yielded as units."""

    module: str
    name: str
    coarse: bool = False
    measure: Optional[Callable] = None
    generator: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}".replace(".__init__", "")


TARGETS = (
    Target("perm", "all_subgroups", coarse=True),
    Target("perm", "mulclose"),
    Target("perm", "is_normal"),
    Target("perm", "quotient"),
    Target("construct", "catalog", coarse=True),
    Target("partition", "rgs_join"),
    Target("partition", "rgs_meet"),
    Target("partition", "rgs_refines"),
    Target("congruence", "_principal_rgs"),
    Target("congruence", "_congruence_set", measure=_result_len),
    Target("congruence", "preserving_maps"),
    Target("congruence", "all_congruences", coarse=True),
    Target("congruence", "congruences_oracle", coarse=True),
    Target("lattice", "FinLattice.__init__", measure=_lattice_size),
    Target("lattice", "FinLattice._validate"),
    Target("lattice", "FinLattice.from_inclusion"),
    Target("verify", "check_lemma", coarse=True),
    Target("verify", "check_theorem1", coarse=True),
    Target("verify", "check_theorem2", coarse=True),
    Target("verify", "_subgroup_records", coarse=True),
    Target("verify", "_orbit_count"),
    Target("verify", "_mn_of_congset"),
    Target("verify", "_atom_system_candidates", generator=True),
    Target("verify", "_atom_system_closed", measure=_count_true),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "units", "units_max")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.units = 0
        self.units_max = 0

    def to_list(self) -> list:
        return [self.calls, self.total_s, self.self_s, self.units,
                self.units_max]


class Tracer:
    """Spans and aggregates for one traced run, held in memory.

    A frame on the call stack is ``[label, child_s, span_id, span, t0]``: the
    traced function, the time its traced callees took so far, the id of the
    nearest enclosing coarse span, that span's record if the frame is coarse,
    and the clock reading at entry.
    """

    def __init__(self, trace_id: str, clock: Callable[[], float] = time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.stack: list[list] = []
        self.stats: dict[tuple[str, str, str], Stat] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def enter(self, label: str, coarse: bool) -> list:
        parent_span = self.stack[-1][2] if self.stack else None
        span = None
        if coarse:
            span = {"id": len(self.spans), "parent": parent_span,
                    "trace": self.trace_id, "name": label}
            self.spans.append(span)
        frame = [label, 0.0, span["id"] if span else parent_span, span, 0.0]
        self.stack.append(frame)
        frame[4] = self.clock()
        return frame

    def exit(self, frame: list, via: str, units: int) -> None:
        end = self.clock()
        dt = end - frame[4]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        span = frame[3]
        if span is not None:
            span.update(start=frame[4], end=end, self_s=dt - frame[1])
        key = (frame[0], via, parent[0] if parent else ROOT)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        st.calls += 1
        st.total_s += dt
        st.self_s += dt - frame[1]
        st.units += units
        if units > st.units_max:
            st.units_max = units

    @contextmanager
    def span(self, label: str):
        """A coarse span opened by the benchmark itself."""
        frame = self.enter(label, True)
        try:
            yield
        finally:
            self.exit(frame, "bench", 0)

    # --- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target, via: str) -> Callable:
        label, coarse, measure = target.label, target.coarse, target.measure
        enter, exit_ = self.enter, self.exit

        if target.generator:
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter(label, coarse)
                    try:
                        item = next(it)
                    except StopIteration:
                        exit_(frame, via, 0)
                        return
                    except BaseException:
                        exit_(frame, via, 0)
                        raise
                    exit_(frame, via, 1)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = enter(label, coarse)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(frame, via, 0)
                raise
            exit_(frame, via, measure(args, result) if measure else 0)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on every binding; record missing ones as absent."""
        modules = {}
        for name in MODULES:
            try:
                modules[name.rpartition(".")[2]] = importlib.import_module(name)
            except ImportError:
                continue
        for target in TARGETS:
            home = modules.get(target.module)
            cls_name, _, attr = target.name.rpartition(".")
            owner = getattr(home, cls_name, None) if cls_name else home
            if owner is None or attr not in vars(owner):
                self.absent.append(target.label)
                continue
            original = vars(owner)[attr]
            if cls_name:  # a method: one binding, on the class
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, target, "class"))
                else:
                    wrapped = self._wrap(original, target, "class")
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for via, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, self._wrap(original, target, via))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- reading ---------------------------------------------------------

    def rows(self) -> list[list]:
        """Aggregates as [label, via, parent, calls, total_s, self_s, units,
        units_max] rows."""
        return [[*key, *st.to_list()] for key, st in sorted(self.stats.items())]


class Rows:
    """Sums over aggregate rows, selected by label and optionally binding."""

    def __init__(self, rows: list[list]):
        self.rows = rows

    def _sum(self, label: str, col: int, via: Optional[str]) -> float:
        return sum(r[col] for r in self.rows
                   if r[0] == label and (via is None or r[1] == via))

    def calls(self, label: str, via: Optional[str] = None) -> int:
        return int(self._sum(label, 3, via))

    def total_s(self, label: str) -> float:
        # count a call inside another call of the same function once
        return sum(r[4] for r in self.rows if r[0] == label and r[2] != label)

    def self_s(self, label: str, via: Optional[str] = None) -> float:
        return self._sum(label, 5, via)

    def units(self, label: str) -> int:
        return int(self._sum(label, 6, None))

    def units_max(self, label: str) -> int:
        return max((r[7] for r in self.rows if r[0] == label), default=0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYER_METRICS = (
    # name, unit, better, value(rows)
    ("perm.all_subgroups.calls", "count", "lower", lambda r: r.calls("perm.all_subgroups")),
    ("perm.all_subgroups.total_s", "s", "lower", lambda r: r.total_s("perm.all_subgroups")),
    ("perm.mulclose.calls", "count", "lower", lambda r: r.calls("perm.mulclose")),
    ("perm.mulclose.self_s", "s", "lower", lambda r: r.self_s("perm.mulclose")),
    ("perm.is_normal.total_s", "s", "lower", lambda r: r.total_s("perm.is_normal")),
    ("perm.quotient.total_s", "s", "lower", lambda r: r.total_s("perm.quotient")),
    ("construct.catalog.total_s", "s", "lower", lambda r: r.total_s("construct.catalog")),
    ("verify._subgroup_records.total_s", "s", "lower",
     lambda r: r.total_s("verify._subgroup_records")),
    ("verify._orbit_count.calls", "count", "lower", lambda r: r.calls("verify._orbit_count")),
    ("verify._mn_of_congset.calls", "count", "lower", lambda r: r.calls("verify._mn_of_congset")),
    ("verify.check_theorem1.self_s", "s", "lower", lambda r: r.self_s("verify.check_theorem1")),
    ("congruence._principal_rgs.calls", "count", "lower",
     lambda r: r.calls("congruence._principal_rgs")),
    ("congruence._principal_rgs.self_s", "s", "lower",
     lambda r: r.self_s("congruence._principal_rgs")),
    ("congruence._congruence_set.calls", "count", "lower",
     lambda r: r.calls("congruence._congruence_set")),
    ("congruence._congruence_set.self_s", "s", "lower",
     lambda r: r.self_s("congruence._congruence_set")),
    ("congruence._congruence_set.total_s", "s", "lower",
     lambda r: r.total_s("congruence._congruence_set")),
    ("partition.rgs_join.by_congruence.calls", "count", "lower",
     lambda r: r.calls("partition.rgs_join", "congruence")),
    ("partition.rgs_join.by_congruence.self_s", "s", "lower",
     lambda r: r.self_s("partition.rgs_join", "congruence")),
    ("congruence._congruence_set.found_per_join", "ratio", "higher",
     lambda r: _ratio(r.units("congruence._congruence_set"),
                      r.calls("partition.rgs_join", "congruence"))),
    ("partition.rgs_join.by_verify.calls", "count", "lower",
     lambda r: r.calls("partition.rgs_join", "verify")),
    ("partition.rgs_join.by_verify.self_s", "s", "lower",
     lambda r: r.self_s("partition.rgs_join", "verify")),
    ("partition.rgs_meet.calls", "count", "lower", lambda r: r.calls("partition.rgs_meet")),
    ("verify._atom_system_candidates.yielded", "count", "lower",
     lambda r: r.units("verify._atom_system_candidates")),
    ("verify._atom_system_candidates.self_s", "s", "lower",
     lambda r: r.self_s("verify._atom_system_candidates")),
    ("verify._atom_system_closed.calls", "count", "lower",
     lambda r: r.calls("verify._atom_system_closed")),
    ("verify._atom_system_closed.total_s", "s", "lower",
     lambda r: r.total_s("verify._atom_system_closed")),
    ("congruence.preserving_maps.calls", "count", "lower",
     lambda r: r.calls("congruence.preserving_maps")),
    ("congruence.preserving_maps.total_s", "s", "lower",
     lambda r: r.total_s("congruence.preserving_maps")),
    ("verify.theorem2.checked_per_candidate", "ratio", "higher",
     lambda r: _ratio(r.calls("verify._atom_system_closed"),
                      r.units("verify._atom_system_candidates"))),
    ("verify.theorem2.closed_per_candidate", "ratio", "higher",
     lambda r: _ratio(r.units("verify._atom_system_closed"),
                      r.units("verify._atom_system_candidates"))),
    ("lattice.FinLattice.calls", "count", "lower", lambda r: r.calls("lattice.FinLattice")),
    ("lattice.FinLattice.elements", "count", "lower", lambda r: r.units("lattice.FinLattice")),
    ("lattice.FinLattice.max_n", "count", "lower", lambda r: r.units_max("lattice.FinLattice")),
    ("lattice.FinLattice._validate.self_s", "s", "lower",
     lambda r: r.self_s("lattice.FinLattice._validate")),
    ("lattice.FinLattice.from_inclusion.self_s", "s", "lower",
     lambda r: r.self_s("lattice.FinLattice.from_inclusion")),
    ("partition.rgs_refines.calls", "count", "lower", lambda r: r.calls("partition.rgs_refines")),
    ("congruence.congruences_oracle.total_s", "s", "lower",
     lambda r: r.total_s("congruence.congruences_oracle")),
    ("congruence.all_congruences.total_s", "s", "lower",
     lambda r: r.total_s("congruence.all_congruences")),
)


def layer_metrics(rows: list[list]) -> dict[str, float]:
    r = Rows(rows)
    return {name: value(r) for name, _unit, _better, value in LAYER_METRICS}
