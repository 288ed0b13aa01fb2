"""mnlab benchmark: run one workload in fresh single-threaded processes, time
it from outside the library, check its verdicts and print its metrics.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the library is imported from ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, medians over cold worker processes run one
after another until ``--seconds`` is used up (at least one), with times in
reference seconds (see ``speed.py``).  With ``--trace 1`` one untraced and
one traced worker run, and the metrics are the per-layer ones from the
traced worker plus the tracing overhead.  See README.md beside this file for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10       # extra cold processes that only import and set up
DEADLINE_S = 170.0      # a run must end within 180 s

# name, unit, better; each is a median over the run's cold workers
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("verdict_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("call_p50_ms", "ms", "lower"),
    ("call_max_s", "s", "lower"),
)
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_targets", "count", "lower"),
)
PER_LAYER = tuple((name, unit, better)
                  for name, unit, better, _ in tracer.LAYER_METRICS) + TRACE_METRICS

WORKER_ENV = {
    "PYTHONHASHSEED": "0",          # same set iteration order in every run
    "PYTHONDONTWRITEBYTECODE": "1",  # bytecode is compiled before the first run
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


# --- statistics -----------------------------------------------------------

def _rank(q: float, n: int) -> int:
    # exact, so that e.g. 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def nearest_rank(values: list[float], q: float) -> float:
    """The q-th percentile by the nearest-rank rule (q in (0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return xs[_rank(q, len(xs)) - 1]


def tail_percentile(values: list[float],
                    candidates=(50, 90, 99, 99.9)) -> tuple[float, float, int] | None:
    """The highest percentile with at least 10 samples beyond it, as
    (percentile, value, sample count); None when even the median has fewer."""
    n = len(values)
    best = None
    for q in candidates:
        if n - _rank(q, n) >= 10:
            best = (q, nearest_rank(values, q), n)
    return best


# --- run context ----------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git directly (checkouts may have none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


# --- workers --------------------------------------------------------------

def run_worker(workload: str, seed: int, deadline: float, *, trace: bool = False,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} passed the run's deadline") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker for {workload} printed no result") from exc
    out.update(wall_s=wall, load_before=load_before, load_after=os.getloadavg())
    return out


def setup_raw_s(workers: list[dict], probes: list[dict]) -> float:
    return statistics.median([w["setup_s"] for w in workers + probes])


def end_to_end(workers: list[dict], probes: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        # each set-up is too short to sample the host's speed itself; the
        # workers' factors measure it over the same run
        "setup_s": setup_raw_s(workers, probes)
                   * med([w["speed_factor"] for w in workers]),
        "verdict_s": med([w["verdict_s"] for w in workers]),
        "peak_rss_mb": med([w["peak_rss_mb"] for w in workers]),
        "call_p50_ms": med([nearest_rank([c[1] for c in w["calls"]], 50)
                            for w in workers]) * 1e3,
        "call_max_s": med([max(c[1] for c in w["calls"]) for w in workers]),
    }


def info_lines(workload: str, workers: list[dict]) -> list[str]:
    """The per-workload figures named after the calls they time."""
    med = statistics.median
    lines = []
    if workload == "groups":
        for name in ("lemma", "theorem1"):
            v = med([t for w in workers for n, t in w["calls"] if n == name])
            lines.append(f"{name}_s {v:.4f} s")
    elif workload == "algebras":
        times = [t * 1e3 for t in (c[1] for c in workers[0]["calls"])]
        lines.append(f"algebra_p50_ms {nearest_rank(times, 50):.4f} ms"
                     f" (n={len(times)})")
        lines.append(f"algebra_p90_ms {nearest_rank(times, 90):.4f} ms"
                     f" (n={len(times)})")
        tail = tail_percentile(times)
        if tail:
            lines.append(f"algebra tail: p{tail[0]:g} = {tail[1]:.4f} ms,"
                         f" the highest percentile with >= 10 of {tail[2]}"
                         " samples beyond it")
    return lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mnlab" / "__init__.py").is_file():
        print(f"perfbench: no mnlab sources under {ROOT / 'src'}; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    # compile before the first timed run, so set-up never counts .pyc writes
    if not (compileall.compile_dir(ROOT / "src", quiet=1)
            and compileall.compile_dir(HERE, quiet=1, maxlevels=0)):
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    context = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
               "cpu_model": cpu_model(), "python": platform.python_version(),
               "git_commit": git_commit(ROOT), "src_lines": src_lines(ROOT),
               "load_before": os.getloadavg()}
    try:
        # the first set-up fills the file cache; users who run mnlab twice
        # do not pay for that again, so it is not counted.  The counted ones
        # run half before and half after the workers, so that they sample
        # the host's speed at two times.
        run_worker(args.workload, args.seed, deadline, setup_only=True)
        probes = [run_worker(args.workload, args.seed, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES // 2)]
        if args.trace:
            workers = [run_worker(args.workload, args.seed, deadline),
                       run_worker(args.workload, args.seed, deadline, trace=True)]
        else:
            workers = []
            t_begin = time.monotonic()
            while True:
                workers.append(run_worker(args.workload, args.seed, deadline))
                longest = max(w["wall_s"] for w in workers)
                if time.monotonic() - t_begin + longest > args.seconds:
                    break
        probes += [run_worker(args.workload, args.seed, deadline, setup_only=True)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        untraced, traced = workers
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["verdict_s"] - untraced["verdict_s"]
        metrics["trace.absent_targets"] = len(traced["absent"])
        specs = PER_LAYER
    else:
        metrics = end_to_end(workers, probes)
        specs = END_TO_END
    context.update(
        numpy=workers[0]["numpy"], load_after=os.getloadavg(),
        workers=[{k: w[k] for k in ("wall_s", "setup_s", "verdict_raw_s",
                                    "speed_factor", "speed_samples",
                                    "load_before", "load_after")}
                 for w in workers])

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:"
          f" {len(workers)} worker(s), {len(probes)} set-up probe(s),"
          " cold processes run one at a time")
    for name, unit, _better in specs:
        print(f"  {name} {metrics[name]:.6g} {unit}")
    print("  (times in reference seconds, see speed.py; raw wall setup_s"
          f" {setup_raw_s(workers, probes):.4f} s, verdict_s "
          + ", ".join(f"{w['verdict_raw_s']:.4f} s at speed factor"
                      f" {w['speed_factor']:.4f}" for w in workers) + ")")
    if not args.trace:
        for line in info_lines(args.workload, workers):
            print(f"  {line}")
    else:
        print(f"  trace file: {traced.get('trace_file')}; absent: {traced['absent']}")
    print(f"  fail_rate {failed / attempted if attempted else 1.0:.6g}"
          f" ({failed} of {attempted} checks failed)")
    for w in workers:
        for msg in w["failures"]:
            print(f"  FAILED: {msg}")
    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
