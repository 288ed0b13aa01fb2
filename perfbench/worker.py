"""One cold benchmark process: import mnlab, build one workload's inputs, run
its timed calls, check the verdicts, and print one JSON line.

    python3 perfbench/worker.py --workload groups --seed 1 [--trace] [--setup-only]

``run.py`` starts a fresh interpreter per worker, so caches inside the
library (``all_subgroups``' ``lru_cache``, ``cached_property`` values) start
empty, as they do for every command-line user.  The timed region's times
are reported in reference seconds (see ``speed.py``), raw wall times
alongside.  With ``--trace`` the wrappers of ``tracer.py`` are installed for
the timed region only, and the spans and aggregates are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    run = workloads.Run(args.workload, args.seed)
    t0 = time.perf_counter()
    run.setup()
    setup_s = time.perf_counter() - t0  # raw; run.py scales the run's median
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sampler = speed.SpeedSampler()
    sampler.start()
    tr = None
    if args.trace:
        tr = tracer.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tr.install()
    t2 = time.perf_counter()
    if tr:
        with tr.span(f"bench.{args.workload}"):
            run.timed()
    else:
        run.timed()
    t3 = time.perf_counter()
    if tr:
        tr.uninstall()
    sampler.stop()
    out = {
        "setup_s": setup_s,
        "verdict_s": sampler.scaled(t2, t3),
        "verdict_raw_s": t3 - t2,
        "speed_factor": sampler.factor(t2, t3),
        "speed_samples": len(sampler.probes),
        "calls": [(name, sampler.scaled(a, b)) for name, a, b in run.calls],
    }

    checks = workloads.Checks()
    run.check(checks)
    import numpy
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        numpy=numpy.__version__,
    )
    if tr:
        out["layers"] = tracer.layer_metrics(tr.rows())
        out["absent"] = tr.absent
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace": tr.trace_id, "spans": tr.spans,
                                    "aggregates": tr.rows(), "absent": tr.absent}))
        out["trace_file"] = os.path.relpath(path, HERE.parent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
