"""One workload in one process: set up, run whole passes, then check.

Usage (normally started by run.py):

    python3 bench/worker.py --workload lift --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py --workload lift --seed 1 --setup-only

The last stdout line is a JSON object.  With --setup-only it holds
`setup_s` alone.  Otherwise it holds the pass times (raw wall and
speed-corrected, see speed.py), host-probe readings, peak RSS, the
operations attempted and failed, and with --trace 1 the per-layer metrics
of every pass.

`setup_s` runs from just before `import schroeder` to the end of building
the inputs, speed-corrected.  Peak RSS is read after the last pass and
before the checks import sympy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (the benchmark's own modules; no schroeder import)
from speed import Clock  # noqa: E402


def probe() -> float:
    """A fixed Fraction loop; its time tracks the host's speed, not the program's."""
    t = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 2000):
        acc += x / i
        x = x * Fraction(i + 1, i + 2)
    return time.perf_counter() - t


def run_pass(jobs, clock, tracer=None):
    """Run every job once; returns (wall s, corrected s, payloads, errors by job index)."""
    payloads, errors = [], {}
    if tracer is not None:
        tracer.reset()
    clock.start()
    for i, job in enumerate(jobs):
        try:
            payloads.append(job.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            payloads.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
    wall, corrected = clock.stop()
    return wall, corrected, payloads, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--jobs", type=int, default=None, help="use only the first N maps (for lift, the first N entries of LIFT_JOBS)")
    ap.add_argument("--min-passes", type=int, default=2)
    args = ap.parse_args()

    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        clock = Clock()
        clock.start()
        import schroeder  # noqa: F401  (timed as part of set-up)

        jobs = workloads.JOB_LISTS[args.workload](args.seed, workdir, args.jobs)
        _, setup_s = clock.stop()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, jobs, setup_s, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, jobs, setup_s: float, clock: Clock) -> int:
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    walls, corrected, probes, layers = [], [], [], []
    first, first_digests, failed_by_pass = None, None, []
    start = time.perf_counter()
    # Whole passes only: another pass starts while it is expected to end
    # within --seconds (judged by the median pass so far).
    while len(walls) < args.min_passes or (
        time.perf_counter() - start + statistics.median(walls) <= args.seconds
    ):
        probes.append(probe())
        wall, corr, payloads, errors = run_pass(jobs, clock, tracer)
        probes.append(probe())
        walls.append(wall)
        corrected.append(corr)
        if tracer is not None:
            layers.append(tracer.snapshot())
        digests = [None if p is None else job.digest(p) for job, p in zip(jobs, payloads)]
        if first is None:
            first, first_digests, first_errors = payloads, digests, errors
        else:
            for i, d in enumerate(digests):
                if i not in errors and d != first_digests[i]:
                    errors[i] = "output differs from the first pass"
        failed_by_pass.append(errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Check the first pass's outputs against the independent computations;
    # later passes repeat them byte for byte or were counted above.
    wrong = {}
    for i, (job, payload) in enumerate(zip(jobs, first)):
        if payload is None:
            continue
        try:
            problems = job.check(payload)
        except Exception as exc:  # a crashing check is a failed operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            wrong[i] = "; ".join(problems)
    failed = 0
    for errors in failed_by_pass:
        bad = set(errors) | set(wrong)
        failed += len(bad)
    for i in sorted(set(first_errors) | set(wrong)):
        print(f"FAILED {jobs[i].name}: {first_errors.get(i) or wrong[i]}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "corrected": corrected,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs) * len(walls),
        "failed": failed,
        "jobs": len(jobs),
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
