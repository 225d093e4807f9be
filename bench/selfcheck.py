"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py [--seeds 0 1 2]

For each workload and seed it runs the first map's jobs through two
untraced passes and one traced pass, with every output check on, and
fails (exit 1) if an operation failed, a pass was missing, or a per-layer
metric was not reported.  It takes well under a minute for one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_worker(argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    problems = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            base = ["--workload", workload, "--seed", str(seed), "--jobs", "1", "--seconds", "0"]
            for trace, passes in ((0, 2), (1, 1)):
                res, err = run_worker(base + ["--trace", str(trace), "--min-passes", str(passes)])
                label = f"{workload} seed {seed} trace {trace}"
                if res is None:
                    problems.append(f"{label}: worker failed\n{err}")
                    continue
                if res["failed"] or res["attempted"] != res["jobs"] * passes or not res["jobs"]:
                    problems.append(f"{label}: attempted {res['attempted']}, failed {res['failed']}\n{err}")
                if trace and set(tracer.METRICS) - set(res["layers"]):
                    problems.append(f"{label}: missing {sorted(set(tracer.METRICS) - set(res['layers']))}")
                print(f"{label}: {res['jobs']} jobs, {res['attempted']} attempted, {res['failed']} failed")
    for p in problems:
        print("PROBLEM " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
