"""Run one workload on several seeds and report the spread of each metric.

    python3 bench/steadiness.py --workload kernel --seeds 1 2 3 4 5 --seconds 20

For each end-to-end metric it prints the ten (or however many) values,
their median, and the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the bound in BENCHMARK.json.  Runs go one after another, never in
parallel, so that they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
        )
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        failed.append((res["failed"], res["attempted"]))
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed} ({elapsed:.1f} s): "
              + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds)
              + f"; {lines[-2]}", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        print(f"{name}: median {med:.4g}, spread {(q[2] - q[0]) / med:.3f} (bound {bounds[name]})")
    print(f"failed/attempted per run: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
