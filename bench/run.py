"""Benchmark entry point: one workload, measured in fresh processes.

    python3 bench/run.py --workload lift --seed 1 --seconds 20 --trace 0

With --trace 0 it starts six set-up-only processes, then one process that
sets up, runs whole passes over the workload's job list for --seconds
seconds (at least two passes), reads its peak RSS and checks the outputs.
It prints the host-probe readings on one line and, as the last line, the
result: {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics `setup_s` (median of seven set-ups), `wall_s` (median pass time)
and `peak_rss_mb`.  Both times are speed-corrected (speed.py): wall time
rescaled to a host at full speed, so that the shared host's changes of
speed do not show as changes of the program; the raw pass times are on
the info line.  With --trace 1 the one process runs with the tracer
installed and the metrics are the per-layer medians over its passes.

Everything runs from the source tree next to this directory (src/), one
process at a time, and each process is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lift", "kernel", "spectrum", "cli")
SETUP_SAMPLES = 7
TIMEOUT_S = 170


def worker(argv, timeout):
    """Run worker.py with `argv`; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "schroeder", "__init__.py")):
        print("error: no schroeder sources under src/ next to the benchmark", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(common + ["--setup-only"], 60)["setup_s"])
    res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], TIMEOUT_S)
    setups.append(res["setup_s"])

    probes = res["probes"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(res["walls"]),
        "jobs_per_pass": res["jobs"],
        "pass_s": [round(w, 4) for w in res["walls"]],
        "pass_corrected_s": [round(w, 4) for w in res["corrected"]],
        "host_probe_ms": {
            "median": 1000 * statistics.median(probes),
            "min": 1000 * min(probes),
            "max": 1000 * max(probes),
        },
    }
    if args.trace:
        import tracer

        info["traced_wall_s"] = statistics.median(res["corrected"])
        info["trace_spans_per_pass"] = res["layers"]["trace.spans"]
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in tracer.METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["corrected"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
