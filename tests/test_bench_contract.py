"""The benchmark's tracer still fits the package.

`bench/tracer.py` wraps package functions by name, so removing or renaming
one of them breaks `bench/run.py --trace 1`.  This runs the tracer in a
fresh process, as the benchmark does, on the obstructed fixture map.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import schroeder

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
PACKAGE_ROOT = str(Path(schroeder.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
import schroeder
from schroeder.documents import parse_map_document

phi, _ = parse_map_document({
    "dimension": 2,
    "components": [
        [{"monomial": [1, 0], "coefficient": "1/2"}],
        [{"monomial": [0, 1], "coefficient": "1/4"}, {"monomial": [2, 0], "coefficient": "1/16"}],
    ],
})
t = tracer.Tracer()
t.install()
schroeder.analyze(phi)
schroeder.solve(phi, 4, mode="independent")
schroeder.solve_power(phi, 2, 4)
print(json.dumps({"metrics": sorted(tracer.METRICS), "snapshot": t.snapshot()}))
"""


def test_tracer_installs_and_reports_every_metric():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, BENCH],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    snapshot = result["snapshot"]
    assert set(result["metrics"]) <= set(snapshot)
    for span in ("engine.analyze_s", "engine.solve_s", "engine.solve_power_s"):
        assert snapshot[span] > 0
    assert snapshot["trace.spans"] > 0
    # The tracer rebinds `Scalar.__mul__`, `__add__` and `__sub__` on the
    # class and reads `.re`/`.im` of every solution coefficient.
    for counter in ("scalars.mul_calls", "scalars.add_calls", "scalars.max_bits"):
        assert snapshot[counter] > 0, counter
