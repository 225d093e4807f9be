"""The benchmark's tracer still fits the package.

`bench/tracer.py` wraps package functions by name, so removing or renaming
one of them breaks `bench/run.py --trace 1`.  This runs the tracer in a
fresh process, as the benchmark does, on the obstructed fixture map:
once through the library and once through the rebound `cli.main`.
Between them the two runs must move every metric, so a rewrite that
routes a stage around the name the tracer wraps shows up as a zero.
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
from schroeder import Jet, Scalar
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
sol = schroeder.solve(phi, 4, mode="independent")
schroeder.solve_power(phi, 2, 4)
schroeder.verify(phi, sol.components)
schroeder.detect_resonance(phi)
snapshot = t.snapshot()
# Degrees 1, 1, 2 times 1, 1 stay within degree 3: six products, none dropped.
f = Jet.build(2, 3, [((1, 0), Scalar.of(1)), ((0, 1), Scalar.of(2)), ((1, 1), Scalar.of(3))])
g = Jet.build(2, 3, [((1, 0), Scalar.of(5)), ((0, 1), Scalar.of(7))])
before = t.counts["scalars.mul_calls"]
f * g
print(json.dumps({"metrics": sorted(tracer.METRICS), "snapshot": snapshot,
                  "jet_mul_products": t.counts["scalars.mul_calls"] - before}))
"""

#: One `analyze --format machine` through the `schroeder.cli.main` the
#: tracer rebound, on the same map, writing into the directory argv[2].
CLI_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import tracer
import schroeder.cli

map_path = os.path.join(sys.argv[2], "map.json")
with open(map_path, "w") as fh:
    json.dump({
        "dimension": 2,
        "components": [
            [{"monomial": [1, 0], "coefficient": "1/2"}],
            [{"monomial": [0, 1], "coefficient": "1/4"}, {"monomial": [2, 0], "coefficient": "1/16"}],
        ],
    }, fh)
t = tracer.Tracer()
t.install()
sys.argv = ["schroeder", "analyze", map_path, "--format", "machine",
            "--out", os.path.join(sys.argv[2], "out.json")]
try:
    schroeder.cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "emit_calls": t.calls["documents.emit"],
                  "snapshot": t.snapshot()}))
"""


def _traced(script: str, *args: str) -> dict:
    """The JSON line `script` prints last, run in a fresh process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, BENCH, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_installs_and_reports_every_metric():
    result = _traced(SCRIPT)
    snapshot = result["snapshot"]
    assert set(result["metrics"]) <= set(snapshot)
    # The CLI test below covers the `cli` and `documents` metrics.
    zero = [
        metric
        for metric in result["metrics"]
        if metric.split(".")[0] not in ("cli", "documents") and not snapshot[metric]
    ]
    assert zero == []
    # The tracer counts the rebound `Scalar.__mul__`, so a product fused
    # into an accumulator must go through the class attribute too.
    assert result["jet_mul_products"] == 6


def test_tracer_sees_the_cli_emit_its_document(tmp_path):
    # `dump` and `analysis_json` are both "documents.emit" spans: a CLI
    # that bound its renderers at import time would miss the wrappers.
    result = _traced(CLI_SCRIPT, str(tmp_path))
    snapshot = result["snapshot"]
    assert result["code"] == 2
    assert result["emit_calls"] == 2
    assert snapshot["cli.requests"] == 1
    assert snapshot["documents.bytes_out"] == len((tmp_path / "out.json").read_bytes())
