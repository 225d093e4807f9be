"""The benchmark's tracer still fits the package.

`bench/tracer.py` wraps package functions by name, so removing or renaming
one of them breaks `bench/run.py --trace 1`.  This runs the tracer in a
fresh process, as the benchmark does, on the obstructed fixture map:
once through the library and once through the rebound `cli.main`.
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
    for span in ("engine.analyze_s", "engine.solve_s", "engine.solve_power_s"):
        assert snapshot[span] > 0
    assert snapshot["trace.spans"] > 0
    # The tracer rebinds `Scalar.__mul__`, `__add__` and `__sub__` on the
    # class and reads `.re`/`.im` of every solution coefficient.
    for counter in ("scalars.mul_calls", "scalars.add_calls", "scalars.max_bits"):
        assert snapshot[counter] > 0, counter


def test_tracer_sees_the_cli_emit_its_document(tmp_path):
    # `dump` and `analysis_json` are both "documents.emit" spans: a CLI
    # that bound its renderers at import time would miss the wrappers.
    result = _traced(CLI_SCRIPT, str(tmp_path))
    snapshot = result["snapshot"]
    assert result["code"] == 2
    assert result["emit_calls"] == 2
    assert snapshot["cli.requests"] == 1
    assert snapshot["documents.bytes_out"] == len((tmp_path / "out.json").read_bytes())
