"""The command line interface, exercised end to end in subprocesses.

The property test on random conjugators runs `cli.main` in-process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schroeder
from schroeder import cli
from schroeder.documents import dump, load, map_json, parse_solution_document
from schroeder.engine import component_rank
from schroeder.linalg import ExactMatrix, inverse, rank
from schroeder.maps import conjugate_map
from schroeder.scalars import Scalar

from conftest import random_poly_map, sc

OBSTRUCTED_DOC = {
    "dimension": 2,
    "components": [
        [{"monomial": [1, 0], "coefficient": "1/2"}],
        [
            {"monomial": [0, 1], "coefficient": "1/4"},
            {"monomial": [2, 0], "coefficient": "1/16"},
        ],
    ],
}

DIAGONAL_DOC = {
    "dimension": 2,
    "components": [
        [{"monomial": [1, 0], "coefficient": "1/2"}],
        [{"monomial": [0, 1], "coefficient": "1/4"}],
    ],
}

COUPLED_DOC = {
    "dimension": 4,
    "components": [
        [{"monomial": [1, 0, 0, 0], "coefficient": "1/2"}],
        [
            {"monomial": [0, 1, 0, 0], "coefficient": "1/4"},
            {"monomial": [0, 0, 1, 0], "coefficient": "1/8"},
            {"monomial": [2, 0, 0, 0], "coefficient": "1/8"},
        ],
        [{"monomial": [0, 0, 1, 0], "coefficient": "1/4"}],
        [{"monomial": [0, 0, 0, 1], "coefficient": "1/8"}],
    ],
}

CONJUGATED_DOC = {
    "dimension": 2,
    "components": [
        [
            {"monomial": [1, 0], "coefficient": "3/8"},
            {"monomial": [0, 1], "coefficient": "1/8"},
        ],
        [
            {"monomial": [1, 0], "coefficient": "-1/8"},
            {"monomial": [0, 1], "coefficient": "1/8"},
        ],
    ],
    "conjugator": [["1", "0"], ["1", "1"]],
}

EXPANDING_DOC = {
    "dimension": 1,
    "components": [
        [
            {"monomial": [1], "coefficient": "1/2"},
            {"monomial": [2], "coefficient": "1000"},
        ]
    ],
}


#: The directory the tested package was imported from; the subprocesses
#: import it from there too, whether or not it is installed.
PACKAGE_ROOT = str(Path(schroeder.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "schroeder.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, doc in (
        ("obstructed", OBSTRUCTED_DOC),
        ("diagonal", DIAGONAL_DOC),
        ("coupled", COUPLED_DOC),
        ("conjugated", CONJUGATED_DOC),
        ("expanding", EXPANDING_DOC),
    ):
        p = root / f"{name}.json"
        p.write_text(dump(doc), encoding="utf-8")
        paths[name] = str(p)
    paths["root"] = root
    return paths


def test_help_lists_subcommands():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("analyze", "solve", "solve-power", "verify", "matrix"):
        assert name in res.stdout


def test_analyze_negative_verdict(docs):
    res = run_cli("analyze", docs["obstructed"])
    assert res.returncode == 2
    assert "no full-rank solution exists" in res.stdout
    assert "eigenvalue 1/4" in res.stdout
    assert "obstructed" in res.stdout


def test_analyze_positive_verdict(docs):
    res = run_cli("analyze", docs["diagonal"])
    assert res.returncode == 0
    assert "a full-rank solution exists" in res.stdout


def test_analyze_machine_output_is_byte_stable(docs):
    first = run_cli("analyze", docs["coupled"], "--format", "machine")
    second = run_cli("analyze", docs["coupled"], "--format", "machine")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["kind"] == "analysis"
    assert doc["full_rank"] is True
    assert doc["truncation_degree"] == 3
    quarter = next(
        e for e in doc["eigenvalues"] if e["value"] == {"re": "1/4", "im": "0"}
    )
    assert quarter["kernel_dimension"] == 2
    assert quarter["projected_dimension"] == 1


def test_solve_blocked_map_reports_and_exits_two(docs):
    res = run_cli("solve", docs["obstructed"])
    assert res.returncode == 2
    assert "no full-rank solution exists" in res.stdout


def test_solve_independent_mode(docs):
    res = run_cli("solve", docs["obstructed"], "--mode", "independent")
    assert res.returncode == 0
    assert "F1 = z1" in res.stdout
    assert "F2 = 1/16*z1^2" in res.stdout
    assert "component rank: 2" in res.stdout


def test_solve_and_verify_round_trip(docs):
    sol_path = str(docs["root"] / "sol.json")
    res = run_cli(
        "solve", docs["diagonal"], "--format", "machine", "--out", sol_path
    )
    assert res.returncode == 0
    assert res.stdout == ""
    with open(sol_path, encoding="utf-8") as fh:
        saved = json.loads(fh.read())
    assert saved["kind"] == "solution" and saved["full_rank"] is True

    check = run_cli("verify", docs["diagonal"], sol_path)
    assert check.returncode == 0
    assert "exact through degree 10" in check.stdout

    cross = run_cli("verify", docs["obstructed"], sol_path)
    assert cross.returncode == 2
    assert "first failure in component 2" in cross.stdout
    assert "z1^2" in cross.stdout


def test_solve_with_conjugator_verifies_against_original(docs):
    sol_path = str(docs["root"] / "conj_sol.json")
    res = run_cli(
        "solve", docs["conjugated"], "--format", "machine", "--out", sol_path
    )
    assert res.returncode == 0
    check = run_cli("verify", docs["conjugated"], sol_path)
    assert check.returncode == 0


def test_solve_power_machine(docs):
    res = run_cli(
        "solve-power", docs["diagonal"], "--k", "2", "--format", "machine"
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["power"] == 2
    assert doc["derivative_rank"] == 0
    assert doc["component_rank"] == 2
    sol_path = str(docs["root"] / "pow_sol.json")
    (docs["root"] / "pow_sol.json").write_text(res.stdout, encoding="utf-8")
    check = run_cli("verify", docs["diagonal"], sol_path)
    assert check.returncode == 0


def test_matrix_text_shows_exact_entries(docs):
    res = run_cli("matrix", docs["obstructed"])
    assert res.returncode == 0
    assert "truncation degree: 2" in res.stdout
    assert "basis size: 5" in res.stdout
    assert "1/16" in res.stdout
    lines = res.stdout.splitlines()
    header = next(l for l in lines if "z1*z2" in l)
    assert "z1^2" in header


def test_matrix_machine(docs):
    res = run_cli("matrix", docs["diagonal"], "--format", "machine")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["kind"] == "operator"
    assert doc["basis"] == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    diag = [doc["matrix"][i][i]["re"] for i in range(5)]
    assert diag == ["1/2", "1/4", "1/4", "1/8", "1/16"]


def test_sample_check_warns_on_stderr_only(docs):
    res = run_cli("analyze", docs["expanding"], "--sample-check")
    assert res.returncode == 0
    assert "warning" in res.stderr
    assert "failed to contract" in res.stderr
    assert "warning" not in res.stdout

    quiet = run_cli("analyze", docs["diagonal"], "--sample-check")
    assert quiet.returncode == 0
    assert quiet.stderr == ""


def test_error_exit_codes(docs, tmp_path):
    missing = run_cli("analyze", str(tmp_path / "nope.json"))
    assert missing.returncode == 1
    assert "error:" in missing.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "error:" in res.stderr

    expanding_spectrum = tmp_path / "big.json"
    expanding_spectrum.write_text(
        dump(
            {
                "dimension": 1,
                "components": [[{"monomial": [1], "coefficient": "2"}]],
            }
        ),
        encoding="utf-8",
    )
    res = run_cli("analyze", str(expanding_spectrum))
    assert res.returncode == 1
    assert "modulus" in res.stderr

    full_linear = tmp_path / "full.json"
    full_linear.write_text(
        dump(
            {
                "dimension": 2,
                "components": [
                    [
                        {"monomial": [1, 0], "coefficient": "1/4"},
                        {"monomial": [0, 1], "coefficient": "1/8"},
                    ],
                    [
                        {"monomial": [1, 0], "coefficient": "1/8"},
                        {"monomial": [0, 1], "coefficient": "1/4"},
                    ],
                ],
            }
        ),
        encoding="utf-8",
    )
    res = run_cli("analyze", str(full_linear))
    assert res.returncode == 1
    assert "triangular" in res.stderr

    usage = run_cli("solve", docs["diagonal"], "--degree", "0")
    assert usage.returncode == 1
    assert "error" in usage.stderr.lower()

    unknown = run_cli("frobnicate")
    assert unknown.returncode == 1

    singular = tmp_path / "singular.json"
    singular.write_text(
        dump({**DIAGONAL_DOC, "conjugator": [["1", "1"], ["1", "1"]]}), encoding="utf-8"
    )
    for command, *rest in (["analyze"], ["solve"], ["solve-power", "--k", "2"], ["matrix"]):
        res = run_cli(command, str(singular), *rest)
        assert res.returncode == 1
        assert res.stderr == "error: $.conjugator: conjugator is singular\n"
    # verify checks the map as given and ignores the conjugator.
    sol_path = str(tmp_path / "diagonal_sol.json")
    made = run_cli("solve", docs["diagonal"], "--format", "machine", "--out", sol_path)
    assert made.returncode == 0
    assert run_cli("verify", str(singular), sol_path).returncode == 0


def main_in_process(*args: str) -> int:
    """Run `cli.main` in this process with the given arguments; returns its exit code."""
    saved = sys.argv
    sys.argv = ["schroeder", *args]
    try:
        with pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        sys.argv = saved
    return stop.value.code


def test_in_process_runs_keep_no_redirected_stream_alive(docs):
    """`cli.main` holds no reference to the streams it wrote to.

    `click.echo` without `file=` caches a wrapper per stream in a
    `WeakKeyDictionary` whose value is the stream itself, so every
    redirected stdout or stderr would stay alive for the whole process.
    """
    requests = (
        (["analyze", docs["obstructed"]], 2),
        (["solve", docs["diagonal"], "--degree", "3"], 0),
        (["analyze", str(docs["root"] / "missing.json")], 1),
        (["--help"], 0),
        (["analyze", "--help"], 0),
        (["--version"], 0),
    )
    refs = []
    for i in range(36):
        args, expected = requests[i % len(requests)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main_in_process(*args)
        assert code == expected
        assert (out if expected != 1 else err).getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_version_from_source_checkout():
    """`--version` reads the package's own version, not installed metadata."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main_in_process("--version")
    assert code == 0
    assert out.getvalue().endswith(", version 0.1.0\n")


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == schroeder.__version__


#: A row operation row_i += t * row_j; products of them are unimodular.
shears = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([-2, -1, 1, 2])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 3]), ops=shears, seed=st.integers(0, 2**32))
def test_conjugated_solutions_keep_their_ranks(n, ops, seed):
    """Transport back by the conjugator keeps both ranks the engine computed.

    The document holds phi = C^-1 psi(C z) for a random triangular psi and a
    random unimodular C; the emitted solutions must report the ranks of
    their own components and verify against phi.
    """
    c = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, t in ops:
        if i < n and j < n and i != j:
            c[i] = [x + t * y for x, y in zip(c[i], c[j])]
    conj = ExactMatrix.from_rows([[Scalar.of(x) for x in row] for row in c])
    rng = random.Random(seed)
    diag = [rng.choice((sc(1, 2), sc(1, 3), sc(1, 4), sc(-1, 2), sc(2, 5))) for _ in range(n)]
    phi = conjugate_map(random_poly_map(rng, n, diag, 3), inverse(conj))
    with tempfile.TemporaryDirectory() as tmp:
        map_path = os.path.join(tmp, "map.json")
        doc = {**map_json(phi), "conjugator": [[str(x) for x in row] for row in c]}
        Path(map_path).write_text(dump(doc), encoding="utf-8")
        for i, args in enumerate((["solve", "--mode", "independent"], ["solve-power", "--k", "2"])):
            sol_path = os.path.join(tmp, f"sol{i}.json")
            code = main_in_process(
                args[0], map_path, *args[1:], "--degree", "4",
                "--format", "machine", "--out", sol_path,
            )
            assert code == 0
            emitted = load(sol_path)
            f, _ = parse_solution_document(emitted)
            assert emitted["derivative_rank"] == rank(f.linear_part())
            assert emitted["component_rank"] == component_rank(f) == n
            assert main_in_process("verify", map_path, sol_path, "--out", os.path.join(tmp, "v")) == 0
