"""The command line interface, exercised end to end in subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schroeder
from schroeder.documents import dump

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
    saved = json.loads(open(sol_path, encoding="utf-8").read())
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
