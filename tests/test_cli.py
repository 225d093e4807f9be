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
from schroeder.documents import dump, load, parse_solution_document
from schroeder.engine import component_rank
from schroeder.linalg import ExactMatrix, inverse, rank
from schroeder.maps import conjugate_map
from schroeder.scalars import Scalar

from conftest import main_in_process, random_poly_map, sc
from document_oracles import map_json

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

    # z/2 + 10^400 z^2: its coefficient is too large for a float.
    huge = docs["root"] / "huge.json"
    huge.write_text(
        dump(
            {
                "dimension": 1,
                "components": [
                    [
                        {"monomial": [1], "coefficient": "1/2"},
                        {"monomial": [2], "coefficient": "1" + "0" * 400},
                    ]
                ],
            }
        ),
        encoding="utf-8",
    )
    plain = run_cli("analyze", str(huge))
    sampled = run_cli("analyze", str(huge), "--sample-check")
    assert plain.returncode == sampled.returncode == 0
    assert sampled.stdout == plain.stdout
    assert "failed to contract" in sampled.stderr
    assert "Traceback" not in sampled.stderr


def test_error_exit_codes(docs, tmp_path):
    missing = run_cli("analyze", str(tmp_path / "nope.json"))
    assert missing.returncode == 1
    assert "error:" in missing.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 1
    assert "error:" in res.stderr

    # Bytes that are not UTF-8, as a map and as a solution document.
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff")
    for argv in (["analyze", str(binary)], ["verify", docs["diagonal"], str(binary)]):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {binary} is not valid UTF-8")

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

    # An exponent is not a rational: "1e-1000000" would be a million digits.
    exponent = tmp_path / "exponent.json"
    exponent.write_text(
        json.dumps({"dimension": 1, "components": [[
            {"monomial": [1], "coefficient": "1/2"},
            {"monomial": [2], "coefficient": "1e-1000000"},
        ]]}),
        encoding="utf-8",
    )
    res = run_cli("solve", str(exponent), "--degree", "3")
    assert res.returncode == 1
    assert "$.components[0][1].coefficient: not a rational: '1e-1000000'" in res.stderr

    # A solution term above the document's degree is refused, not dropped.
    half = tmp_path / "half.json"
    half.write_text(
        dump({"dimension": 1, "components": [[{"monomial": [1], "coefficient": "1/2"}]]}),
        encoding="utf-8",
    )
    high = tmp_path / "high.json"
    high.write_text(
        dump({"kind": "solution", "dimension": 1, "power": 1, "degree": 2, "components": [[
            {"monomial": [1], "coefficient": "1"},
            {"monomial": [7], "coefficient": "123"},
        ]]}),
        encoding="utf-8",
    )
    res = run_cli("verify", str(half), str(high))
    assert res.returncode == 1
    assert "$.components[0][1].monomial: monomial of degree 7" in res.stderr

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



def run_in_process(*args: str):
    """(exit code, stdout, stderr) of `cli.main` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main_in_process(*args)
    return code, out.getvalue(), err.getvalue()


#: Refused command lines: argv, exit code and the whole of stderr.  `{map}`
#: stands for a map document and `{dir}` for a directory.
USAGE_ERRORS = [
    (["solve", "{map}", "--degree", "0"], 1,
     "error: Invalid value for '--degree': 0 is not in the range x>=1.\n"),
    (["solve", "{map}", "--degree=x"], 1,
     "error: Invalid value for '--degree': 'x' is not a valid integer range.\n"),
    (["solve", "{map}", "--mode", "bad"], 1,
     "error: Invalid value for '--mode': 'bad' is not one of 'full-rank', 'independent'.\n"),
    (["solve-power", "{map}", "--k", "0"], 1,
     "error: Invalid value for '--k': 0 is not in the range x>=1.\n"),
    (["analyze", "{map}", "--seed", "x"], 1,
     "error: Invalid value for '--seed': 'x' is not a valid integer.\n"),
    (["analyze", "{map}", "--out", "{dir}"], 1,
     "error: Invalid value for '--out': File '{dir}' is a directory.\n"),
    (["solve", "{map}", "--degree"], 1, "error: Option '--degree' requires an argument.\n"),
    (["analyze", "{map}", "--sample-check=1"], 1,
     "error: Option '--sample-check' does not take a value.\n"),
    (["analyze"], 1, "error: Missing argument 'MAP'.\n"),
    (["verify", "{map}"], 1, "error: Missing argument 'SOLUTION'.\n"),
    (["analyze", "{map}", "{map}"], 1, "error: Got unexpected extra argument ({map})\n"),
    (["frobnicate"], 1, "error: No such command 'frobnicate'.\n"),
]


@pytest.mark.parametrize(
    "argv, code, stderr", USAGE_ERRORS, ids=[" ".join(a) for a, _, _ in USAGE_ERRORS]
)
def test_usage_errors(docs, tmp_path, argv, code, stderr):
    where = {"map": docs["diagonal"], "dir": str(tmp_path)}
    got = run_in_process(*(a.format(**where) for a in argv))
    assert got == (code, "", stderr.format(**where))


def test_an_unknown_option_is_named():
    code, out, err = run_in_process("analyze", "map.json", "--bogus")
    assert (code, out) == (1, "")
    assert err.startswith("error: No such option '--bogus'.")


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (["analyze", "{map}", "--format=machine"], ["analyze", "{map}", "--format", "machine"]),
        (["analyze", "--format", "machine", "{map}"], ["analyze", "{map}", "--format", "machine"]),
        (["analyze", "--", "{map}"], ["analyze", "{map}"]),
        (["solve", "--degree", "0", "--help"], ["solve", "--help"]),
    ],
)
def test_equivalent_command_lines(docs, argv, canonical):
    def run(args):
        return run_in_process(*(a.format(map=docs["diagonal"]) for a in args))

    got = run(argv)
    assert got[0] == 0
    assert got[1]
    assert got == run(canonical)


def test_a_bare_call_asks_for_a_command():
    res = run_cli()
    assert (res.returncode, res.stdout, res.stderr) == (1, "", "error: Missing command.\n")
    # Under `python -m` too, the program calls itself `schroeder`.
    assert run_cli("--version").stdout == f"schroeder, version {schroeder.__version__}\n"
    assert run_cli("--help").stdout.startswith("Usage: schroeder [OPTIONS] COMMAND [ARGS]...\n")


def test_help_pages_print_without_docstrings(monkeypatch):
    """Under `python -OO` the pages lose the commands' text, nothing else."""
    monkeypatch.setenv("PYTHONOPTIMIZE", "2")
    for args in (["--help"], ["solve", "--help"]):
        res = run_cli(*args)
        assert (res.returncode, res.stderr) == (0, "")
        assert "  --help  " in res.stdout

def test_an_interrupt_exits_one(docs, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("schroeder.cli.analyze", interrupted)
    assert run_in_process("analyze", docs["diagonal"]) == (1, "", "\n")


#: Tokens the parser fuzz draws command lines from: `{map}` is a map
#: document, `{sol}` a solution document and `{dir}` the directory that
#: holds them, which is also the working directory.
FUZZ_TOKENS = [
    "analyze", "solve", "solve-power", "verify", "matrix", "frobnicate",
    "--", "--help", "--help=1", "--version", "--version=1", "--bogus", "-x", "-",
    "{map}", "{sol}", "{dir}", "out.json",
    "--format", "--format=text", "--format=machine", "--format=bad", "text", "machine",
    "--out", "--out=out.json", "--out={dir}",
    "--sample-check", "--sample-check=1",
    "--degree", "--degree=3", "--degree=0", "--degree=x", "3", "0", "-1", "x",
    "--mode", "--mode=independent", "--mode=full-rank", "--mode=bad", "independent",
    "--k", "--k=2", "--k=0", "--seed", "--seed=5", "--seed=x",
]

FUZZ_SOLUTION = {
    "kind": "solution", "dimension": 2, "power": 1, "degree": 1,
    "components": [
        [{"monomial": [1, 0], "coefficient": "1"}],
        [{"monomial": [0, 1], "coefficient": "1"}],
    ],
}


#: Up to six tokens; half of the draws start with a subcommand.
fuzz_argvs = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6) | st.builds(
    lambda command, rest: [command, *rest],
    st.sampled_from(FUZZ_TOKENS[:5]),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(argv=fuzz_argvs)
def test_every_command_line_exits_zero_one_or_two(tmp_path_factory, argv):
    """No command line escapes the parser as anything but an exit code.

    Each draw runs in a fresh directory, the working directory, so every
    `--out` writes under it.
    """
    work = tmp_path_factory.mktemp("fuzz")
    where = {"map": str(work / "map.json"), "sol": str(work / "sol.json"), "dir": str(work)}
    Path(where["map"]).write_text(dump(OBSTRUCTED_DOC), encoding="utf-8")
    Path(where["sol"]).write_text(dump(FUZZ_SOLUTION), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code, _, err = run_in_process(*(a.format(**where) for a in argv))
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error:")

def test_repeated_monomial_exits_one(tmp_path):
    # Summed, z1 listed twice as 1/4 would analyze as eigenvalue 1/2.
    twice = tmp_path / "twice.json"
    twice.write_text(
        dump({"dimension": 1, "components": [[
            {"monomial": [1], "coefficient": "1/4"},
            {"monomial": [1], "coefficient": "1/4"},
        ]]}),
        encoding="utf-8",
    )
    res = run_cli("analyze", str(twice))
    assert res.returncode == 1
    assert "$.components[0][1].monomial: monomial repeats an earlier term" in res.stderr
    assert res.stdout == ""


def test_verify_walks_past_the_recursion_limit(tmp_path):
    """phi^alpha for |alpha| = 1200 is built without one frame per degree."""
    map_path, sol_path, out_path = tmp_path / "map.json", tmp_path / "sol.json", tmp_path / "out.json"
    map_path.write_text(
        dump({"dimension": 1, "components": [[{"monomial": [1], "coefficient": "1/2"}]]}),
        encoding="utf-8",
    )
    term = {"monomial": [1200], "coefficient": {"re": "1", "im": "0"}}
    solution = {"kind": "solution", "dimension": 1, "power": 1, "degree": 1200,
                "components": [[term]]}
    sol_path.write_text(dump(solution), encoding="utf-8")
    code = main_in_process(
        "verify", str(map_path), str(sol_path), "--format", "machine", "--out", str(out_path)
    )
    assert code == 2
    report = load(str(out_path))
    assert report["clean_degree"] == 1199
    assert report["first_failure"]["monomial"] == [1200]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit"
)
def test_numbers_past_the_int_str_digit_limit(tmp_path):
    """A 5000-digit denominator is read, solved with, written and verified.

    `cli.main` lifts CPython's 4300-digit int <-> str limit for its run
    and gives the caller back the limit it had.
    """
    doc = {
        "dimension": 1,
        "components": [[
            {"monomial": [1], "coefficient": "1/2"},
            {"monomial": [2], "coefficient": "1/1" + "0" * 4999},
        ]],
    }
    map_path, sol_path = tmp_path / "map.json", tmp_path / "sol.json"
    map_path.write_text(dump(doc), encoding="utf-8")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main_in_process("analyze", str(map_path)) == 0
            assert main_in_process("solve", str(map_path), "--degree", "4") == 0
            made = main_in_process(
                "solve", str(map_path), "--degree", "4",
                "--format", "machine", "--out", str(sol_path),
            )
            assert made == 0
            assert main_in_process("verify", str(map_path), str(sol_path)) == 0
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(saved)
    assert "verdict: exact through degree 4" in out.getvalue()
    assert len(load(str(sol_path))["components"][0][1]["coefficient"]["re"]) > 5000


def test_in_process_runs_keep_no_redirected_stream_alive(docs):
    """`cli.main` holds no reference to the streams it wrote to.

    It writes to whatever `sys.stdout` and `sys.stderr` are when it runs;
    a front end that cached a wrapper per stream would keep every
    redirected stdout or stderr alive for the whole process.
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
