"""Golden outputs of the CLI for the three fixture maps.

Each case runs one `schroeder` command in-process on a fixture map with
`--format machine` and compares the document it writes with the file of
the same name under `tests/golden/`, byte for byte; the same command
with `--format text` must print the `.txt` file beside it.  The `verify`
cases check the committed solution documents.  Four more maps are
fixtures conjugated by a matrix and carry it as their `"conjugator"`, so
the CLI's conjugation in and transport back are pinned as well: two by
a unimodular matrix, two by a scaled signed permutation.  One more map
has a diagonal derivative whose repeated eigenvalue is out of order, so
the engine's Jordan transition is a permutation.  The last mixes a
resonant pair with an eigenvalue whose squared modulus has a prime no
other eigenvalue's has, so the resonance search is pinned beyond
spectra of powers of 1/2.  The map tri3 has a lower-triangular,
non-diagonal derivative, so its Jordan transition is dense.  The `--help` page of the group and of each
subcommand is pinned as `help*.txt`.  After a change that is meant to
alter the output, regenerate every file with

    PYTHONPATH=src python tests/test_golden.py

Larger outputs (the dense maps dense3 and dense4, one variable at degree
250, tri3 at degree 13, a full-rank solve of jordan3, whose derivative
has a Jordan block, at degree 16 and a Gaussian map's powers at k = 20,
which lifts nothing, and at k = 3, which lifts its chains to degree
18) are pinned by sha256 in `DEEP_CASES`, with no file; the regenerator
prints their digests, to be pasted there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from schroeder.documents import parse_map_document
from schroeder.linalg import transition_to_jordan_triangular
from schroeder.maps import conjugate_map

from conftest import main_in_process

GOLDEN = Path(__file__).parent / "golden"


def _term(monomial, coefficient):
    return {"monomial": monomial, "coefficient": coefficient}


#: The conftest fixtures as map documents (checked against them below).
MAPS = {
    "obstructed": {
        "dimension": 2,
        "components": [
            [_term([1, 0], "1/2")],
            [_term([0, 1], "1/4"), _term([2, 0], "1/16")],
        ],
    },
    "diagonal": {
        "dimension": 2,
        "components": [[_term([1, 0], "1/2")], [_term([0, 1], "1/4")]],
    },
    "coupled": {
        "dimension": 4,
        "components": [
            [_term([1, 0, 0, 0], "1/2")],
            [
                _term([0, 1, 0, 0], "1/4"),
                _term([0, 0, 1, 0], "1/8"),
                _term([2, 0, 0, 0], "1/8"),
            ],
            [_term([0, 0, 1, 0], "1/4")],
            [_term([0, 0, 0, 1], "1/8")],
        ],
    },
}

#: Fixtures conjugated by a unimodular, non-permutation C: each document
#: holds C^-1 psi(C z) for a fixture psi, with C as its conjugator.
CONJUGATED = {
    "obstructed-conj": {
        "dimension": 2,
        "components": [
            [_term([1, 0], "3/4"), _term([0, 1], "1/4"), _term([2, 0], "-1/4"),
             _term([1, 1], "-1/4"), _term([0, 2], "-1/16")],
            [_term([1, 0], "-1/2"), _term([2, 0], "1/2"), _term([1, 1], "1/2"),
             _term([0, 2], "1/8")],
        ],
        "conjugator": [["2", "1"], ["1", "1"]],
    },
    "coupled-conj": {
        "dimension": 4,
        "components": [
            [_term([1, 0, 0, 0], "3/8"), _term([0, 1, 0, 0], "1/4"),
             _term([0, 0, 1, 0], "-1/8"), _term([2, 0, 0, 0], "-1/8"),
             _term([1, 1, 0, 0], "-1/4"), _term([0, 2, 0, 0], "-1/8")],
            [_term([1, 0, 0, 0], "1/8"), _term([0, 1, 0, 0], "1/4"),
             _term([0, 0, 1, 0], "1/8"), _term([2, 0, 0, 0], "1/8"),
             _term([1, 1, 0, 0], "1/4"), _term([0, 2, 0, 0], "1/8")],
            [_term([1, 0, 0, 0], "-1/8"), _term([0, 1, 0, 0], "-1/4"),
             _term([0, 0, 1, 0], "3/8"), _term([2, 0, 0, 0], "1/8"),
             _term([1, 1, 0, 0], "1/4"), _term([0, 2, 0, 0], "1/8")],
            [_term([1, 0, 0, 0], "1/8"), _term([0, 1, 0, 0], "1/4"),
             _term([0, 0, 1, 0], "-1/4"), _term([0, 0, 0, 1], "1/8"),
             _term([2, 0, 0, 0], "-1/8"), _term([1, 1, 0, 0], "-1/4"),
             _term([0, 2, 0, 0], "-1/8")],
        ],
        "conjugator": [
            ["1", "1", "0", "0"],
            ["0", "1", "0", "0"],
            ["1", "0", "1", "0"],
            ["0", "0", "1", "1"],
        ],
    },
}

#: Fixtures conjugated by a scaled signed permutation C, as in `CONJUGATED`.
PERMUTED = {
    "obstructed-perm": {
        "dimension": 2,
        "components": [
            [_term([1, 0], "1/4"), _term([0, 2], "-1/4")],
            [_term([0, 1], "1/2")],
        ],
        "conjugator": [["0", "2"], ["-1", "0"]],
    },
    "coupled-perm": {
        "dimension": 4,
        "components": [
            [_term([1, 0, 0, 0], "1/4")],
            [_term([0, 1, 0, 0], "1/8")],
            [_term([0, 0, 1, 0], "1/2")],
            [_term([1, 0, 0, 0], "-1/24"), _term([0, 0, 0, 1], "1/4"),
             _term([0, 0, 2, 0], "-1/8")],
        ],
        "conjugator": [
            ["0", "0", "1", "0"],
            ["0", "0", "0", "-1"],
            ["1/3", "0", "0", "0"],
            ["0", "2", "0", "0"],
        ],
    },
}

#: A map with derivative diag(1/2, 1/4, 1/2): the engine's Jordan
#: transition swaps z2 and z3 to bring the two 1/2s together.
REPEATED = {
    "repeated": {
        "dimension": 3,
        "components": [
            [_term([1, 0, 0], "1/2"), _term([0, 2, 0], "1/3")],
            [_term([0, 1, 0], "1/4"), _term([1, 1, 0], "1/5")],
            [_term([0, 0, 1], "1/2"), _term([2, 0, 0], "1/6"), _term([0, 1, 1], "-1/7")],
        ],
    },
}

#: A map with derivative diag(1/2, 1/3, 1/4): 1/4 is resonant at z1^2,
#: while 1/3 is the only eigenvalue whose squared modulus has the prime 3,
#: so no resonance can involve it.
MIXED = {
    "mixed": {
        "dimension": 3,
        "components": [
            [_term([1, 0, 0], "1/2"), _term([0, 2, 0], "1/3")],
            [_term([0, 1, 0], "1/3"), _term([1, 0, 1], "1/5")],
            [_term([0, 0, 1], "1/4"), _term([1, 1, 0], "1/7")],
        ],
    },
}

#: A map with lower-triangular, non-diagonal derivative and simple
#: eigenvalues 1/2, 1/3 and 1/5: no resonance, so K = 1, and the
#: engine's Jordan transition is a dense chain matrix.
TRIANGULAR = {
    "tri3": {
        "dimension": 3,
        "components": [
            [_term([1, 0, 0], "1/2"), _term([0, 2, 0], "1/5"), _term([1, 0, 1], "1/7")],
            [_term([1, 0, 0], "1"), _term([0, 1, 0], "1/3"), _term([1, 1, 0], "1/7"),
             _term([0, 0, 2], "1/11")],
            [_term([1, 0, 0], "2/3"), _term([0, 1, 0], "1/4"), _term([0, 0, 1], "1/5"),
             _term([2, 0, 0], "1/13")],
        ],
    },
}

#: The maps whose cases follow the layout of `CONJUGATED`'s.
CONJUGATED_LAYOUT = {**CONJUGATED, **PERMUTED, **REPEATED, **MIXED, **TRIANGULAR}


def _dense(diag: List[str]) -> dict:
    """Component i is diag[i]*z_i plus every quadratic monomial, the k-th
    (in monomial order) with coefficient 1/(2 + i + k)."""
    n = len(diag)
    quadratic = sorted(
        ([int(j == a) + int(j == b) for j in range(n)] for a in range(n) for b in range(a, n)),
        reverse=True,
    )
    return {
        "dimension": n,
        "components": [
            [_term([int(j == i) for j in range(n)], lam)]
            + [_term(alpha, f"1/{2 + i + k}") for k, alpha in enumerate(quadratic)]
            for i, lam in enumerate(diag)
        ],
    }


#: jordan3's components 1 and 2: those of dense3(1/2, 1/2, 1/4), with z1
#: added to the second, so the derivative has a Jordan block of 1/2.  1/4
#: is resonant at z1^2, z1z2 and z2^2; its component carries none of them,
#: so the verdict is full rank.
_first, _second, _ = _dense(["1/2", "1/2", "1/4"])["components"]

#: Larger maps whose outputs are pinned by digest only (`DEEP_CASES`).
DEEP = {
    "dense3": _dense(["1/2", "1/3", "1/1024"]),
    "dense4": _dense(["1/2", "1/3", "1/5", "1/7"]),
    "one": {"dimension": 1, "components": [[_term([1], "1/2"), _term([2], "1/3")]]},
    "jordan3": {
        "dimension": 3,
        "components": [
            _first,
            [_term([1, 0, 0], "1")] + _second,
            [_term([0, 0, 1], "1/4"), _term([1, 0, 1], "1/5"), _term([0, 0, 2], "1/7")],
        ],
    },
    "gauss2": {
        "dimension": 2,
        "components": [
            [_term([1, 0], {"re": "1/2", "im": "1/2"}), _term([0, 1], "1/3"),
             _term([1, 1], {"re": "1/5", "im": "-1/5"})],
            [_term([0, 1], {"re": "0", "im": "1/3"}), _term([2, 0], {"re": "0", "im": "1/4"}),
             _term([0, 2], "1/2")],
        ],
    },
}

#: Every map document the cases run on, by name.
DOCUMENTS = {**MAPS, **CONJUGATED_LAYOUT, **DEEP}

#: The golden solutions that `verify` replays, by file stem.
SOLUTIONS = ("solve", "solve-power-k2", "solve-power-k3")


def _cases() -> List[Tuple[str, str, List[str], int]]:
    """(golden file name, map name, arguments after the map, exit code), in generation order."""
    out = []
    for name in MAPS:
        blocked = name == "obstructed"
        mode = ["--mode", "independent"] if blocked else []
        out.append((f"{name}.analyze.json", name, ["analyze"], 2 if blocked else 0))
        out.append((f"{name}.solve.json", name, ["solve", "--degree", "10", *mode], 0))
        for k in (2, 3):
            out.append(
                (f"{name}.solve-power-k{k}.json", name,
                 ["solve-power", "--k", str(k), "--degree", "10"], 0)
            )
        for stem in SOLUTIONS:
            solution = str(GOLDEN / f"{name}.{stem}.json")
            out.append((f"{name}.verify-{stem}.json", name, ["verify", solution], 0))
        out.append((f"{name}.matrix.json", name, ["matrix"], 0))
    for name in CONJUGATED_LAYOUT:
        blocked = name.startswith("obstructed")
        solve = ["solve", "--degree", "10"]
        out.append((f"{name}.analyze.json", name, ["analyze"], 2 if blocked else 0))
        out.append((f"{name}.solve.json", name, solve, 2 if blocked else 0))
        out.append((f"{name}.solve-independent.json", name, [*solve, "--mode", "independent"], 0))
        out.append(
            (f"{name}.solve-power-k2.json", name, ["solve-power", "--k", "2", "--degree", "10"], 0)
        )
        stems = ("solve-independent", "solve-power-k2")
        for stem in stems if blocked else ("solve", *stems):
            solution = str(GOLDEN / f"{name}.{stem}.json")
            out.append((f"{name}.verify-{stem}.json", name, ["verify", solution], 0))
        out.append((f"{name}.matrix.json", name, ["matrix"], 0))
    return out


CASES = _cases()

#: Cases on `DEEP` maps, pinned by the sha256 of their machine document and
#: of `verify`'s document for that solution (None: no solution to verify):
#: {case id: (map name, arguments after the map, exit code, digest, verify digest)}.
#: The degrees are below the ROADMAP's deep cases (dense4 at 10, one at 300,
#: tri3 at 14) on the same code paths, to keep the suite's time down.
DEEP_CASES = {
    "dense3.analyze": (
        "dense3", ["analyze"], 2,
        "3b705d6665735b180c917cdec5d97759fff5330cf937851be786e2ddad22a4fc", None,
    ),
    "dense3.solve-d10": (
        "dense3", ["solve", "--degree", "10", "--mode", "independent"], 0,
        "eee6d9ea5652114950333e87513d91fce473eb8d67feda25487f6ac8c4cc8b2f",
        "fdff7b23d165257a6e60c16d84897cda8817712c16fdade4f3f3e31ad878fadb",
    ),
    "dense4.solve-d9": (
        "dense4", ["solve", "--degree", "9", "--mode", "independent"], 0,
        "7cab67e38162dcd5ada4f1381daeb1bf5a4433e0abde0a12b9311e5f094e5087",
        "f57705c81315290f5ba312264e3b6aec2e8df985d63e0b4db31213b8db5641bf",
    ),
    "one.solve-d250": (
        "one", ["solve", "--degree", "250", "--mode", "independent"], 0,
        "02d1f39540dfb51f6f03ee97e36620062358254141a41b9ee667cf767a3a3885",
        "f313f5e53fb293458f516aa1ece63e3b588207d4d6cf3a55cedcec57c901f6ab",
    ),
    "tri3.solve-d13": (
        "tri3", ["solve", "--degree", "13", "--mode", "independent"], 0,
        "3feaad3fbcb40a599d35147d3d8bff6dd55da584e508c6c2fbd69630ab40870a",
        "f330b68889c45a3d24e353defe8eeef338a9c788bbe50b98d1b95933788df4d6",
    ),
    "jordan3.solve-d16": (
        "jordan3", ["solve", "--degree", "16"], 0,
        "d0496ad76262b8227684d303bea63d2d359925b1e640adb3ef8c426e860bb2db",
        "9a911489cb18c06df9166a222cf74fb1087a06a3d1b2bbaa273fc680eee52d20",
    ),
    "gauss2.solve-power-k20-d20": (
        "gauss2", ["solve-power", "--k", "20", "--degree", "20"], 0,
        "2553eaaf603b32074473b67c9d0969746812ade64aae775733c812e9aa37f50a",
        "3042bbab12070ff8ee2f61b3208d9307c29ff04d31bf17b826b3835cc34ae682",
    ),
    "gauss2.solve-power-k3-d20": (
        "gauss2", ["solve-power", "--k", "3", "--degree", "20"], 0,
        "35bb41f52722a9a7fbfb2f7050383dd1fecc8647d573b35def102c5f35dfb818",
        "3042bbab12070ff8ee2f61b3208d9307c29ff04d31bf17b826b3835cc34ae682",
    ),
}

#: The subcommands whose `--help` pages are pinned.
COMMANDS = ("analyze", "solve", "solve-power", "verify", "matrix")

#: (golden file name, arguments) of every pinned help page.
HELP_PAGES = [("help.txt", ["--help"])] + [
    (f"help.{command}.txt", [command, "--help"]) for command in COMMANDS
]


def text_name(golden: str) -> str:
    """The text output's golden file for a machine document's."""
    return golden.removesuffix(".json") + ".txt"


def _stdout_of(args: List[str]) -> Tuple[bytes, int]:
    """What `schroeder <args>` prints to stdout, and its exit code.

    The help pages are laid out at a fixed 78 columns, whatever the
    terminal the tests run in.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main_in_process(*args)
    return buffer.getvalue().encode("utf-8"), code


def render(map_name: str, args: List[str], workdir: Path, fmt: str = "machine") -> Tuple[bytes, int]:
    """The document (machine) or report (text) one command writes, and its exit code.

    The machine document goes through `--out`, the text to stdout.
    """
    map_path = workdir / f"{map_name}.map.json"
    map_path.write_text(json.dumps(DOCUMENTS[map_name]), encoding="utf-8")
    command, *rest = args
    argv = [command, str(map_path), *rest, "--format", fmt]
    if fmt == "text":
        return _stdout_of(argv)
    out_path = workdir / "out.json"
    code = main_in_process(*argv, "--out", str(out_path))
    return out_path.read_bytes(), code


@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_documents_are_the_fixtures(name, request):
    phi, conjugator = parse_map_document(MAPS[name])
    assert conjugator is None
    assert phi == request.getfixturevalue(f"{name}_map")


@pytest.mark.parametrize("name", sorted({**CONJUGATED, **PERMUTED}))
def test_conjugated_documents_conjugate_to_the_fixtures(name, request):
    phi, conjugator = parse_map_document(DOCUMENTS[name])
    fixture = request.getfixturevalue(f"{name.split('-')[0]}_map")
    assert conjugate_map(phi, conjugator) == fixture


def test_repeated_map_has_a_permutation_transition():
    phi, conjugator = parse_map_document(REPEATED["repeated"])
    assert conjugator is None
    chain_matrix, jordan = transition_to_jordan_triangular(phi.linear_part().transpose())
    assert [[str(x) for x in row] for row in chain_matrix.entries] == [
        ["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]
    ]
    assert [str(x) for x in jordan.diagonal_entries()] == ["1/2", "1/2", "1/4"]


def test_tri3_has_a_dense_transition():
    phi, conjugator = parse_map_document(TRIANGULAR["tri3"])
    assert conjugator is None
    chain_matrix, jordan = transition_to_jordan_triangular(phi.linear_part().transpose())
    assert [[str(x) for x in row] for row in chain_matrix.entries] == [
        ["1", "1", "1"], ["0", "-1/6", "-27/58"], ["0", "0", "36/145"]
    ]
    assert [str(x) for x in jordan.diagonal_entries()] == ["1/2", "1/3", "1/5"]


@pytest.mark.parametrize(
    "golden, map_name, args, code", CASES, ids=[case[0] for case in CASES]
)
def test_machine_document_matches_golden(golden, map_name, args, code, tmp_path):
    data, got = render(map_name, args, tmp_path)
    assert got == code
    assert data == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "golden, map_name, args, code", CASES, ids=[text_name(case[0]) for case in CASES]
)
def test_text_output_matches_golden(golden, map_name, args, code, tmp_path):
    data, got = render(map_name, args, tmp_path, "text")
    assert got == code
    assert data == (GOLDEN / text_name(golden)).read_bytes()


def deep_digests(name: str, workdir: Path) -> Tuple[int, str, Optional[str]]:
    """(exit code, sha256 of the machine document, sha256 of `verify`'s, or None) of a deep case."""
    map_name, args, _, _, verify_digest = DEEP_CASES[name]
    data, code = render(map_name, args, workdir)
    if verify_digest is None:
        return code, hashlib.sha256(data).hexdigest(), None
    solution = workdir / "solution.json"
    solution.write_bytes(data)
    checked, _ = render(map_name, ["verify", str(solution)], workdir)
    return code, hashlib.sha256(data).hexdigest(), hashlib.sha256(checked).hexdigest()


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deep_case_matches_its_digests(name, tmp_path):
    _, _, code, digest, verify_digest = DEEP_CASES[name]
    assert deep_digests(name, tmp_path) == (code, digest, verify_digest)


@pytest.mark.parametrize("golden, args", HELP_PAGES, ids=[page[0] for page in HELP_PAGES])
def test_help_page_matches_golden(golden, args):
    data, code = _stdout_of(args)
    assert code == 0
    assert data == (GOLDEN / golden).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)

    def write(golden: str, data: bytes, got: int, code: int) -> None:
        if got != code:
            raise SystemExit(f"{golden}: exit code {got}, expected {code}")
        (GOLDEN / golden).write_bytes(data)
        print(f"wrote {GOLDEN / golden}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        for golden, map_name, args, code in CASES:
            write(golden, *render(map_name, args, Path(tmp)), code)
            write(text_name(golden), *render(map_name, args, Path(tmp), "text"), code)
    for golden, args in HELP_PAGES:
        write(golden, *_stdout_of(args), 0)
    with tempfile.TemporaryDirectory() as tmp:
        for name in DEEP_CASES:
            print(f"{name}: {deep_digests(name, Path(tmp))}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
