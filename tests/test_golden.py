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
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

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

#: Every map document the cases run on, by name.
DOCUMENTS = {**MAPS, **CONJUGATED_LAYOUT}

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


if __name__ == "__main__":
    regenerate()
