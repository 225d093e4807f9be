"""Golden machine documents for the three fixture maps.

Each case runs one `schroeder` command in-process on a fixture map with
`--format machine` and compares the document it writes with the file of
the same name under `tests/golden/`, byte for byte.  The `verify` cases
check the committed solution documents.  After a change that is meant
to alter the output, regenerate every file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

import pytest

from schroeder import cli
from schroeder.documents import parse_map_document

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
    return out


CASES = _cases()


def render(map_name: str, args: List[str], workdir: Path) -> Tuple[bytes, int]:
    """The machine document one command writes, and its exit code."""
    map_path = workdir / f"{map_name}.map.json"
    map_path.write_text(json.dumps(MAPS[map_name]), encoding="utf-8")
    out_path = workdir / "out.json"
    command, *rest = args
    code = cli.cli.main(
        [command, str(map_path), *rest, "--format", "machine", "--out", str(out_path)],
        standalone_mode=False,
    )
    return out_path.read_bytes(), code


@pytest.mark.parametrize("name", sorted(MAPS))
def test_map_documents_are_the_fixtures(name, request):
    phi, conjugator = parse_map_document(MAPS[name])
    assert conjugator is None
    assert phi == request.getfixturevalue(f"{name}_map")


@pytest.mark.parametrize(
    "golden, map_name, args, code", CASES, ids=[case[0] for case in CASES]
)
def test_machine_document_matches_golden(golden, map_name, args, code, tmp_path):
    data, got = render(map_name, args, tmp_path)
    assert got == code
    assert data == (GOLDEN / golden).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for golden, map_name, args, code in CASES:
            data, got = render(map_name, args, Path(tmp))
            if got != code:
                raise SystemExit(f"{golden}: exit code {got}, expected {code}")
            (GOLDEN / golden).write_bytes(data)
            print(f"wrote {GOLDEN / golden}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
