"""The package's records are immutable `NamedTuple`s, and importing the
package or its CLI loads none of `click`, `argparse`, `dataclasses` and
`inspect`.

A fresh `schroeder` process pays for every module it imports before it
answers, so the import test pins the mechanism rather than a timing.
The record tests take one instance of each of the package's 13 record
types from real calls on the coupled fixture map.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schroeder
from schroeder import engine, linalg
from schroeder.compop import TruncatedCompOp
from schroeder.engine import (
    AnalysisReport,
    ComponentInfo,
    EigenvalueRecord,
    SchroederSolution,
    VerifyReport,
    analyze,
    solve,
    truncated_operator,
    verify,
)
from schroeder.linalg import Block, ExactMatrix, JordanBasis, JordanChain
from schroeder.maps import PolyMap
from schroeder.series import Jet

from conftest import sc

PACKAGE_ROOT = str(Path(schroeder.__file__).resolve().parents[1])


#: Modules that neither the package nor its CLI may load.
HEAVY = ("click", "argparse", "dataclasses", "inspect")


def _loaded_after(statement: str) -> list:
    """Which of `HEAVY` a fresh process holds after `statement`.

    `-S` skips the interpreter's site hooks, which may import any of them
    themselves, and leaves site-packages off the path: only the package
    is found, on PYTHONPATH, so the statement also fails if it needs a
    third-party module.
    """
    script = (
        f"{statement}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_never_imports_dataclasses():
    assert _loaded_after("import schroeder") == []
    assert _loaded_after("import schroeder.cli") == []


@pytest.fixture
def records(coupled_map):
    """One instance of each record type, keyed by the type."""
    phi = coupled_map
    op = truncated_operator(phi)
    sol = solve(phi, degree=3)
    basis = linalg.incremental_jordanize(op.lower, op.diag, phi.dim)
    chain_matrix, _ = linalg.transition_to_jordan_triangular(phi.linear_part())
    report = analyze(phi)
    return {
        Jet: sol.components.components[1],
        PolyMap: sol.components,
        ExactMatrix: chain_matrix,
        JordanChain: basis.chains[1],
        Block: basis.original_blocks[1],
        JordanBasis: basis,
        TruncatedCompOp: op,
        EigenvalueRecord: report.eigenvalues[1],
        AnalysisReport: report,
        ComponentInfo: sol.component_info[1],
        SchroederSolution: sol,
        VerifyReport: verify(phi, sol.components),
        engine._Prep: engine._prepare(phi, None),
    }


def test_every_record_is_read_only(records):
    assert len(records) == 13
    for kind, record in records.items():
        assert type(record) is kind
        for name in kind._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = None


def test_replace_changes_the_named_field_alone(records):
    sol = records[SchroederSolution]
    doubled = PolyMap(tuple(c.scale(sc(2)) for c in sol.components.components))
    replaced = sol._replace(components=doubled)
    assert type(replaced) is SchroederSolution
    assert replaced.components is doubled and replaced.components != sol.components
    for name in SchroederSolution._fields:
        if name != "components":
            assert getattr(replaced, name) is getattr(sol, name)
    # A replaced map is checked as a constructed one is.
    assert doubled._replace(components=sol.components.components) == sol.components
    with pytest.raises(ValueError, match="at least one component"):
        doubled._replace(components=())


def test_records_print_and_compare_as_before(records):
    block, info = records[Block], records[ComponentInfo]
    quarter = "Scalar(re=Fraction(1, 4), im=Fraction(0, 1))"
    assert repr(block) == f"Block(eigenvalue={quarter}, length=2, offset=1)"
    assert repr(info) == (
        f"ComponentInfo(index=1, eigenvalue={quarter}, block=1, position=1, block_size=2)"
    )
    assert repr(records[VerifyReport]) == (
        "VerifyReport(degree=3, clean_degree=3, first_failure=None,"
        " derivative_rank=4, component_rank=4)"
    )
    # A record is a tuple of its fields: equal and hashed as one.
    assert block == (sc(1, 4), 2, 1) and hash(block) == hash((sc(1, 4), 2, 1))
    assert info.index == 1 and tuple(info)[0] == 1
