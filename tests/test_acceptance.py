"""Acceptance gate: one test per contracted behavior, all equalities exact.

Every assertion in this file compares exact rational data with ==; there
are no tolerances anywhere.  Each test stands for one acceptance
criterion and prints a single pass/fail line under pytest -v.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from schroeder.compop import jet_vector, truncation_degree
from schroeder.engine import (
    NoFullRankError,
    analyze,
    solve,
    solve_power,
    truncated_operator,
    verify,
)
from schroeder.linalg import (
    ExactMatrix,
    incremental_jordanize,
    jordan_chains_triangular,
    mat_vec,
)
from schroeder.maps import PolyMap
from schroeder.scalars import ONE, ZERO, Scalar
from schroeder.series import Jet

from linalg_oracles import block_sizes
from conftest import (
    NONRESONANT_POOL,
    jet_of,
    koenigs_oracle,
    operator_at_k,
    random_poly_map,
    sc,
    sc_fraction_pool,
    sparse_lower,
)
from test_cli import COUPLED_DOC, DIAGONAL_DOC, OBSTRUCTED_DOC, run_cli
from test_jordan import append_row, lower_jordan, oracle_block_sizes


def _obstructed():
    return PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((0, 1), sc(1, 4)), ((2, 0), sc(1, 16))]),
        )
    )


def _diagonal():
    return PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 2))]),
            jet_of(2, 1, [((0, 1), sc(1, 4))]),
        )
    )


def _coupled():
    return PolyMap(
        (
            jet_of(4, 2, [((1, 0, 0, 0), sc(1, 2))]),
            jet_of(
                4,
                2,
                [
                    ((0, 1, 0, 0), sc(1, 4)),
                    ((0, 0, 1, 0), sc(1, 8)),
                    ((2, 0, 0, 0), sc(1, 8)),
                ],
            ),
            jet_of(4, 2, [((0, 0, 1, 0), sc(1, 4))]),
            jet_of(4, 2, [((0, 0, 0, 1), sc(1, 8))]),
        )
    )


def test_criterion_01_obstructed_example_has_no_full_rank_solution():
    phi = _obstructed()
    report = analyze(phi)
    assert report.full_rank is False
    quarter = next(r for r in report.eigenvalues if r.value == sc(1, 4))
    assert quarter.geometric_multiplicity == 1
    assert quarter.projected_dimension == 0

    op = operator_at_k(phi)
    chains = incremental_jordanize(op.lower, op.diag, 2)
    assert block_sizes(chains, sc(1, 4)) == [2]

    scaled_z2 = Jet.monomial(2, 2, (0, 1), sc(16))
    image = mat_vec(op.matrix.shift(sc(1, 4)), jet_vector(op, scaled_z2))
    assert image == jet_vector(op, Jet.monomial(2, 2, (2, 0)))

    sol = solve(phi, mode="independent")
    f1, f2 = sol.components.components
    a = f1.coefficient((1, 0))
    b = f2.coefficient((2, 0))
    assert not a.is_zero() and not b.is_zero()
    assert f1 == Jet.monomial(2, sol.degree, (1, 0), a)
    assert f2 == Jet.monomial(2, sol.degree, (2, 0), b)

    with pytest.raises(NoFullRankError):
        solve(phi)


def test_criterion_02_diagonal_example_operator_and_full_rank_solution():
    phi = _diagonal()
    op = truncated_operator(phi)
    assert op.degree == 2
    assert op.diag == (sc(1, 2), sc(1, 4), sc(1, 4), sc(1, 8), sc(1, 16))
    assert not any(op.lower)

    sol = solve(phi)
    assert sol.degree == 10
    d = sol.components.linear_part()
    assert d.at(0, 1) == ZERO and d.at(1, 0) == ZERO
    assert not d.at(0, 0).is_zero() and not d.at(1, 1).is_zero()
    check = verify(phi, sol.components)
    assert check.passed and check.clean_degree == 10 and check.first_failure is None


def test_criterion_03_coupled_example_chain_and_full_rank_solution():
    phi = _coupled()
    report = analyze(phi)
    assert report.full_rank is True
    quarter = next(r for r in report.eigenvalues if r.value == sc(1, 4))
    assert (
        quarter.geometric_multiplicity,
        quarter.kernel_dimension,
        quarter.projected_dimension,
    ) == (1, 2, 1)

    op = operator_at_k(phi)
    shifted = op.matrix.shift(sc(1, 4))
    z2 = Jet.monomial(4, 3, (0, 1, 0, 0))
    partner = Jet.build(
        4, 3, [((0, 0, 1, 0), sc(1, 8)), ((2, 0, 0, 0), sc(1, 8))]
    )
    assert mat_vec(shifted, jet_vector(op, z2)) == jet_vector(op, partner)
    assert all(
        x.is_zero() for x in mat_vec(shifted, jet_vector(op, partner))
    )

    assembled = PolyMap(
        (
            jet_of(4, 10, [((1, 0, 0, 0), ONE)]),
            jet_of(4, 10, [((0, 1, 0, 0), sc(1, 8))]),
            jet_of(4, 10, [((0, 0, 1, 0), sc(1, 8)), ((2, 0, 0, 0), sc(1, 8))]),
            jet_of(4, 10, [((0, 0, 0, 1), ONE)]),
        )
    )
    check = verify(phi, assembled)
    assert check.passed and check.clean_degree == 10 and check.first_failure is None
    assert check.derivative_rank == 4

    sol = solve(phi, degree=10)
    assert sol.full_rank and sol.derivative_rank == 4
    assert verify(phi, sol.components).passed
    f3 = sol.components.component(2)
    ratio = f3.coefficient((0, 0, 1, 0))
    assert not ratio.is_zero()
    assert f3 == partner.truncate(10).scale(ratio * sc(8))


def test_criterion_04_one_variable_solutions_match_classical_recursion():
    rng = random.Random(404)
    degree = 12
    for _ in range(20):
        lam_num = rng.randint(1, 8)
        lam_den = rng.randint(lam_num + 1, 9)
        lam = Scalar.of(Fraction(lam_num, lam_den))
        coeffs = {1: lam}
        for m in range(2, 5):
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            if c:
                coeffs[m] = Scalar.of(c)
        phi = PolyMap((jet_of(1, 4, [((m,), c) for m, c in coeffs.items()]),))
        sol = solve(phi, degree=degree)
        f = sol.components.component(0)
        assert f.coefficient((1,)) == ONE
        oracle = koenigs_oracle(
            [coeffs.get(m, ZERO) for m in range(5)], degree
        )
        for m in range(1, degree + 1):
            assert f.coefficient((m,)) == oracle[m]


def test_criterion_05_block_structure_matches_rank_oracle_on_200_matrices():
    rng = random.Random(505)
    pools = [
        [sc(1, 2), sc(1, 2), sc(1, 3)],
        [sc(1, 2), sc(1, 3), sc(2, 3), sc(1, 2)],
        [Scalar.of(Fraction(1, 2), Fraction(1, 3)), sc(1, 2), sc(-1, 3)],
    ]
    for trial in range(200):
        size = rng.randint(1, 8)
        pool = rng.choice(pools)
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                if j > i:
                    row.append(ZERO)
                elif j == i:
                    row.append(rng.choice(pool))
                elif rng.random() < 0.55:
                    row.append(sc_fraction_pool(rng, gaussian=True))
                else:
                    row.append(ZERO)
            rows.append(row)
        m = ExactMatrix.from_rows(rows)
        incremental = incremental_jordanize(*sparse_lower(m), 1)
        for lam in set(m.diagonal_entries()):
            expect = oracle_block_sizes(m, lam)
            assert block_sizes(incremental, lam) == expect
            filtration = sorted(
                c.length for c in jordan_chains_triangular(m, lam)
            )
            assert filtration == expect


def test_criterion_06_row_append_merges_exactly_when_coupled_at_eigenvalue():
    rng = random.Random(606)
    lam = sc(1, 2)
    other = sc(1, 3)
    for k in (1, 2, 3, 4):
        for _ in range(5):
            filler = [sc_fraction_pool(rng) for _ in range(k - 1)]
            coupling = Scalar.of(Fraction(rng.randint(1, 5), rng.choice([1, 2])))
            corner = lower_jordan([(lam, k)])

            merged = incremental_jordanize(
                *sparse_lower(append_row(corner, filler + [coupling], lam)), k
            )
            assert block_sizes(merged, lam) == [k + 1]

            no_coupling = incremental_jordanize(
                *sparse_lower(append_row(corner, filler + [ZERO], lam)), k
            )
            assert block_sizes(no_coupling, lam) == [1, k]

            off_diag = incremental_jordanize(
                *sparse_lower(append_row(corner, filler + [coupling], other)), k
            )
            assert block_sizes(off_diag, lam) == [k]
            assert block_sizes(off_diag, other) == [1]

    for n, k in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (1, 4)):
        corner = lower_jordan([(lam, n), (lam, k)])
        coeffs = [ZERO] * (n + k)
        coeffs[n - 1] = ONE
        coeffs[n + k - 1] = ONE
        m = append_row(corner, coeffs, lam)
        result = incremental_jordanize(*sparse_lower(m), n + k)
        assert block_sizes(result, lam) == sorted([n, k + 1])
        assert oracle_block_sizes(m, lam) == sorted([n, k + 1])


def test_criterion_07_power_equation_solutions_for_k_two_and_three():
    jordan_block_map = PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 4)), ((0, 1), ONE)]),
            jet_of(2, 1, [((0, 1), sc(1, 4))]),
        )
    )
    one_var = PolyMap((jet_of(1, 2, [((1,), sc(1, 2)), ((2,), ONE)]),))
    cases = [(_diagonal(), 2), (jordan_block_map, 2), (one_var, 1)]
    for phi, n in cases:
        assert phi.dim == n
        for k in (2, 3):
            sol = solve_power(phi, k, degree=12)
            assert sol.degree == 12
            assert sol.derivative_rank == 0
            assert sol.component_rank == n
            check = verify(phi, sol.components, power=k)
            assert check.passed and check.clean_degree == 12
            assert check.first_failure is None


def test_criterion_08_fifty_nonresonant_spectra_analyze_yes_and_solve():
    rng = random.Random(808)
    for _ in range(50):
        n = rng.randint(1, 3)
        diag = rng.sample(list(NONRESONANT_POOL), n)
        assert truncation_degree(diag) == 1
        phi = random_poly_map(rng, n, diag, 3)
        report = analyze(phi)
        assert report.full_rank is True
        assert report.truncation_degree == 1
        assert all(not r.resonant for r in report.eigenvalues)
        sol = solve(phi, degree=4)
        assert sol.derivative_rank == n
        assert verify(phi, sol.components).passed


def test_criterion_09_coupled_resonance_always_blocks_full_rank():
    rng = random.Random(909)
    lams = [sc(1, 2), sc(1, 3), sc(2, 5)]
    for _ in range(20):
        lam = rng.choice(lams)
        c = Scalar.of(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
        )
        assert not c.is_zero()
        phi = PolyMap(
            (
                jet_of(2, 2, [((1, 0), lam)]),
                jet_of(2, 2, [((0, 1), lam * lam), ((2, 0), c)]),
            )
        )
        report = analyze(phi)
        rec = next(r for r in report.eigenvalues if r.value == lam * lam)
        assert rec.resonant
        assert rec.kernel_dimension == rec.geometric_multiplicity == 1
        assert rec.full_rank_possible is False
        assert report.full_rank is False
        with pytest.raises(NoFullRankError) as info:
            solve(phi)
        assert info.value.report.full_rank is False
        blocked = [
            r.value for r in info.value.report.eigenvalues if not r.full_rank_possible
        ]
        assert blocked == [lam * lam]


def test_criterion_10_cli_contract_on_the_three_examples(tmp_path):
    paths = {}
    for name, doc in (
        ("obstructed", OBSTRUCTED_DOC),
        ("diagonal", DIAGONAL_DOC),
        ("coupled", COUPLED_DOC),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[name] = str(p)

    analyze_codes = {"obstructed": 2, "diagonal": 0, "coupled": 0}
    for name, expect in analyze_codes.items():
        res = run_cli("analyze", paths[name])
        assert res.returncode == expect, res.stderr
        again = run_cli("analyze", paths[name], "--format", "machine")
        twice = run_cli("analyze", paths[name], "--format", "machine")
        assert again.returncode == expect
        assert again.stdout == twice.stdout
        assert json.loads(again.stdout)["kind"] == "analysis"

    assert run_cli("solve", paths["obstructed"]).returncode == 2
    for name in ("diagonal", "coupled"):
        sol_path = str(tmp_path / f"{name}_sol.json")
        res = run_cli(
            "solve", paths[name], "--format", "machine", "--out", sol_path
        )
        assert res.returncode == 0, res.stderr
        check = run_cli("verify", paths[name], sol_path)
        assert check.returncode == 0, check.stderr

    ind_path = str(tmp_path / "obstructed_sol.json")
    res = run_cli(
        "solve",
        paths["obstructed"],
        "--mode",
        "independent",
        "--format",
        "machine",
        "--out",
        ind_path,
    )
    assert res.returncode == 0
    assert run_cli("verify", paths["obstructed"], ind_path).returncode == 0
    assert run_cli("verify", paths["diagonal"], ind_path).returncode == 0

    cross = run_cli("verify", paths["obstructed"], str(tmp_path / "diagonal_sol.json"))
    assert cross.returncode == 2

    for name in ("obstructed", "diagonal", "coupled"):
        power = run_cli(
            "solve-power", paths[name], "--k", "2", "--format", "machine"
        )
        assert power.returncode == 0, power.stderr
        doc = json.loads(power.stdout)
        assert doc["power"] == 2 and doc["derivative_rank"] == 0
        second = run_cli(
            "solve-power", paths[name], "--k", "2", "--format", "machine"
        )
        assert second.stdout == power.stdout

        mat = run_cli("matrix", paths[name], "--format", "machine")
        assert mat.returncode == 0
        mat_again = run_cli("matrix", paths[name], "--format", "machine")
        assert mat.stdout == mat_again.stdout
        assert run_cli("matrix", paths[name]).returncode == 0
