"""End-to-end solving and verification of the linearization equation."""

from __future__ import annotations

import random

import pytest

from schroeder import compop, engine, linalg
from schroeder.engine import (
    DEFAULT_DEGREE,
    InvalidMapError,
    NoFullRankError,
    analyze,
    detect_resonance,
    solve,
    solve_power,
    truncated_operator,
    verify,
)
from schroeder.linalg import ExactMatrix, rank
from schroeder.maps import PolyMap, conjugate_map, pad_map
from schroeder.scalars import ONE, ZERO
from schroeder.series import Jet

from conftest import (
    NONRESONANT_POOL,
    jet_of,
    koenigs_oracle,
    random_poly_map,
    sc,
)


def one_var_map(coeffs, degree):
    """coeffs[m] is the z^m coefficient (index 0 ignored, must be absent)."""
    return PolyMap(
        (jet_of(1, degree, [((m,), c) for m, c in coeffs.items()]),)
    )


def test_validate_rejects_non_self_map_and_non_triangular():
    non_self = PolyMap((jet_of(2, 2, [((1, 0), sc(1, 2))]),))
    with pytest.raises(InvalidMapError):
        analyze(non_self)
    full = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 4)), ((0, 1), sc(1, 8))]),
            jet_of(2, 2, [((1, 0), sc(1, 8)), ((0, 1), sc(1, 4))]),
        )
    )
    with pytest.raises(InvalidMapError):
        analyze(full)


def test_detect_resonance(obstructed_map, diagonal_map):
    hits = detect_resonance(obstructed_map)
    assert hits == [((2, 0), sc(1, 4))]
    assert detect_resonance(diagonal_map) == [((2, 0), sc(1, 4))]
    clean = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((0, 1), sc(1, 3))]),
        )
    )
    assert detect_resonance(clean) == []


def test_analyze_obstructed(obstructed_map):
    report = analyze(obstructed_map)
    assert report.dimension == 2
    assert report.truncation_degree == 2
    assert report.basis_size == 5
    assert not report.full_rank
    by_value = {r.value: r for r in report.eigenvalues}
    assert set(by_value) == {sc(1, 2), sc(1, 4)}
    bad = by_value[sc(1, 4)]
    assert bad.resonant and bad.witnesses == ((2, 0),)
    assert bad.geometric_multiplicity == 1
    assert bad.kernel_dimension == 1
    assert bad.projected_dimension == 0
    assert not bad.full_rank_possible
    good = by_value[sc(1, 2)]
    assert good.full_rank_possible and not good.resonant


def test_analyze_diagonal_resonance_without_coupling(diagonal_map):
    report = analyze(diagonal_map)
    assert report.full_rank
    by_value = {r.value: r for r in report.eigenvalues}
    rec = by_value[sc(1, 4)]
    assert rec.resonant
    assert rec.geometric_multiplicity == 1
    assert rec.kernel_dimension == 2
    assert rec.projected_dimension == 1


def test_analyze_coupled_four_variables(coupled_map):
    report = analyze(coupled_map)
    assert report.full_rank
    assert report.truncation_degree == 3
    assert report.basis_size == 34
    by_value = {r.value: r for r in report.eigenvalues}
    assert by_value[sc(1, 2)].kernel_dimension == 1
    quarter = by_value[sc(1, 4)]
    assert (
        quarter.geometric_multiplicity,
        quarter.kernel_dimension,
        quarter.projected_dimension,
    ) == (1, 2, 1)
    eighth = by_value[sc(1, 8)]
    assert (
        eighth.geometric_multiplicity,
        eighth.kernel_dimension,
        eighth.projected_dimension,
    ) == (1, 3, 1)


def test_one_truncation_degree_search_per_call(coupled_map, monkeypatch):
    calls = []
    search = compop.truncation_degree

    def counted(diag):
        calls.append(diag)
        return search(diag)

    # engine holds its own name for the search; count through both.
    monkeypatch.setattr(compop, "truncation_degree", counted)
    monkeypatch.setattr(engine, "truncation_degree", counted)
    for run in (
        lambda: analyze(coupled_map),
        lambda: truncated_operator(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
        lambda: compop.build(coupled_map),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_one_resonance_search_per_call(coupled_map, monkeypatch):
    calls = []
    search = compop.resonances

    def counted(diag):
        calls.append(diag)
        return search(diag)

    monkeypatch.setattr(compop, "resonances", counted)
    monkeypatch.setattr(engine, "resonances", counted)
    for run in (
        lambda: analyze(coupled_map),
        lambda: detect_resonance(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_eigenvalue_near_one_is_answered():
    # phi(z) = (999/1000 z1, z2/2 + z1^2/3): no product lambda^alpha with
    # |alpha| >= 2 is an eigenvalue, yet the brute force walked 241k exponents.
    phi = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(999, 1000))]),
            jet_of(2, 2, [((0, 1), sc(1, 2)), ((2, 0), sc(1, 3))]),
        )
    )
    report = analyze(phi)
    assert report.truncation_degree == 1
    assert report.full_rank
    assert detect_resonance(phi) == []


def diagonal_family(ds):
    """lambda_i = 1/d_i, with z1^2/3 added to components 2..n."""
    n = len(ds)
    square = (2,) + (0,) * (n - 1)
    return PolyMap(
        tuple(
            jet_of(
                n,
                2,
                [(tuple(int(t == i) for t in range(n)), sc(1, d))]
                + ([(square, sc(1, 3))] if i else []),
            )
            for i, d in enumerate(ds)
        )
    )


@pytest.mark.parametrize("ds, size", [((2, 4, 8, 64), 209), ((2, 4, 8, 256), 494)])
def test_analyze_large_diagonal_family(ds, size):
    report = analyze(diagonal_family(ds))
    assert report.basis_size == size
    assert [(r.kernel_dimension, r.projected_dimension) for r in report.eigenvalues] == [
        (1, 1),
        (1, 0),
        (2, 1),
        (4, 1),
    ]
    assert report.full_rank is False


def test_operator_is_never_eliminated_densely(coupled_map, monkeypatch):
    """Only n-sized blocks reach `_rref` or `shift`; the N x N operator never does."""
    n = coupled_map.dim
    size = truncated_operator(coupled_map).size
    assert size > n
    eliminated, shifted = [], []
    rref, shift = linalg._rref, ExactMatrix.shift

    def counted_rref(rows):
        eliminated.append((len(rows), len(rows[0]) if rows else 0))
        return rref(rows)

    def counted_shift(m, lam):
        shifted.append(m.rows)
        return shift(m, lam)

    monkeypatch.setattr(linalg, "_rref", counted_rref)
    monkeypatch.setattr(ExactMatrix, "shift", counted_shift)
    for run in (
        lambda: analyze(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
    ):
        eliminated.clear()
        shifted.clear()
        run()
        assert eliminated and all(min(shape) <= n for shape in eliminated)
        assert all(rows <= n for rows in shifted)


def test_truncated_operator_diagonal(diagonal_map):
    op = truncated_operator(diagonal_map)
    assert op.matrix == ExactMatrix.diagonal(
        [sc(1, 2), sc(1, 4), sc(1, 4), sc(1, 8), sc(1, 16)]
    )


def test_solve_full_rank_raises_on_obstruction(obstructed_map):
    with pytest.raises(NoFullRankError) as info:
        solve(obstructed_map)
    assert info.value.report.full_rank is False
    assert "1/4" in str(info.value)


def test_solve_independent_on_obstructed(obstructed_map):
    sol = solve(obstructed_map, mode="independent")
    assert sol.degree == DEFAULT_DEGREE
    assert sol.derivative_rank == 1
    assert sol.component_rank == 2
    f1, f2 = sol.components.components
    assert f1 == Jet.monomial(2, sol.degree, (1, 0))
    assert f2.coefficient((0, 1)).is_zero()
    c = f2.coefficient((2, 0))
    assert not c.is_zero()
    assert f2 == Jet.monomial(2, sol.degree, (2, 0), c)
    check = verify(obstructed_map, sol.components)
    assert check.passed and check.first_failure is None


def test_solve_full_rank_diagonal(diagonal_map):
    sol = solve(diagonal_map)
    assert sol.full_rank
    assert sol.derivative_rank == 2
    d = sol.components.linear_part()
    assert rank(d) == 2
    assert d.at(0, 1).is_zero() and d.at(1, 0).is_zero()
    check = verify(diagonal_map, sol.components)
    assert check.passed and check.clean_degree == sol.degree


def test_solve_coupled_map_matches_chain_structure(coupled_map):
    sol = solve(coupled_map, degree=10)
    assert sol.full_rank and sol.derivative_rank == 4
    check = verify(coupled_map, sol.components)
    assert check.passed and check.clean_degree == 10
    f3 = sol.components.component(2)
    ratio = f3.coefficient((0, 0, 1, 0))
    assert not ratio.is_zero()
    assert f3.coefficient((2, 0, 0, 0)) == ratio
    assert f3 == Jet.build(
        4, sol.degree, [((0, 0, 1, 0), ratio), ((2, 0, 0, 0), ratio)]
    )
    info3 = sol.component_info[2]
    assert info3.eigenvalue == sc(1, 4)
    assert info3.block_size == 2 and info3.position == 2
    info2 = sol.component_info[1]
    assert info2.block == info3.block and info2.position == 1


def test_chained_components_scale_jointly(coupled_map):
    sol = solve(coupled_map, degree=6)
    comps = list(sol.components.components)
    scale = sc(1, 8)

    def scaled(indices):
        return PolyMap(
            tuple(
                c.scale(scale) if i in indices else c
                for i, c in enumerate(comps)
            )
        )

    assert verify(coupled_map, scaled({2})).first_failure is not None
    assert verify(coupled_map, scaled({1, 2})).passed
    assert verify(coupled_map, scaled({1})).first_failure is not None


def test_solve_matches_classical_one_variable_recursion():
    phi = one_var_map({1: sc(1, 2), 2: sc(1), 4: sc(-1, 3)}, 4)
    degree = 9
    sol = solve(phi, degree=degree)
    assert sol.full_rank
    coeffs = koenigs_oracle(
        [ZERO, sc(1, 2), sc(1), ZERO, sc(-1, 3)], degree
    )
    f = sol.components.component(0)
    lead = f.coefficient((1,))
    assert not lead.is_zero()
    for m in range(1, degree + 1):
        assert f.coefficient((m,)) == coeffs[m] * lead


def test_solutions_scale_by_derivative_normalization():
    phi = one_var_map({1: sc(2, 5), 3: sc(1, 2)}, 3)
    sol = solve(phi, degree=7)
    g = sol.components.component(0)
    lead = g.coefficient((1,))
    normalized = g.scale(ONE / lead)
    coeffs = koenigs_oracle([ZERO, sc(2, 5), ZERO, sc(1, 2)], 7)
    for m in range(1, 8):
        assert normalized.coefficient((m,)) == coeffs[m]


def test_solve_respects_requested_degree(diagonal_map):
    assert solve(diagonal_map, degree=4).degree == 4
    assert solve(diagonal_map).degree == DEFAULT_DEGREE
    assert solve(diagonal_map, degree=1).degree == 2


def test_random_nonresonant_maps_solve_and_verify():
    rng = random.Random(61)
    for _ in range(8):
        n = rng.randint(1, 3)
        diag = rng.sample(list(NONRESONANT_POOL), n)
        phi = random_poly_map(rng, n, diag, 3)
        report = analyze(phi)
        assert report.full_rank and report.truncation_degree == 1
        sol = solve(phi, degree=6)
        assert sol.derivative_rank == n
        check = verify(phi, sol.components)
        assert check.passed and check.clean_degree == 6


def test_random_resonant_maps_solve_independent():
    rng = random.Random(67)
    diag = [sc(1, 2), sc(1, 4)]
    for _ in range(5):
        phi = random_poly_map(rng, 2, diag, 3)
        sol = solve(phi, degree=6, mode="independent")
        assert sol.component_rank == 2
        assert verify(phi, sol.components).passed


def test_solve_transport_under_conjugation():
    rng = random.Random(71)
    phi0 = random_poly_map(
        rng, 2, [sc(1, 2), sc(1, 3)], 6, upper_density=0.0
    )
    d = ExactMatrix.from_rows([[sc(1), ZERO], [sc(2), sc(1)]])
    rotated = conjugate_map(phi0, d)
    assert rotated.linear_part().is_lower_triangular()
    assert not rotated.linear_part().is_upper_triangular()
    sol = solve(rotated, degree=6)
    assert sol.full_rank
    check = verify(rotated, sol.components)
    assert check.passed and check.clean_degree == 6


def test_verify_reports_first_failure_in_monomial_order(diagonal_map):
    broken = PolyMap(
        (
            jet_of(2, 3, [((1, 0), ONE), ((0, 2), sc(1))]),
            jet_of(2, 3, [((0, 1), ONE)]),
        )
    )
    report = verify(diagonal_map, broken)
    assert not report.passed
    comp, alpha, value = report.first_failure
    assert comp == 0 and alpha == (0, 2)
    assert value == sc(1, 16) - sc(1, 2)
    assert report.clean_degree == 1


def test_verify_power_argument(diagonal_map):
    sol = solve_power(pad_map(diagonal_map, 2), 2, degree=6)
    assert sol.power == 2
    check = verify(diagonal_map, sol.components, power=2)
    assert check.passed
    assert not verify(diagonal_map, sol.components, power=1).passed


def test_solve_power_one_variable_is_kth_power_of_base():
    phi = one_var_map({1: sc(1, 3), 2: sc(1, 2)}, 2)
    base = solve(phi, degree=8, mode="independent")
    for k in (2, 3):
        sol = solve_power(phi, k, degree=8)
        assert sol.derivative_rank == 0
        assert sol.component_rank == 1
        f = base.components.component(0)
        expect = f
        for _ in range(k - 1):
            expect = expect * f
        assert sol.components.component(0) == expect
        assert verify(phi, sol.components, power=k).passed


def test_solve_power_diagonal_is_componentwise_power(diagonal_map):
    base = solve(diagonal_map, degree=6)
    sol = solve_power(pad_map(diagonal_map, 2), 2, degree=6)
    for i in range(2):
        f = base.components.component(i)
        assert sol.components.component(i) == f * f
    assert verify(diagonal_map, sol.components, power=2).passed


def test_solve_power_on_jordan_block_linear_map():
    phi = PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 4)), ((0, 1), ONE)]),
            jet_of(2, 1, [((0, 1), sc(1, 4))]),
        )
    )
    for k in (2, 3):
        sol = solve_power(phi, k, degree=8)
        assert sol.derivative_rank == 0
        assert sol.component_rank == 2
        check = verify(phi, sol.components, power=k)
        assert check.passed and check.clean_degree == 8


def test_solve_power_coupled_map(coupled_map):
    sol = solve_power(coupled_map, 2, degree=8)
    assert sol.derivative_rank == 0
    assert sol.component_rank == 4
    assert verify(coupled_map, sol.components, power=2).passed


def test_solve_power_one_delegates(obstructed_map):
    sol = solve_power(obstructed_map, 1, degree=5)
    assert sol.power == 1
    assert sol.derivative_rank == 1
    assert verify(obstructed_map, sol.components).passed


def test_solve_power_rejects_bad_power(diagonal_map):
    with pytest.raises(ValueError):
        solve_power(diagonal_map, 0)
