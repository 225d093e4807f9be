"""Polynomial maps, composition, and conjugation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from schroeder.linalg import ExactMatrix, inverse, mat_mul
from schroeder.maps import (
    PolyMap,
    compose,
    conjugate_map,
    map_compose,
    matrix_apply,
    matrix_map,
    monomial_power,
)
from schroeder.scalars import ONE, Scalar
from schroeder.series import Jet

from conftest import jet_of, random_poly_map, sc, sc_fraction_pool


def test_polymap_validation():
    with pytest.raises(ValueError):
        PolyMap(())
    with pytest.raises(ValueError):
        PolyMap((Jet.monomial(2, 2, (1, 0)), Jet.monomial(2, 3, (0, 1))))
    with pytest.raises(ValueError):
        PolyMap((Jet.build(2, 2, [((0, 0), ONE)]), Jet.monomial(2, 2, (0, 1))))


def test_linear_part_and_is_linear(obstructed_map, diagonal_map):
    m = obstructed_map.linear_part()
    assert m.at(0, 0) == sc(1, 2)
    assert m.at(1, 1) == sc(1, 4)
    assert m.at(0, 1).is_zero() and m.at(1, 0).is_zero()
    assert max(sum(a) for c in obstructed_map.components for a in c.coeffs) == 2
    assert max(sum(a) for c in diagonal_map.components for a in c.coeffs) == 1


def test_identity_and_matrix_map_round_trip():
    rng = random.Random(3)
    n = 3
    ident = matrix_map(ExactMatrix.identity(n), 4)
    phi = random_poly_map(rng, n, [sc(1, 2), sc(1, 3), sc(2, 5)], 4)
    assert map_compose(phi, ident) == phi
    assert map_compose(ident, phi) == phi

    a = ExactMatrix.from_rows(
        [[sc_fraction_pool(rng) for _ in range(n)] for _ in range(n)]
    )
    b = ExactMatrix.from_rows(
        [[sc_fraction_pool(rng) for _ in range(n)] for _ in range(n)]
    )
    assert map_compose(matrix_map(a, 3), matrix_map(b, 3)) == matrix_map(mat_mul(a, b), 3)


def test_monomial_power_matches_direct_product(obstructed_map):
    phi = obstructed_map.truncate(4)
    memo = {}
    p = monomial_power(phi, (2, 1), memo)
    direct = phi.component(0) * phi.component(0) * phi.component(1)
    assert p == direct
    assert (2, 1) in memo and (1, 1) in memo


def test_monomial_power_walks_down_without_recursion():
    # A fresh memo and a degree far past the recursion limit.
    phi = PolyMap((jet_of(1, 1000, [((1,), sc(1, 2))]),))
    coeff = Scalar.of(Fraction(1, 2**1000))
    assert monomial_power(phi, (1000,)) == Jet.monomial(1, 1000, (1000,), coeff)
    # phi^alpha = phi^(alpha - e_i) * phi_i with i the first nonzero index,
    # and every power on the way is memoized.
    memo = {}
    monomial_power(phi.truncate(3), (3,), memo)
    assert sorted(memo) == [(1,), (2,), (3,)]
    memo = {}
    monomial_power(PolyMap((Jet.monomial(2, 4, (1, 0)),) * 2), (2, 1), memo)
    assert sorted(memo) == [(0, 1), (1, 1), (2, 1)]


def test_compose_single_variable_chain_rule():
    phi = PolyMap((jet_of(1, 5, [((1,), sc(1, 2)), ((2,), sc(1))]),))
    f = jet_of(1, 5, [((1,), sc(1)), ((3,), sc(2))])
    g = compose(f, phi)
    expect = phi.component(0) + (
        phi.component(0) * phi.component(0) * phi.component(0)
    ).scale(sc(2))
    assert g == expect


def test_compose_linearity_in_f():
    rng = random.Random(11)
    phi = random_poly_map(rng, 2, [sc(1, 2), sc(1, 3)], 4)
    f = Jet.build(
        2, 4, [(a, sc_fraction_pool(rng)) for a in [(1, 0), (2, 0), (1, 1)]]
    )
    g = Jet.build(
        2, 4, [(a, sc_fraction_pool(rng)) for a in [(0, 1), (0, 2), (2, 1)]]
    )
    assert compose(f + g, phi) == compose(f, phi) + compose(g, phi)
    assert compose(f.scale(sc(3)), phi) == compose(f, phi).scale(sc(3))


def test_compose_associativity_on_maps():
    rng = random.Random(19)
    f = random_poly_map(rng, 2, [sc(1, 2), sc(1, 4)], 3)
    g = random_poly_map(rng, 2, [sc(1, 3), sc(1, 5)], 3)
    h = random_poly_map(rng, 2, [sc(2, 5), sc(1, 7)], 3)
    assert map_compose(map_compose(f, g), h) == map_compose(f, map_compose(g, h))


def test_composition_linear_part_is_product():
    rng = random.Random(23)
    f = random_poly_map(rng, 3, [sc(1, 2), sc(1, 3), sc(1, 5)], 3)
    g = random_poly_map(rng, 3, [sc(2, 7), sc(3, 8), sc(1, 4)], 3)
    assert map_compose(f, g).linear_part() == mat_mul(f.linear_part(), g.linear_part())


def test_matrix_apply_matches_composition():
    rng = random.Random(29)
    phi = random_poly_map(rng, 2, [sc(1, 2), sc(1, 3)], 3)
    m = ExactMatrix.from_rows([[sc(2), sc(-1)], [sc(0), sc(1, 2)]])
    assert matrix_apply(m, phi) == map_compose(matrix_map(m, 3), phi)


def test_conjugation_round_trip_and_linear_part():
    rng = random.Random(31)
    phi = random_poly_map(rng, 2, [sc(1, 2), sc(1, 3)], 4)
    d = ExactMatrix.from_rows([[sc(1), sc(0)], [sc(1), sc(1)]])
    psi = conjugate_map(phi, d)
    assert psi.linear_part() == mat_mul(mat_mul(d, phi.linear_part()), inverse(d))
    assert conjugate_map(psi, inverse(d)) == phi


def test_truncation_commutes_with_composition():
    rng = random.Random(37)
    f = random_poly_map(rng, 2, [sc(1, 2), sc(1, 4)], 5)
    g = random_poly_map(rng, 2, [sc(1, 3), sc(2, 5)], 5)
    full = map_compose(f, g).truncate(3)
    low = map_compose(f.truncate(3), g.truncate(3))
    assert full == low
