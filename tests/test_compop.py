"""The truncated composition-operator matrix and its truncation degree."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resonance_oracles as oracle
from schroeder.compop import (
    UnsupportedSpectrumError,
    build,
    eigenvalue_products,
    jet_vector,
    resonances,
    truncation_degree,
    vector_jet,
)
from schroeder.engine import detect_resonance
from schroeder.linalg import ExactMatrix, mat_vec
from schroeder.maps import PolyMap, compose, pad_map
from schroeder.scalars import I, Scalar, abs_sq
from schroeder.series import Jet, monomial_count

from conftest import NONRESONANT_POOL, jet_of, random_poly_map, sc


def test_spectrum_rejections():
    for search in (truncation_degree, resonances):
        with pytest.raises(UnsupportedSpectrumError):
            search([sc(1, 2), sc(0)])
        with pytest.raises(UnsupportedSpectrumError):
            search([sc(1, 2), sc(1)])
        with pytest.raises(UnsupportedSpectrumError):
            search([sc(3, 2)])
        with pytest.raises(UnsupportedSpectrumError):
            search([Scalar.of(Fraction(3, 5), Fraction(4, 5))])


def test_truncation_degree_cases():
    assert truncation_degree([sc(1, 2), sc(1, 3)]) == 1
    assert truncation_degree([sc(1, 2), sc(1, 4)]) == 2
    assert truncation_degree([sc(1, 2), sc(1, 4), sc(1, 4), sc(1, 8)]) == 3
    assert truncation_degree([sc(1, 2), sc(1, 8)]) == 3
    assert truncation_degree([sc(1, 2)]) == 1
    assert truncation_degree([Scalar.of(0, Fraction(1, 2))]) == 1
    assert truncation_degree(list(NONRESONANT_POOL)) == 1


def test_truncation_degree_with_signs_and_complex_entries():
    assert truncation_degree([sc(-1, 2), sc(1, 4)]) == 2
    assert truncation_degree([Scalar.of(0, Fraction(1, 2)), sc(-1, 4)]) == 2
    assert truncation_degree([sc(1, 2), sc(-1, 2)]) == 1


def gq(re, im) -> Scalar:
    return Scalar.of(Fraction(re), Fraction(im))


#: Moduli 1/8 to 2/3: negative reals, and Gaussians of equal modulus such as
#: (3+4i)/10, (4+3i)/10 and i/2, whose products i/4 and (-7+24i)/100 occur too.
SMALL = (
    sc(1, 2), sc(-1, 2), sc(1, 3), sc(1, 4), sc(-1, 4), sc(1, 8), sc(2, 3),
    sc(-2, 3), gq(0, "1/2"), gq(0, "-1/2"), gq("3/10", "2/5"), gq("2/5", "3/10"),
    gq("3/10", "-2/5"), gq(0, "1/4"), gq("-7/100", "6/25"),
)
#: Moduli 81/100 to 99/100, Gaussians among them.
NEAR = (
    sc(99, 100), sc(-99, 100), sc(9, 10), sc(-9, 10), sc(81, 100), sc(891, 1000),
    gq("297/500", "99/125"), gq("99/125", "297/500"), gq("18/25", "27/50"), gq(0, "9/10"),
)


@st.composite
def spectra(draw):
    """1-4 eigenvalues, often with repeats, and up to two appended products.

    Each appended eigenvalue is the product of two earlier ones, so chains
    such as 1/2, 1/4, 1/8 give resonances of several degrees.  Only spectra
    whose brute-force search space has at most 1500 exponents are kept, so
    that the oracle stays fast.
    """
    band = draw(st.sampled_from(["small", "near", "mixed"]))
    if band == "mixed":
        halves = [x for x in SMALL if abs_sq(x) >= Fraction(1, 4)]
        diag = [draw(st.sampled_from(NEAR)), draw(st.sampled_from(halves))]
    else:
        pool = SMALL if band == "small" else NEAR
        extra = draw(st.integers(0, 2))
        diag = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4 - extra))
        for _ in range(extra):
            i, j = draw(st.lists(st.sampled_from(range(len(diag))), min_size=2, max_size=2))
            diag.append(diag[i] * diag[j])
    diag = draw(st.permutations(diag))
    assume(monomial_count(len(diag), oracle.search_bound(diag)) <= 1500)
    return diag


@settings(max_examples=60, deadline=None)
@given(spectra(), st.integers(0, 2**16))
def test_resonance_search_matches_brute_force(diag, seed):
    want = oracle.resonances(diag)
    assert resonances(diag) == want
    assert truncation_degree(diag) == oracle.truncation_degree(diag)
    phi = random_poly_map(random.Random(seed), len(diag), diag, 2)
    assert detect_resonance(phi) == want


def test_truncation_degree_on_the_pruning_boundary():
    # (9/10)^30 is the smallest eigenvalue, so the branch that reaches the
    # resonance has exactly the prune bound for its squared modulus.
    lam = sc(9, 10)
    diag = [lam, lam**30]
    assert resonances(diag) == oracle.resonances(diag) == [((30, 0), lam**30)]
    assert truncation_degree(diag) == 30


def test_resonance_search_multiplies_once_per_admissible_exponent(monkeypatch):
    # The brute force powers about 241k products for this spectrum; the
    # pruned search forms lambda^alpha once for each alpha = (a, 0) with
    # (999/1000)^(2a) >= 1/4, that is for 2 <= a <= 692.
    calls = []
    mul = Scalar.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    assert truncation_degree([sc(999, 1000), sc(1, 2)]) == 1
    assert len(calls) <= 700


def test_eigenvalue_products_order_and_values():
    prods = dict(eigenvalue_products([sc(1, 2), sc(1, 4)], 2, 2))
    assert prods[(2, 0)] == sc(1, 4)
    assert prods[(1, 1)] == sc(1, 8)
    assert prods[(0, 2)] == sc(1, 16)


def test_build_rejects_bad_maps():
    lower = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((1, 0), sc(1)), ((0, 1), sc(1, 3))]),
        )
    )
    with pytest.raises(ValueError):
        build(lower)


def test_operator_shape_and_diagonal(obstructed_map):
    op = build(obstructed_map)
    assert op.degree == 2
    assert op.size == monomial_count(2, 2) == 5
    assert op.basis == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert op.diagonal() == (
        sc(1, 2),
        sc(1, 4),
        sc(1, 4),
        sc(1, 8),
        sc(1, 16),
    )
    assert op.matrix.is_lower_triangular()
    assert op.matrix.corner(2) == obstructed_map.linear_part().transpose()


def test_operator_entries_quadratic_coupling(obstructed_map):
    op = build(obstructed_map)
    row = op.index[(2, 0)]
    col = op.index[(0, 1)]
    assert op.matrix.at(row, col) == sc(1, 16)
    dense = [
        [sc(1, 2), 0, 0, 0, 0],
        [0, sc(1, 4), 0, 0, 0],
        [0, sc(1, 16), sc(1, 4), 0, 0],
        [0, 0, 0, sc(1, 8), 0],
        [0, 0, 0, 0, sc(1, 16)],
    ]
    expect = ExactMatrix.from_rows(
        [[x if isinstance(x, Scalar) else sc(0) for x in r] for r in dense]
    )
    assert op.matrix == expect


def test_operator_entries_four_variable_coupling(coupled_map):
    op = build(coupled_map)
    assert op.degree == 3
    assert op.size == monomial_count(4, 3) == 34
    e2 = (0, 1, 0, 0)
    z1sq = (2, 0, 0, 0)
    z3 = (0, 0, 1, 0)
    z1z3 = (1, 0, 1, 0)
    z1z2 = (1, 1, 0, 0)
    assert op.matrix.at(op.index[z1sq], op.index[e2]) == sc(1, 8)
    assert op.matrix.at(op.index[z3], op.index[e2]) == sc(1, 8)
    assert op.matrix.at(op.index[z1z3], op.index[z1z2]) == sc(1, 16)
    assert op.matrix.at(op.index[z1z3], op.index[z1z3]) == sc(1, 8)
    assert op.matrix.corner(4) == coupled_map.linear_part().transpose()


def test_operator_diagonal_law():
    rng = random.Random(53)
    diag = [sc(1, 2), sc(1, 4)]
    phi = random_poly_map(rng, 2, diag, 3)
    op = build(phi, 3)
    for alpha in op.basis:
        expect = diag[0] ** alpha[0] * diag[1] ** alpha[1]
        assert op.matrix.at(op.index[alpha], op.index[alpha]) == expect


def test_operator_action_is_composition():
    rng = random.Random(59)
    for _ in range(8):
        diag = [rng.choice(NONRESONANT_POOL) for _ in range(2)]
        phi = random_poly_map(rng, 2, diag, 4)
        op = build(phi, 4)
        f = Jet.build(
            2,
            4,
            [
                (alpha, sc(rng.randint(-3, 3), rng.choice([1, 2, 3])))
                for alpha in op.basis
            ],
        )
        via_matrix = vector_jet(op, mat_vec(op.matrix, jet_vector(op, f)))
        direct = compose(f, pad_map(op.source, 4))
        assert via_matrix == direct


def test_vector_jet_round_trip(diagonal_map):
    op = build(diagonal_map, 3)
    f = jet_of(2, 3, [((1, 0), sc(2)), ((1, 1), I), ((0, 3), sc(-1, 7))])
    assert vector_jet(op, jet_vector(op, f)) == f
    with pytest.raises(ValueError):
        vector_jet(op, (sc(1),))


def test_build_degree_override(diagonal_map):
    phi = PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 2))]),
            jet_of(2, 1, [((0, 1), sc(1, 3))]),
        )
    )
    op = build(phi, 4)
    assert op.degree == 4
    with pytest.raises(ValueError):
        build(diagonal_map, 1)
