"""The truncated composition-operator matrix and its truncation degree."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resonance_oracles as oracle
from compop_oracles import dense_operator
from schroeder import compop, engine, maps
from schroeder.compop import (
    UnsupportedSpectrumError,
    build,
    eigenvalue_products,
    jet_vector,
    resonances,
    truncation_degree,
    vector_jet,
)
from schroeder.engine import analyze, detect_resonance, solve, truncated_operator
from schroeder.linalg import ExactMatrix, mat_vec
from schroeder.maps import PolyMap, PowerTable, compose
from schroeder.scalars import I, Scalar
from schroeder.series import Jet, monomial_count

from conftest import NONRESONANT_POOL, jet_of, operator_at_k, random_poly_map, sc, sparse_vector


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
        halves = [x for x in SMALL if x.abs_sq() >= Fraction(1, 4)]
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
    # lam^k is the smallest eigenvalue, so the branch that reaches the
    # resonance has exactly the prune bound for its squared modulus.  The
    # search reads |(3+4i)/10|^2 as (a^2 + b^2, d^2) = (25, 100), not in
    # lowest terms.
    for lam, k in [(sc(9, 10), 30), (gq("3/10", "2/5"), 12)]:
        diag = [lam, lam**k]
        assert resonances(diag) == oracle.resonances(diag) == [((k, 0), lam**k)]
        assert truncation_degree(diag) == k


def count_products(monkeypatch):
    """A list that gains one entry per `Scalar.__mul__` call from now on."""
    calls = []
    mul = Scalar.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    return calls


def test_resonance_search_multiplies_once_per_admissible_exponent(monkeypatch):
    # 999/1000 owns the primes 3 and 37 of its squared modulus, so it is in
    # no resonance and the search forms no product.  In the second spectrum
    # every prime is shared (999/2000 = 999/1000 * 1/2), and the brute force
    # would power millions of products; the pruned search forms lambda^alpha
    # once per admissible alpha, 693 here, all but one of them (a, 0, 0)
    # with (999/1000)^(2a) >= |999/2000|^2.
    calls = count_products(monkeypatch)
    assert truncation_degree([sc(999, 1000), sc(1, 2)]) == 1
    assert calls == []
    assert truncation_degree([sc(999, 1000), sc(1, 2), sc(999, 2000)]) == 2
    assert len(calls) <= 700


def test_near_one_spectrum_forms_almost_no_product(monkeypatch):
    # 999/1000 owns 3 and 37, 998/1000 = 499/500 owns 499; only 1/2 is
    # left, and its square already falls below the prune bound.
    near_one = [sc(999, 1000), sc(998, 1000), sc(1, 2)]
    phi = PolyMap(
        tuple(jet_of(3, 1, [(tuple(int(j == i) for j in range(3)), lam)])
              for i, lam in enumerate(near_one))
    )
    calls = count_products(monkeypatch)
    assert truncation_degree(near_one) == 1
    assert len(calls) <= 3
    assert detect_resonance(phi) == []


def test_shared_prime_of_a_reduced_modulus_keeps_a_conjugate_pair():
    # |(3 +- 4i)/10|^2 = 25/100 = 1/4: the pair shares 5 before reduction
    # and only 2 after, as 1/4 does, so all three take part.
    diag = [gq("3/10", "2/5"), gq("3/10", "-2/5"), sc(1, 4)]
    assert resonances(diag) == oracle.resonances(diag) == [((1, 1, 0), sc(1, 4))]


def test_mixed_spectrum_matches_brute_force():
    # 1/3 owns 3 and 2/7 owns 7; the rest resonate among themselves.
    diag = [
        sc(1, 2), sc(1, 3), gq("3/10", "2/5"), sc(2, 7), sc(1, 4), gq("-7/100", "6/25"), sc(1, 8)
    ]
    found = resonances(diag)
    assert found == oracle.resonances(diag)
    assert len(found) == 4
    assert all(alpha[1] == alpha[3] == 0 for alpha, _ in found)
    assert truncation_degree(diag) == oracle.truncation_degree(diag) == 3


def test_eigenvalue_products_order_and_values():
    prods = eigenvalue_products([sc(1, 2), sc(1, 4)], 2)
    # The powers of single eigenvalues, by eigenvalue then exponent, and nothing more.
    assert list(prods.items()) == [
        ((1, 0), sc(1, 2)), ((2, 0), sc(1, 4)), ((0, 1), sc(1, 4)), ((0, 2), sc(1, 16))
    ]
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
        operator_at_k(lower)


def test_operator_shape_and_diagonal(obstructed_map):
    op = operator_at_k(obstructed_map)
    assert op.degree == 2
    assert op.size == monomial_count(2, 2) == 5
    assert op.basis == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert op.diag == (
        sc(1, 2),
        sc(1, 4),
        sc(1, 4),
        sc(1, 8),
        sc(1, 16),
    )
    assert op.matrix.is_lower_triangular()
    top = ExactMatrix.from_rows([row[:2] for row in op.matrix.entries[:2]])
    assert top == obstructed_map.linear_part().transpose()


def test_operator_entries_quadratic_coupling(obstructed_map):
    op = operator_at_k(obstructed_map)
    row = op.basis.index((2, 0))
    col = op.basis.index((0, 1))
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
    op = operator_at_k(coupled_map)
    assert op.degree == 3
    assert op.size == monomial_count(4, 3) == 34
    e2 = (0, 1, 0, 0)
    z1sq = (2, 0, 0, 0)
    z3 = (0, 0, 1, 0)
    z1z3 = (1, 0, 1, 0)
    z1z2 = (1, 1, 0, 0)
    assert op.matrix.at(op.basis.index(z1sq), op.basis.index(e2)) == sc(1, 8)
    assert op.matrix.at(op.basis.index(z3), op.basis.index(e2)) == sc(1, 8)
    assert op.matrix.at(op.basis.index(z1z3), op.basis.index(z1z2)) == sc(1, 16)
    assert op.matrix.at(op.basis.index(z1z3), op.basis.index(z1z3)) == sc(1, 8)
    top = ExactMatrix.from_rows([row[:4] for row in op.matrix.entries[:4]])
    assert top == coupled_map.linear_part().transpose()


def _jordan_block_map(rng, dim, degree, gaussian):
    """A random map whose derivative is one upper Jordan block."""
    lam = rng.choice(NONRESONANT_POOL)
    phi = random_poly_map(rng, dim, [lam] * dim, degree, upper_density=0, gaussian=gaussian)
    comps = []
    for i, c in enumerate(phi.components):
        if i + 1 < dim:
            unit = tuple(int(t == i + 1) for t in range(dim))
            c = c + Jet.monomial(dim, degree, unit)
        comps.append(c)
    return PolyMap(tuple(comps))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["diagonal", "jordan", "triangular"]),
    st.booleans(),
)
def test_sparse_build_matches_dense_oracle(seed, dim, k, linear, gaussian):
    rng = random.Random(seed)
    degree = rng.randint(1, 3)
    if linear == "jordan":
        phi = _jordan_block_map(rng, dim, degree, gaussian)
    else:
        diag = [rng.choice(NONRESONANT_POOL) for _ in range(dim)]
        density = 0 if linear == "diagonal" else 0.6
        phi = random_poly_map(
            rng, dim, diag, degree, upper_density=density, gaussian=gaussian
        )
    op = build(phi, k)
    basis, matrix = dense_operator(phi, k)
    assert op.basis == basis
    assert op.matrix == matrix
    assert op.diag == matrix.diagonal_entries()
    assert all(j < i for i, row in enumerate(op.lower) for j, _ in row)
    assert all(a < b for row in op.lower for (a, _), (b, _) in zip(row, row[1:]))
    assert all(not x.is_zero() for row in op.lower for _, x in row)


@pytest.mark.parametrize("gaussian", [False, True])
def test_build_skips_a_cancelled_power_coefficient(gaussian):
    """phi = (l1 z1 + z1^2, l2 z2 + q z1 z2) with q = -l2 / l1: the z1^2 z2
    coefficient of phi1 * phi2, l1 q + l2, cancels inside the packed power."""
    l1 = gq(0, "1/2") if gaussian else sc(1, 2)
    l2 = sc(1, 3)
    q = -(l2 / l1)
    phi = PolyMap(
        (
            jet_of(2, 3, [((1, 0), l1), ((2, 0), sc(1))]),
            jet_of(2, 3, [((0, 1), l2), ((1, 1), q)]),
        )
    )
    table = PowerTable(phi)
    zero = (0, 0) if gaussian else 0
    assert table.power((1, 1))[3][table.encode((2, 1))] == zero
    op = build(phi, 3)
    basis, matrix = dense_operator(phi, 3)
    assert op.matrix == matrix
    assert op.matrix.at(basis.index((2, 1)), basis.index((1, 1))).is_zero()
    assert all(not x.is_zero() for row in op.lower for _, x in row)
    assert all(a < b for row in op.lower for (a, _), (b, _) in zip(row, row[1:]))


def test_build_at_degree_one_reads_only_the_components(record_calls):
    """At K = 1 every column is a component; the quadratic terms are cut."""
    tables = record_calls("PowerTable", compop)
    phi = PolyMap(
        (
            jet_of(3, 2, [((1, 0, 0), sc(1, 2)), ((0, 1, 0), sc(1, 3)), ((2, 0, 0), sc(1))]),
            jet_of(3, 2, [((0, 1, 0), gq(0, "1/4")), ((0, 0, 1), sc(-1, 5))]),
            jet_of(3, 2, [((0, 0, 1), sc(1, 6)), ((1, 1, 0), sc(2))]),
        )
    )
    op = build(phi, 1)
    basis, matrix = dense_operator(phi, 1)
    assert (op.basis, op.matrix) == (basis, matrix)
    assert op.diag == (sc(1, 2), gq(0, "1/4"), sc(1, 6))
    assert op.lower == ((), ((0, sc(1, 3)),), ((1, sc(-1, 5)),))
    assert op.source == phi.truncate(1)
    assert tables == []
    build(phi, 2)
    assert len(tables) == 1


def test_build_never_calls_monomial_power(obstructed_map, coupled_map, record_calls):
    """The operator's columns come straight from the packed powers."""
    modules = [m for m in (maps, compop, engine) if hasattr(m, "monomial_power")]
    calls = record_calls("monomial_power", *modules)
    gaussian = PolyMap(
        (
            jet_of(2, 3, [((1, 0), gq(0, "1/2"))]),
            jet_of(2, 3, [((0, 1), sc(-1, 4)), ((2, 0), gq(1, 1)), ((1, 1), sc(1, 3))]),
        )
    )
    for phi in (obstructed_map, coupled_map, gaussian):
        assert truncation_degree(phi.linear_part().diagonal_entries()) >= 2
        for run in (
            lambda: analyze(phi),
            lambda: solve(phi, degree=4, mode="independent"),
            lambda: truncated_operator(phi),
        ):
            run()
            assert calls == []


def test_build_refuses_a_term_above_its_column(monkeypatch):
    """The per-column check: phi_2 = z2/4 + z1 puts z1 (row 0) in column z2 (1)."""
    phi = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((0, 1), sc(1, 4)), ((1, 0), sc(1))]),
        )
    )
    with pytest.raises(ValueError):
        operator_at_k(phi)
    monkeypatch.setattr(compop, "_upper_triangular_derivative", lambda phi: None)
    with pytest.raises(RuntimeError, match="not lower triangular in column 1"):
        build(phi, 2)


def test_operator_diagonal_law():
    rng = random.Random(53)
    diag = [sc(1, 2), sc(1, 4)]
    phi = random_poly_map(rng, 2, diag, 3)
    op = build(phi, 3)
    for alpha in op.basis:
        expect = diag[0] ** alpha[0] * diag[1] ** alpha[1]
        assert op.matrix.at(op.basis.index(alpha), op.basis.index(alpha)) == expect


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
        via_matrix = vector_jet(op, sparse_vector(mat_vec(op.matrix, jet_vector(op, f))))
        direct = compose(f, op.source.truncate(4))
        assert via_matrix == direct


def test_vector_jet_round_trip(diagonal_map):
    op = build(diagonal_map, 3)
    f = jet_of(2, 3, [((1, 0), sc(2)), ((1, 1), I), ((0, 3), sc(-1, 7))])
    assert vector_jet(op, sparse_vector(jet_vector(op, f))) == f
    with pytest.raises(ValueError):
        vector_jet(op, ((op.size, sc(1)),))
    with pytest.raises(ValueError):
        vector_jet(op, ((-1, sc(1)),))
