"""Polynomial maps, composition, and conjugation."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import series_oracles as oracle
from compop_oracles import dense_operator
from schroeder import compop, engine, maps, series
from schroeder.compop import build
from schroeder.engine import analyze, solve, solve_power, verify
from schroeder.linalg import ExactMatrix, inverse, mat_mul
from schroeder.maps import (
    PolyMap,
    PowerTable,
    compose,
    conjugate_map,
    map_compose,
    matrix_apply,
    matrix_map,
    monomial_power,
)
from schroeder.scalars import ONE, ZERO, Scalar
from schroeder.series import Jet, monomials_of_degree, unit_index

from conftest import jet_of, random_poly_map, sc, sc_fraction_pool, traced_peak


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
    table = PowerTable(phi)
    p = monomial_power(phi, (2, 1), table)
    direct = phi.component(0) * phi.component(0) * phi.component(1)
    assert p == direct
    assert p == oracle.monomial_power(phi, (2, 1))
    assert monomial_power(phi, (2, 1)) == p
    assert monomial_power(phi, (3, 2), table).is_zero()  # degree 5 is past the truncation
    with pytest.raises(ValueError, match="another map"):
        monomial_power(obstructed_map, (2, 1), table)


def test_monomial_power_walks_down_without_recursion():
    # A fresh table and a degree far past the recursion limit.
    phi = PolyMap((jet_of(1, 1000, [((1,), sc(1, 2))]),))
    coeff = Scalar.of(Fraction(1, 2**1000))
    assert monomial_power(phi, (1000,)) == Jet.monomial(1, 1000, (1000,), coeff)
    # P^alpha = P^(alpha - e_i) * P_i with i the first nonzero index, and
    # every power on the way is memoized next to the units and P^0.
    table = PowerTable(phi.truncate(3))
    monomial_power(table.phi, (3,), table)
    assert sorted(table._powers) == [(0,), (1,), (2,), (3,)]
    table = PowerTable(PolyMap((Jet.monomial(2, 4, (1, 0)),) * 2))
    monomial_power(table.phi, (2, 1), table)
    assert sorted(table._powers) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]


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
    triangular = [[sc(2), sc(-1)], [sc(0), sc(1, 2)]]
    identity = [[sc(1), sc(0)], [sc(0), sc(1)]]
    permutation = [[sc(0), sc(1)], [sc(1), sc(0)]]
    for rows in (triangular, identity, permutation):
        m = ExactMatrix.from_rows(rows)
        assert matrix_apply(m, phi) == map_compose(matrix_map(m, 3), phi)
        assert matrix_apply(m, phi) == oracle.map_compose(matrix_map(m, 3), phi)


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


#: Each random coefficient draws its own denominator from here, so the
#: terms of one jet rarely share one.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 25, 27)


def _coeff(rng: random.Random, gaussian: bool) -> Scalar:
    re = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    im = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) if gaussian else 0
    return Scalar.of(re, im)


def _random_jet(rng: random.Random, dim: int, degree: int, gaussian: bool, lowest: int) -> Jet:
    terms = [
        (alpha, _coeff(rng, gaussian))
        for d in range(lowest, degree + 1)
        for alpha in monomials_of_degree(dim, d)
        if rng.random() < 0.35
    ]
    return Jet.build(dim, degree, terms)


def _swapped(f: Jet) -> Jet:
    """f with z1 and z2 exchanged."""
    return Jet(f.dim, f.degree, {(a[1], a[0]) + a[2:]: c for a, c in f.coeffs.items()})


@st.composite
def compositions(draw):
    """phi: C^m -> C^n and jets f in n variables, real or Gaussian, any two degrees.

    With `twins`, phi's first two components are equal, and each f is
    h - h(z2, z1, ...) plus a sparse remainder: the h part composes to
    zero, so many integer sums cancel exactly.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    phi_degree, f_degree = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    gaussian_phi, gaussian_f = draw(st.booleans()), draw(st.booleans())
    comps = [_random_jet(rng, m, phi_degree, gaussian_phi, 1) for _ in range(n)]
    twins = n >= 2 and draw(st.booleans())
    if twins:
        comps[1] = comps[0]
    fs = []
    for _ in range(draw(st.integers(1, 3))):
        f = _random_jet(rng, n, f_degree, gaussian_f, 0)
        if twins:
            rest = Jet.build(n, f_degree, [(a, c) for a, c in f.coeffs.items() if rng.random() < 0.2])
            f = f - _swapped(f) + rest
        fs.append(f)
    return PolyMap(tuple(comps)), fs, twins


@settings(max_examples=200, deadline=None)
@given(compositions())
@example(
    (PolyMap((jet_of(1, 2, [((1,), sc(1, 2)), ((2,), sc(1, 3))]),)), [jet_of(1, 4, [((3,), sc(5, 7))])], False)
)
def test_integer_compose_matches_the_scalar_oracle(drawn):
    phi, fs, twins = drawn
    table, memo = PowerTable(phi), {}
    for f in fs:
        want = oracle.compose(f, phi, memo)
        assert want.degree == min(f.degree, phi.degree)
        assert compose(f, phi, table) == want
        assert compose(f, phi) == want
        if twins:
            assert compose(f - _swapped(f), phi, table).is_zero()
    # Constant terms dropped: the same jets as the components of a map.
    outer = PolyMap(tuple(Jet(f.dim, f.degree, {a: c for a, c in f.coeffs.items() if sum(a)}) for f in fs))
    assert map_compose(outer, phi) == oracle.map_compose(outer, phi)


def fraction_pair(c: Scalar) -> tuple:
    a, b, d = c.ints()
    return Fraction(a, d), Fraction(b, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_compose_matches_sympy_expansion(seed, m, n, phi_degree, f_degree):
    """compose and map_compose against sympy's expansion of f(phi(z)).

    phi: C^m -> C^n and f: C^n -> C^k with k <= 3, Gaussian coefficients
    and no constant terms.
    """
    rng = random.Random(seed)
    phi = PolyMap(tuple(_random_jet(rng, m, phi_degree, True, 1) for _ in range(n)))
    f = PolyMap(tuple(_random_jet(rng, n, f_degree, True, 1) for _ in range(rng.randint(1, 3))))
    composed = map_compose(f, phi)
    for i, fi in enumerate(f.components):
        want = oracle.sympy_compose(fi, phi)
        for got in (compose(fi, phi), composed.component(i)):
            assert got.degree == min(f_degree, phi_degree)
            assert {a: fraction_pair(c) for a, c in got.coeffs.items()} == want


def test_power_table_holds_integer_powers():
    # phi = (z1/2 + z2/3, i*z2/4): D = 12, P = (6 z1 + 4 z2, 3i z2).
    phi = PolyMap((
        jet_of(2, 3, [((1, 0), sc(1, 2)), ((0, 1), sc(1, 3))]),
        jet_of(2, 3, [((0, 1), Scalar.of(0, Fraction(1, 4)))]),
    ))
    table = PowerTable(phi)
    assert (table.denom, table.real, table.base) == (12, False, 4)
    # Monomials are keyed by gamma_1 + gamma_2 * B with B = 4.
    key = table.encode
    assert (key((1, 1)), key((0, 2))) == (5, 8)
    assert table.power((1, 1)) == {2: {key((1, 1)): (0, 18), key((0, 2)): (0, 12)}}
    assert (table.decode[5], table.decode[8]) == ((1, 1), (0, 2))
    assert table.power((2, 2)) == {}  # degree 4 is past the truncation
    assert [table.denom_powers[e] for e in range(4)] == [1, 12, 12**2, 12**3]
    # (Lz)^(1, 1) = (z1/2 + z2/3) * i*z2/4.
    assert table.linear_power((1, 1)) == {
        (1, 1): Scalar.of(0, Fraction(1, 8)),
        (0, 2): Scalar.of(0, Fraction(1, 12)),
    }
    with pytest.raises(ValueError, match="another map"):
        compose(phi.components[0], phi.truncate(2), table)


def test_a_high_declared_degree_forms_only_the_denominator_powers_read():
    """verify of a one-term solution declaring degree 20000 stays small.

    Forming D^e for every e up to the declared degree held about 70 MB
    (traced), growing with the square of the degree.
    """
    phi = PolyMap((jet_of(1, 2, [((1,), sc(1, 2)), ((2,), sc(1, 3))]),))
    f = PolyMap((jet_of(1, 20000, [((1,), ONE)]),))
    report, peak = traced_peak(lambda: verify(phi, f))
    assert peak < 1_000_000
    assert (report.degree, report.clean_degree) == (20000, 1)
    assert report.first_failure == (0, (2,), sc(1, 3))
    assert (report.derivative_rank, report.component_rank) == (1, 1)
    table = PowerTable(phi.truncate(20000))
    assert table.denom_powers[3] == 6**3
    assert dict(table.denom_powers) == {3: 6**3}


@st.composite
def packed_pairs(draw):
    """A table of a map in 1-4 variables of degree 1-12, and exponents a, b with |a| + |b| <= degree."""
    n, degree = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    phi = PolyMap(tuple(Jet.monomial(n, degree, unit_index(n, i), sc(1, 2)) for i in range(n)))

    def exponent(budget):
        out = []
        for e in draw(st.lists(st.integers(0, budget), min_size=n, max_size=n)):
            out.append(min(e, budget - sum(out)))
        return tuple(draw(st.permutations(out)))

    a = exponent(degree)
    return PowerTable(phi), a, exponent(degree - sum(a))


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
@example((PowerTable(PolyMap((Jet.monomial(2, 2, (1, 0)), Jet.monomial(2, 2, (0, 1))))), (2, 0), (0, 0)))
def test_packed_keys_round_trip_and_add_without_carry(drawn):
    table, a, b = drawn
    gamma = tuple(x + y for x, y in zip(a, b))
    assert sum(gamma) <= table.phi.degree < table.base
    for x in (a, b, gamma):
        assert table.decode[table.encode(x)] == x
    assert table.encode(a) + table.encode(b) == table.encode(gamma)


def _edge_map(n: int, gaussian: bool) -> PolyMap:
    """A map of degree n in n variables; component i carries z_i^n and z1 * z_n^(n-1).

    Keys in base B = n would alias z1^n with z2 and decode z_n^n as the
    constant: the key base must exceed the degree.
    """
    c = Scalar.of(Fraction(1, 3), Fraction(1, 5) if gaussian else 0)
    comps = []
    for i in range(n):
        terms = [
            (unit_index(n, i), sc(1, i + 2)),
            (tuple(n * e for e in unit_index(n, i)), c),
            ((1,) + (0,) * (n - 2) + (n - 1,), sc(-2, 7)),
        ]
        if i + 1 < n:
            terms.append((unit_index(n, i + 1), sc(1, 9)))
        comps.append(jet_of(n, n, terms))
    return PolyMap(tuple(comps))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_a_power_equal_to_the_degree_decodes_to_itself(n, gaussian):
    phi = _edge_map(n, gaussian)
    f = jet_of(n, n, [
        (unit_index(n, 0), sc(1)),
        ((0,) * (n - 1) + (n,), sc(1, 2)),
        ((n - 1, 1) + (0,) * (n - 2), sc(3)),
    ])
    assert compose(f, phi) == oracle.compose(f, phi)
    assert map_compose(phi, phi) == oracle.map_compose(phi, phi)
    _, matrix = dense_operator(phi, n)
    assert build(phi, n).matrix == matrix


def test_build_and_compose_multiply_no_jets():
    """Operator columns and compositions come from the integer power table alone.

    phi is Gaussian with denominators 2, 3, 5, 7 and 9 spread over degrees
    1 to 3, so a column read over D^e in place of D^|beta| differs from
    the oracle's.
    """
    def s(re, im=0):
        return Scalar.of(Fraction(re), Fraction(im))

    phi = PolyMap((
        jet_of(2, 3, [((1, 0), s("1/2", "1/3")), ((0, 2), s("2/5")), ((2, 1), s(0, "1/7"))]),
        jet_of(2, 3, [((0, 1), s("1/3")), ((1, 1), s("-3/7", "1/2")), ((0, 3), s("5/9"))]),
    ))
    f = PolyMap((
        jet_of(2, 3, [((1, 0), s("2/3")), ((1, 1), s(1, "-1/5"))]),
        jet_of(2, 3, [((0, 1), s(0, 1)), ((2, 0), s("1/4")), ((0, 3), s("-7/2"))]),
    ))
    _, matrix = dense_operator(phi, 3)
    want = oracle.map_compose(f, phi)
    with mock.patch.object(series, "jet_mul", side_effect=AssertionError("a jet was multiplied")):
        assert build(phi, 3).matrix == matrix
        assert compose(f.components[1], phi) == want.components[1]
        assert map_compose(f, phi) == want


#: Nonzero scales of a monomial map's terms, 1 and -1 among them.
SCALES = (
    ONE, -ONE, sc(1, 2), sc(-3, 5), sc(7),
    Scalar.of(0, 1), Scalar.of(Fraction(2, 3), -1), Scalar.of(-1, Fraction(1, 4)),
)


def _scaled_signed_permutation(rng: random.Random, n: int) -> ExactMatrix:
    """The n x n matrix with one entry from `SCALES` per row and column, at random."""
    cols = rng.sample(range(n), n)
    return ExactMatrix.from_rows(
        [[rng.choice(SCALES) if j == cols[i] else ZERO for j in range(n)] for i in range(n)]
    )


@st.composite
def monomial_compositions(draw):
    """A map f: C^n -> C^k and a monomial g: C^m -> C^n, g_i = c_i * z_t(i), t injective.

    m >= n, so g is a scaled permutation when m == n; g's degree is
    below, equal to or above f's.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 4))
    f_degree = draw(st.integers(1, 5))
    g_degree = max(1, f_degree + draw(st.integers(-1, 1)))
    targets = draw(st.permutations(range(m)))[:n]
    scales = [draw(st.sampled_from(SCALES)) for _ in range(n)]
    g = PolyMap(tuple(Jet.monomial(m, g_degree, unit_index(m, t), c) for t, c in zip(targets, scales)))
    gaussian = draw(st.booleans())
    f = PolyMap(tuple(_random_jet(rng, n, f_degree, gaussian, 1) for _ in range(draw(st.integers(1, 3)))))
    return f, g


@settings(max_examples=200, deadline=None)
@given(monomial_compositions())
@example((
    PolyMap((jet_of(2, 3, [((1, 0), sc(1, 2)), ((1, 2), sc(1, 3))]),)),
    PolyMap((Jet.monomial(2, 3, (1, 0)), Jet.monomial(2, 3, (0, 1)))),
))
def test_monomial_map_compose_matches_the_oracle(drawn):
    f, g = drawn
    got = map_compose(f, g)
    assert got == oracle.map_compose(f, g)
    assert got.degree == min(f.degree, g.degree)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5), st.booleans())
def test_conjugating_by_a_scaled_signed_permutation_matches_the_oracle(seed, n, degree, gaussian):
    rng = random.Random(seed)
    phi = PolyMap(tuple(_random_jet(rng, n, degree, gaussian, 1) for _ in range(n)))
    d = _scaled_signed_permutation(rng, n)
    inner = oracle.map_compose(phi, matrix_map(inverse(d), degree))
    assert conjugate_map(phi, d) == oracle.map_compose(matrix_map(d, degree), inner)


@pytest.mark.parametrize(
    "g",
    [
        PolyMap((Jet.monomial(2, 3, (1, 0), sc(1, 2)), Jet.monomial(2, 3, (1, 0), sc(-1)))),
        PolyMap((Jet.monomial(2, 3, (0, 1), sc(3)), Jet.zero(2, 3))),
    ],
    ids=["two-on-one-variable", "zero-component"],
)
def test_a_monomial_map_that_is_not_a_relabel_composes_through_a_table(g, record_calls):
    f = PolyMap((
        jet_of(2, 3, [((1, 0), sc(1, 2)), ((1, 1), sc(2, 3)), ((0, 3), Scalar.of(0, 1))]),
        jet_of(2, 3, [((0, 1), sc(-1)), ((2, 1), sc(5))]),
    ))
    tables = record_calls("PowerTable", maps)
    assert map_compose(f, g) == oracle.map_compose(f, g)
    assert [args[0] for args in tables] == [g]


def _all_linear(phi: PolyMap) -> bool:
    return all(sum(alpha) == 1 for c in phi.components for alpha in c.coeffs)


def test_a_diagonal_derivative_forms_no_table_of_a_linear_map(record_calls):
    """The identity and permutation transitions of diagonal derivatives relabel terms.

    One map has distinct eigenvalues (transition the identity), the
    other diag(1/2, 1/4, 1/2) (transition a permutation); both have
    K = 2, so the map the engine works with keeps its quadratic terms.
    """
    distinct = PolyMap((
        jet_of(2, 3, [((1, 0), sc(1, 2)), ((1, 1), sc(1, 3)), ((0, 3), sc(2, 7))]),
        jet_of(2, 3, [((0, 1), sc(1, 4)), ((0, 2), sc(1, 5))]),
    ))
    repeated = PolyMap((
        jet_of(3, 2, [((1, 0, 0), sc(1, 2)), ((0, 2, 0), sc(1, 3))]),
        jet_of(3, 2, [((0, 1, 0), sc(1, 4)), ((1, 1, 0), sc(1, 5))]),
        jet_of(3, 2, [((0, 0, 1), sc(1, 2)), ((2, 0, 0), sc(1, 6)), ((0, 1, 1), sc(-1, 7))]),
    ))
    tables = record_calls("PowerTable", maps, compop, engine)
    for phi in (distinct, repeated):
        assert analyze(phi).full_rank
        solutions = [
            solve(phi, degree, mode)
            for degree in (None, 6)
            for mode in ("full-rank", "independent")
        ]
        for solution in solutions:
            assert verify(phi, solution.components).first_failure is None
        squared = solve_power(phi, 2, 6)
        assert verify(phi, squared.components, 2).first_failure is None
        rng = random.Random(phi.dim)
        conjugate_map(phi, _scaled_signed_permutation(rng, phi.dim))
    assert tables
    assert not [args[0] for args in tables if _all_linear(args[0])]
