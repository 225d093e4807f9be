"""Monomial ordering and truncated power-series (jet) arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder.scalars import I, ONE, ZERO, Scalar
from schroeder.series import (
    Jet,
    add_into,
    enumerate_monomials,
    jet_mul,
    monomial_count,
    monomials_of_degree,
    order_key,
    unit_index,
)

import series_oracles as oracle
from conftest import sc


def test_order_two_variables():
    assert enumerate_monomials(2, 3) == [
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
        (3, 0),
        (2, 1),
        (1, 2),
        (0, 3),
    ]


def test_order_three_variables_degree_two():
    assert monomials_of_degree(3, 2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_cached_monomial_lists_cannot_be_corrupted():
    """Each call returns a fresh list, so mutating one leaves later calls intact."""
    first = monomials_of_degree(2, 2)
    first.clear()
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    every = enumerate_monomials(2, 2)
    every.append((9, 9))
    every[0] = (7, 7)
    assert enumerate_monomials(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]


def test_order_is_graded_then_first_difference():
    assert order_key((0, 2)) < order_key((3, 0))
    assert order_key((2, 1)) < order_key((1, 2))
    assert order_key((1, 1)) == order_key((1, 1))
    assert order_key((0, 3)) > order_key((2, 1))


def test_enumeration_count_and_sortedness():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3, 4):
            mons = enumerate_monomials(n, k)
            assert len(mons) == monomial_count(n, k)
            assert len(set(mons)) == len(mons)
            assert mons == sorted(mons, key=order_key)
            assert all(1 <= sum(a) <= k for a in mons)


def test_unit_index():
    assert unit_index(3, 1) == (0, 1, 0)
    assert enumerate_monomials(3, 1) == [unit_index(3, i) for i in range(3)]


def test_build_canonicalizes():
    f = Jet.build(
        2,
        2,
        [
            ((1, 0), sc(1, 2)),
            ((1, 0), sc(-1, 2)),
            ((0, 1), ZERO),
            ((3, 0), ONE),
            ((1, 1), sc(5)),
        ],
    )
    assert f.coeffs == {(1, 1): sc(5)}
    assert f == Jet.monomial(2, 2, (1, 1), sc(5))


def test_build_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Jet.build(2, 3, [((1, 0, 0), ONE)])
    with pytest.raises(ValueError):
        Jet.build(2, 3, [((-1, 2), ONE)])


def test_terms_sorted_and_constant_first():
    f = Jet.build(2, 2, [((0, 2), ONE), ((0, 0), sc(7)), ((1, 0), sc(2))])
    assert [a for a, _ in f.terms()] == [(0, 0), (1, 0), (0, 2)]
    assert f.constant_term() == sc(7)


def test_repr_lists_terms_in_monomial_order():
    terms = [((0, 2), ONE), ((0, 0), sc(7)), ((1, 0), I), ((1, 1), sc(-1, 3))]
    f = Jet.build(2, 2, terms)
    g = Jet.build(2, 2, list(reversed(terms)))
    assert list(f.coeffs) != list(g.coeffs)
    assert repr(f) == repr(g) == (
        "Jet(dim=2, degree=2, coeffs={(0, 0): Scalar(re=Fraction(7, 1), im=Fraction(0, 1)), "
        "(1, 0): Scalar(re=Fraction(0, 1), im=Fraction(1, 1)), "
        "(1, 1): Scalar(re=Fraction(-1, 3), im=Fraction(0, 1)), "
        "(0, 2): Scalar(re=Fraction(1, 1), im=Fraction(0, 1))})"
    )
    assert repr(Jet.zero(3, 1)) == "Jet(dim=3, degree=1, coeffs={})"


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_scalars = st.builds(Scalar, small_fracs, small_fracs)


def jets(dim: int, degree: int):
    mons = [((0,) * dim)] + enumerate_monomials(dim, degree)
    return st.lists(
        st.tuples(st.sampled_from(mons), small_scalars), max_size=6
    ).map(lambda ts: Jet.build(dim, degree, ts))


@settings(max_examples=40, deadline=None)
@given(jets(2, 3), jets(2, 3), jets(2, 3))
def test_jet_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Jet.zero(2, 3)


@settings(max_examples=40, deadline=None)
@given(jets(2, 3))
def test_slice_partition(f):
    total = Jet.zero(2, 3)
    for d in range(0, 4):
        part = f.homogeneous_slice(d)
        assert all(sum(a) == d for a in part.coeffs)
        total = total + part
    assert total == f


def test_truncate_drops_and_raises_degree():
    f = Jet.build(2, 3, [((1, 0), ONE), ((2, 1), sc(4))])
    low = f.truncate(1)
    assert low.degree == 1 and low.coeffs == {(1, 0): ONE}
    high = low.truncate(5)
    assert high.degree == 5 and high.coefficient((1, 0)) == ONE


def test_mul_truncates_to_smaller_degree():
    f = Jet.monomial(2, 4, (2, 0))
    g = Jet.monomial(2, 2, (0, 2))
    assert (f * g).degree == 2
    assert (f * g).is_zero()
    h = Jet.monomial(2, 4, (0, 2))
    assert (f * h).coefficient((2, 2)) == ONE


def test_scale():
    f = Jet.build(2, 2, [((1, 0), sc(3)), ((0, 2), sc(-1))])
    assert f.scale(sc(1, 3)).coefficient((1, 0)) == ONE
    assert f.scale(ZERO).is_zero()


def test_random_mul_against_dense_reference():
    rng = random.Random(7)
    for _ in range(20):
        deg = 4
        f = Jet.build(
            2,
            deg,
            [
                (a, Scalar.of(Fraction(rng.randint(-2, 2), rng.choice([1, 2]))))
                for a in enumerate_monomials(2, deg)
            ],
        )
        g = Jet.build(
            2,
            deg,
            [
                (a, Scalar.of(Fraction(rng.randint(-2, 2), rng.choice([1, 2]))))
                for a in enumerate_monomials(2, deg)
            ],
        )
        prod = f * g
        for gamma in enumerate_monomials(2, deg):
            expect = ZERO
            for a in list(f.coeffs):
                b = tuple(x - y for x, y in zip(gamma, a))
                if all(e >= 0 for e in b):
                    expect = expect + f.coefficient(a) * g.coefficient(b)
            assert prod.coefficient(gamma) == expect


# Real coefficients, or Gaussian ones that include the imaginary units.
real_coeffs = st.builds(Scalar, small_fracs, st.just(Fraction(0)))
gaussian_coeffs = st.one_of(small_scalars, st.sampled_from([ONE, -ONE, I, -I]))
coeff_kinds = st.sampled_from([real_coeffs, gaussian_coeffs])


@st.composite
def jet_pairs(draw):
    """Two jets in one dimension, with degrees that may differ.

    In two or more variables, half the time the pair is (u + v, u - v)
    with u free of z2 and v = z2 * w, w free of z2.  Every cross term of
    the product then has z2-degree 1, which neither u^2 nor v^2 reach, so
    each of those coefficients cancels to exactly zero.
    """
    dim = draw(st.integers(1, 3))
    df, dg = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    coeffs = draw(coeff_kinds)
    top = max(df, dg)
    mons = [(0,) * dim] + enumerate_monomials(dim, max(top, 1))

    def jet(support):
        terms = st.lists(st.tuples(st.sampled_from(support), coeffs), max_size=7)
        return Jet.build(dim, top, draw(terms))

    if dim >= 2 and draw(st.booleans()):
        free = [m for m in mons if m[1] == 0]
        u = jet(free)
        v = jet([m[:1] + (1,) + m[2:] for m in free])
        u, v = u + v, u - v
    else:
        u, v = jet(mons), jet(mons)
    return u.truncate(df), v.truncate(dg)


def assert_no_zero_stored(table) -> None:
    assert all(not c.is_zero() for c in table.values())


@settings(max_examples=200, deadline=None)
@given(jet_pairs())
def test_graded_product_matches_the_pairwise_oracle(pair):
    f, g = pair
    for x, y in ((f, g), (g, f)):
        got = jet_mul(x, y)
        assert got == oracle.jet_mul(x, y)
        assert got.degree == min(x.degree, y.degree)
        assert_no_zero_stored(got.coeffs)


@st.composite
def squared_jets(draw):
    """A real or Gaussian jet in 1-4 variables, its terms up to its degree.

    Half the time it is f = 1 + h - h^2/2, h free of constants, so that
    f^2 = 1 + 2h - h^3 + h^4/4: every coefficient of h^2 cancels.
    """
    dim = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 5))
    coeffs = draw(coeff_kinds)
    mons = [(0,) * dim] + enumerate_monomials(dim, max(degree, 1))
    f = Jet.build(dim, degree, draw(st.lists(st.tuples(st.sampled_from(mons), coeffs), max_size=7)))
    if draw(st.booleans()):
        h = Jet(dim, degree, {a: c for a, c in f.coeffs.items() if any(a)})
        one = Jet.monomial(dim, degree, (0,) * dim)
        f = one + h - oracle.jet_mul(h, h).scale(sc(1, 2))
    return f


@settings(max_examples=200, deadline=None)
@given(squared_jets())
def test_a_square_matches_the_pairwise_oracle(f):
    copy = Jet(f.dim, f.degree, dict(f.coeffs))
    got = jet_mul(f, f)
    assert got == oracle.jet_mul(f, f) == jet_mul(f, copy)
    assert got.degree == f.degree
    assert_no_zero_stored(got.coeffs)


def _scalar_products(run) -> int:
    """How many `Scalar.__mul__` calls `run` makes, counted on the class attribute."""
    count = 0
    real = Scalar.__mul__

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)

    with mock.patch.object(Scalar, "__mul__", counted):
        run()
    return count


def test_a_square_multiplies_each_unordered_pair_once():
    # Degrees 1 and 2 within degree 4: every pair of the t = 5 terms survives.
    f = Jet.build(2, 4, [
        ((1, 0), sc(1, 2)), ((0, 1), Scalar.of(1, 3)), ((2, 0), sc(-2)),
        ((1, 1), Scalar.of(0, "1/5")), ((0, 2), sc(3, 7)),
    ])
    t = len(f.coeffs)
    copy = Jet(f.dim, f.degree, dict(f.coeffs))
    assert _scalar_products(lambda: f * f) <= t * (t + 1) // 2 + t
    assert _scalar_products(lambda: f * copy) == t * t
    assert f * f == f * copy == oracle.jet_mul(f, f)


@settings(max_examples=200, deadline=None)
@given(
    jet_pairs(),
    st.one_of(st.none(), st.just(ZERO), st.just(-ONE), gaussian_coeffs),
    st.one_of(st.none(), st.integers(0, 5)),
    st.booleans(),
)
def test_add_into_matches_the_pairwise_oracle(pair, scale, cap, cancel):
    f, g = pair
    start = dict(g.coeffs)
    if cancel:
        # Then adding the scaled f cancels every term it reaches.
        oracle.add_into(start, f.coeffs, -(ONE if scale is None else scale))
    got, expect = dict(start), dict(start)
    add_into(got, f.coeffs, scale, cap)
    oracle.add_into(expect, f.coeffs, scale, cap)
    assert got == expect
    assert_no_zero_stored(got)
