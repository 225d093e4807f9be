"""Exact complex-rational scalar arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder.documents import DocumentError, parse_scalar
from schroeder.scalars import I, ONE, ZERO, Scalar, scalar_inv

import scalar_oracles as oracle

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
scalars = st.builds(Scalar, fractions, fractions)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_constructors_and_constants():
    assert Scalar.of(3) == Scalar(Fraction(3), Fraction(0))
    assert Scalar.of(Fraction(1, 2), Fraction(-2, 3)).im == Fraction(-2, 3)
    assert ZERO.is_zero() and not ONE.is_zero()
    assert I * I == -ONE


@pytest.mark.parametrize(
    "text, value", [("1 / 2", Fraction(1, 2)), ("1_000", Fraction(1000)), (".5", Fraction(1, 2))]
)
def test_of_reads_strings_by_the_document_grammar(text, value):
    assert Scalar.of(text) == Scalar(value, Fraction(0)) == parse_scalar(text, "c")
    assert Scalar.of(0, text) == Scalar(Fraction(0), value)


@pytest.mark.parametrize("text", ["1e-3", "3E2", "0x10"])
def test_of_refuses_what_documents_refuse(text):
    with pytest.raises(ValueError, match=f"not a rational: {text!r}"):
        Scalar.of(text)
    with pytest.raises(ValueError, match=f"not a rational: {text!r}"):
        Scalar.of(1, text)
    with pytest.raises(DocumentError, match=f"c: not a rational: {text!r}"):
        parse_scalar(text, "c")


def test_str_forms():
    assert str(Scalar.of(Fraction(1, 2))) == "1/2"
    assert str(ZERO) == "0"
    assert str(I) == "i"
    assert str(Scalar.of(3, 4)) == "3+4i"
    assert str(Scalar.of(0, -1)) == "-i"
    assert str(Scalar.of(-1, Fraction(1, 2))) == "-1+1/2i"


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a + (-a) == ZERO


@settings(max_examples=60, deadline=None)
@given(nonzero_scalars)
def test_field_inverse(a):
    assert a * scalar_inv(a) == ONE
    assert a / a == ONE
    assert (ONE / a) * a == ONE


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conjugate().conjugate() == a
    assert a * a.conjugate() == Scalar.of(a.abs_sq())
    assert a.abs_sq() == a.re * a.re + a.im * a.im
    assert a.abs_sq() >= 0


def test_powers():
    half = Scalar.of(Fraction(1, 2))
    assert half**3 == Scalar.of(Fraction(1, 8))
    assert half**0 == ONE
    assert half**-2 == Scalar.of(4)
    assert (I + ONE) ** 2 == Scalar.of(0, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        scalar_inv(ZERO)


def test_hash_and_equality():
    a = Scalar.of(Fraction(2, 4), Fraction(0))
    b = Scalar.of(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # The same value reached by sums, products, inverses and Gaussian
    # cancellation: (1+i)(1-i)/4 = 2/4.
    routes = [
        ONE / Scalar.of(2),
        Scalar.of(1, 1) * Scalar.of(1, -1) / Scalar.of(4),
        Scalar.of(Fraction(1, 6)) + Scalar.of(Fraction(1, 3)),
        Scalar.of(Fraction(3, 4), 5) - Scalar.of(Fraction(1, 4), 5),
        (I * I) / Scalar.of(-2),
        Scalar.of("1/2"),
    ]
    assert all(r == a for r in routes)
    assert {hash(r) for r in routes} == {hash(a)}
    assert len({a, *routes}) == 1
    assert Scalar.of(1) != 1 and Scalar.of(1, 1) != Scalar.of(1, -1)


def test_repr_is_the_dataclass_form():
    assert repr(Scalar.of(Fraction(1, 2), -3)) == "Scalar(re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert repr(ONE / Scalar.of(2)) == "Scalar(re=Fraction(1, 2), im=Fraction(0, 1))"
    assert repr(ZERO) == "Scalar(re=Fraction(0, 1), im=Fraction(0, 1))"


def assert_canonical(s: Scalar) -> None:
    """Numerators over one positive denominator, with no common factor."""
    a, b, d = s._a, s._b, s._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1


def assert_matches(new: Scalar, old: oracle.Scalar) -> None:
    assert_canonical(new)
    assert (new.re, new.im) == (old.re, old.im)
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert new.is_zero() == old.is_zero() and bool(new) == bool(old)
    assert new.abs_sq() == old.abs_sq()


big_parts = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
# Small parts share denominators and cancel often; scaled ones share a
# large factor of their denominators.
small_parts = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
scaled_parts = st.builds(
    lambda n, k, m: Fraction(n, k * m),
    st.integers(-(2**100), 2**100),
    st.integers(1, 12),
    st.sampled_from([1, 2**64, 3**40 * 5]),
)
parts = st.one_of(big_parts, small_parts, scaled_parts)
zero_part = st.just(Fraction(0))
gaussians = st.one_of(
    st.tuples(parts, parts),
    st.tuples(parts, zero_part),
    st.tuples(zero_part, parts),
    st.tuples(small_parts, small_parts),
)


@settings(max_examples=300, deadline=None)
@given(gaussians, gaussians, st.integers(-4, 4))
def test_operations_match_the_fraction_oracle(x, y, n):
    a, oa = Scalar(*x), oracle.Scalar(*x)
    b, ob = Scalar(*y), oracle.Scalar(*y)
    assert_matches(a, oa)
    assert_matches(b, ob)
    pairs = [
        (a + b, oa + ob),
        (a - b, oa - ob),
        (a * b, oa * ob),
        (b * a, ob * oa),
        (-a, -oa),
        (a.conjugate(), oa.conjugate()),
        (a + a.conjugate(), oa + oa.conjugate()),
        (a - a.conjugate(), oa - oa.conjugate()),
        (a * a.conjugate(), oa * oa.conjugate()),
        (a - a, oa - oa),
    ]
    if ob.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            scalar_inv(b)
    else:
        pairs += [(a / b, oa / ob), (scalar_inv(b), oracle.scalar_inv(ob))]
    if n >= 0 or not oa.is_zero():
        pairs.append((a**n, oa**n))
    else:
        with pytest.raises(ZeroDivisionError):
            a**n
    for new, old in pairs:
        assert_matches(new, old)
    assert (a == b) == (oa == ob)
    assert (a != b) == (oa != ob)
    assert a == Scalar(*x) and hash(a) == hash(Scalar(*x))


@settings(max_examples=300, deadline=None)
@given(
    gaussians,
    gaussians,
    gaussians,
    st.sampled_from(["none", "any", "product-denominator", "cancel"]),
    st.integers(-(2**70), 2**70),
)
def test_mul_add_matches_the_fraction_oracle(x, y, z, case, n):
    """The fused multiply-add `Scalar.__mul__(x, y, acc)` = acc + x*y."""
    a, oa = Scalar(*x), oracle.Scalar(*x)
    b, ob = Scalar(*y), oracle.Scalar(*y)
    product = oa * ob
    if case == "none":
        acc, expect = None, product
    else:
        if case == "any":
            # Drawn like x and y, so denominators are often equal or share
            # a large factor with the product's.
            parts = z
        elif case == "product-denominator":
            # Canonical over exactly the unreduced denominator of x*y.
            d = a._d * b._d
            parts = (Fraction(1 + d * n, d), Fraction(z[1].numerator, d))
            assert Scalar(*parts)._d == d
        else:
            parts = (-product.re, -product.im)
        acc = Scalar(*parts)
        expect = oracle.Scalar(*parts) + product
    got = Scalar.__mul__(a, b, acc)
    assert_matches(got, expect)
    assert got == Scalar.__mul__(b, a, acc)
    if case == "cancel":
        assert got == ZERO and (got._a, got._b, got._d) == (0, 0, 1)
