"""Exact Gaussian-rational arithmetic.

A scalar is a complex number ``(a + b*i) / d`` held as three integers:
Gaussian-integer numerators ``a`` and ``b`` over one denominator
``d > 0``, in canonical form ``gcd(a, b, d) == 1`` (zero is ``0/1``).
The form is unique, so ``==`` and ``hash`` compare the three integers and
scalars can be compared with ``==`` in tests without any tolerance.

Every operation is plain `int` arithmetic followed by one
three-argument `math.gcd` that restores the canonical form; no operation
reduces the real and imaginary parts separately.  Sums over equal
denominators just add numerators (over different ones, only the factors
the denominators share can cancel), and a product with a real factor
skips the imaginary cross products.  `mul_add(x, y, acc)` gives
``acc + x*y`` for one step of a sum of products with one reduction in
place of two.  `re` and `im` give the parts as reduced
`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

RationalLike = Union[int, str, Fraction]

_new = object.__new__


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Scalar:
    """A Gaussian rational re + im*i, stored as (a + b*i) / d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        # Both parts are in lowest terms, so over their least common
        # denominator the three integers are already coprime.
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q == s:
            self._a, self._b, self._d = p, r, q
        else:
            g = gcd(q, s)
            self._a, self._b, self._d = p * (s // g), r * (q // g), q // g * s

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> Scalar:
        """Build a scalar from ints, Fractions, or rational strings like "3/4"."""
        return Scalar(_frac(re), _frac(im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: Scalar) -> Scalar:
        return _sum(self, other._a, other._b, other._d)

    def __sub__(self, other: Scalar) -> Scalar:
        return _sum(self, -other._a, -other._b, other._d)

    def __neg__(self) -> Scalar:
        out = _new(Scalar)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def __mul__(self, other: Scalar, acc: Optional[Scalar] = None) -> Scalar:
        """self * other, or acc + self * other as `mul_add`, reduced once.

        The product stays unreduced and is added to `acc` over the least
        common denominator of the two; one `gcd(a, b, d)` then restores
        the canonical form.  It must be the full gcd: the unreduced
        product is not canonical, so the shared-factor shortcut of `_sum`
        does not hold.
        """
        a, b, c, e = self._a, self._b, other._a, other._b
        if not e:
            a, b = a * c, b * c
        elif not b:
            a, b = a * c, a * e
        else:
            a, b = a * c - b * e, a * e + b * c
        d = self._d * other._d
        if acc is not None:
            f = acc._d
            if f == d:
                a += acc._a
                b += acc._b
            else:
                g = gcd(f, d)
                s, t = f // g, d // g
                a = a * s + acc._a * t
                b = b * s + acc._b * t
                d *= s
        g = gcd(a, b, d) if d != 1 else 1
        out = _new(Scalar)
        if g == 1:
            out._a, out._b, out._d = a, b, d
        else:
            out._a, out._b, out._d = a // g, b // g, d // g
        return out

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * scalar_inv(other)

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return scalar_inv(self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> Scalar:
        out = _new(Scalar)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def abs_sq(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        im_s = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return im_s
        sign = "+" if im > 0 and not im_s.startswith("-") else ""
        return f"{re}{sign}{im_s}"

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"


def _sum(x: Scalar, a2: int, b2: int, e: int) -> Scalar:
    """x + (a2 + b2*i) / e, for e > 0 and gcd(a2, b2, e) == 1."""
    d = x._d
    if d == e:
        a = x._a + a2
        b = x._b + b2
        g = gcd(a, b, d) if d != 1 else 1
    else:
        # Only primes of gcd(d, e) can divide the sum over lcm(d, e).
        g = gcd(d, e)
        s, t = d // g, e // g
        a = x._a * t + a2 * s
        b = x._b * t + b2 * s
        d = s * e
        if g != 1:
            g = gcd(a, b, g)
    out = _new(Scalar)
    if g == 1:
        out._a, out._b, out._d = a, b, d
    else:
        out._a, out._b, out._d = a // g, b // g, d // g
    return out


# mul_add(x, y, acc) is acc + x*y, or x*y when acc is None: one step of
# a sum of products at one reduction, where `*` then `+` cost two.
mul_add = Scalar.__mul__

ZERO = Scalar(Fraction(0), Fraction(0))
ONE = Scalar(Fraction(1), Fraction(0))
I = Scalar(Fraction(0), Fraction(1))


def scalar_inv(s: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroDivisionError on 0."""
    a, b, d = s._a, s._b, s._d
    if not (a or b):
        raise ZeroDivisionError("inverse of zero scalar")
    out = _new(Scalar)
    if not b:
        # gcd(a, d) == 1 already; only the sign moves to the numerator.
        out._a, out._b, out._d = (d, 0, a) if a > 0 else (-d, 0, -a)
        return out
    n = a * a + b * b
    a, b = d * a, -d * b
    g = gcd(a, b, n)
    out._a, out._b, out._d = a // g, b // g, n // g
    return out


def abs_sq(s: Scalar) -> Fraction:
    """|s|^2 as an exact rational."""
    return s.abs_sq()
