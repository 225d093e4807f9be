"""The `Scalar` of the first release, kept as a test oracle.

A frozen dataclass over two `fractions.Fraction`s: every operation goes
through `Fraction` arithmetic, which reduces each part on its own.  It
checks `schroeder.scalars.Scalar`, which keeps Gaussian-integer
numerators over one denominator, and shares no arithmetic with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational re + im*i."""

    re: Fraction
    im: Fraction

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> Scalar:
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

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
        return Scalar(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 and not im.startswith("-") else ""
        return f"{self.re}{sign}{im}"


ONE = Scalar(Fraction(1), Fraction(0))


def scalar_inv(s: Scalar) -> Scalar:
    """Multiplicative inverse; raises ZeroDivisionError on 0."""
    d = s.abs_sq()
    if d == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    return Scalar(s.re / d, -s.im / d)
