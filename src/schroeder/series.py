"""Monomials and degree-truncated multivariate power series (jets).

A monomial in n variables is an exponent tuple ``alpha`` of length n.
Monomials are ordered by total degree first; within a degree, the tuple
whose first differing exponent is larger comes first.  This puts the
basis in the order z1, z2, z1^2, z1*z2, z2^2, ... and the constant
monomial is deliberately excluded from enumeration.

A jet is a power series kept only through a fixed total degree.  The
coefficient table is sparse and canonical: zero coefficients are never
stored, and no stored exponent exceeds the truncation degree, so
structural equality coincides with mathematical equality.

Products are graded: `jet_mul` groups the right factor's terms by the
total degrees that occur, so each left term meets only the terms whose
product stays within the truncation, and every coefficient accumulates
through the fused form `Scalar.__mul__(x, y, acc)` = acc + x*y, at one
gcd reduction per product.  A square, a jet times itself, forms each
unordered pair of terms once and doubles the cross terms, so it makes
about half the products of a general product of the same size.
Composition and the operator's columns multiply no jets: both read the
Gaussian-integer powers of `maps`.

A jet prints its terms in monomial order, whatever order its table was
filled in, so equal jets print equally.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .scalars import ONE, ZERO, Scalar

MultiIndex = Tuple[int, ...]


def order_key(alpha: MultiIndex) -> Tuple[int, Tuple[int, ...]]:
    """Sort key realizing the graded monomial order."""
    return (sum(alpha), tuple(-e for e in alpha))


@lru_cache(maxsize=256)
def _compositions_desc(total: int, parts: int) -> Tuple[MultiIndex, ...]:
    """All exponent tuples with the given sum, first coordinate largest first.

    Cached per (total, parts); the result is a tuple, so no caller can
    change what the cache holds.
    """
    if parts == 1:
        return ((total,),)
    return tuple(
        (head,) + tail
        for head in range(total, -1, -1)
        for tail in _compositions_desc(total - head, parts - 1)
    )


def enumerate_monomials(n: int, max_degree: int) -> List[MultiIndex]:
    """Ordered monomials with 1 <= |alpha| <= max_degree (constant omitted)."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if max_degree < 1:
        raise ValueError(f"max degree must be positive, got {max_degree}")
    out: List[MultiIndex] = []
    for d in range(1, max_degree + 1):
        out.extend(_compositions_desc(d, n))
    return out


def monomial_count(n: int, max_degree: int) -> int:
    """Number of monomials with 1 <= |alpha| <= max_degree."""
    return comb(n + max_degree, n) - 1


def monomials_of_degree(n: int, d: int) -> List[MultiIndex]:
    """Ordered monomials with |alpha| == d."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    return list(_compositions_desc(d, n))


def unit_index(n: int, i: int) -> MultiIndex:
    """The exponent tuple of the variable z_{i+1}."""
    return tuple(1 if j == i else 0 for j in range(n))


class Jet(NamedTuple):
    """A power series truncated at total degree `degree`.

    `coeffs` maps exponent tuples to nonzero scalars.  Use `Jet.build` to
    construct one from arbitrary term data; it canonicalizes for you.
    """

    dim: int
    degree: int
    coeffs: Dict[MultiIndex, Scalar]

    @staticmethod
    def build(dim: int, deg: int, terms: Iterable[Tuple[MultiIndex, Scalar]]) -> Jet:
        """Accumulate terms, dropping zeros and exponents beyond the degree."""
        acc: Dict[MultiIndex, Scalar] = {}
        for alpha, c in terms:
            if len(alpha) != dim:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {dim}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            if sum(alpha) > deg or c.is_zero():
                continue
            s = acc.get(alpha, ZERO) + c
            if s.is_zero():
                acc.pop(alpha, None)
            else:
                acc[alpha] = s
        return Jet(dim, deg, acc)

    @staticmethod
    def zero(dim: int, deg: int) -> Jet:
        return Jet(dim, deg, {})

    @staticmethod
    def monomial(dim: int, deg: int, alpha: MultiIndex, coeff: Scalar = ONE) -> Jet:
        return Jet.build(dim, deg, [(alpha, coeff)])

    def coefficient(self, alpha: MultiIndex) -> Scalar:
        return self.coeffs.get(tuple(alpha), ZERO)

    def terms(self) -> List[Tuple[MultiIndex, Scalar]]:
        """Stored terms in monomial order (constant first if present)."""
        return sorted(self.coeffs.items(), key=lambda kv: order_key(kv[0]))

    def __repr__(self) -> str:
        """The NamedTuple form, with `coeffs` listed in monomial order.

        A dict shows its insertion order, which depends on how the jet
        was computed; listing the terms in order makes equal jets print
        equally.
        """
        body = ", ".join(f"{a!r}: {c!r}" for a, c in self.terms())
        return f"{type(self).__qualname__}(dim={self.dim!r}, degree={self.degree!r}, coeffs={{{body}}})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * self.dim)

    def __add__(self, other: Jet) -> Jet:
        self._check(other)
        deg = min(self.degree, other.degree)
        acc = self.truncate(deg).coeffs
        add_into(acc, other.coeffs, cap=deg if other.degree > deg else None)
        return Jet(self.dim, deg, acc)

    def __sub__(self, other: Jet) -> Jet:
        return self + (-other)

    def __neg__(self) -> Jet:
        return Jet(self.dim, self.degree, {a: -c for a, c in self.coeffs.items()})

    def scale(self, s: Scalar) -> Jet:
        if s.is_zero():
            return Jet.zero(self.dim, self.degree)
        return Jet(self.dim, self.degree, {a: c * s for a, c in self.coeffs.items()})

    def __mul__(self, other: Jet) -> Jet:
        return jet_mul(self, other)

    def truncate(self, deg: int) -> Jet:
        """Retruncate; raising the degree is allowed (missing terms are zero)."""
        if deg >= self.degree:
            return Jet(self.dim, deg, dict(self.coeffs))
        return Jet(self.dim, deg, {a: c for a, c in self.coeffs.items() if sum(a) <= deg})

    def homogeneous_slice(self, d: int) -> Jet:
        """The degree-d part, as a jet of the same truncation degree."""
        return Jet(self.dim, self.degree, {a: c for a, c in self.coeffs.items() if sum(a) == d})

    def _check(self, other: Jet) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def add_into(
    acc: Dict[MultiIndex, Scalar],
    coeffs: Dict[MultiIndex, Scalar],
    scale: Optional[Scalar] = None,
    cap: Optional[int] = None,
) -> None:
    """Add the terms of `coeffs`, times `scale`, into the table `acc` in place.

    Terms above total degree `cap` are skipped and sums that cancel are
    removed, so a canonical table stays canonical.  Sums of jets are
    accumulated through this, one table per result; a scaled term costs
    one fused `Scalar.__mul__`.
    """
    # Read here, not bound at import: a rebound `Scalar.__mul__` must see
    # every product.
    mul, get = Scalar.__mul__, acc.get
    for alpha, c in coeffs.items():
        if cap is not None and sum(alpha) > cap:
            continue
        prev = get(alpha)
        if scale is not None:
            s = mul(c, scale, prev)
        elif prev is None:
            s = c
        else:
            s = prev + c
        if s:
            acc[alpha] = s
        elif prev is not None:
            del acc[alpha]


def jet_mul(f: Jet, g: Jet) -> Jet:
    """Product truncated at the smaller of the two degrees.

    The terms of `g` are grouped by the total degrees that occur, once,
    so each term of `f` meets only the terms whose product survives the
    truncation, found by bisecting those degrees.  Every coefficient
    accumulates through the fused `Scalar.__mul__`; sums that cancel are
    dropped once at the end.  A jet times itself (`g is f`) is a square
    and multiplies each unordered pair of terms once (`_square`).
    """
    f._check(g)
    if g is f:
        return _square(f)
    deg = min(f.degree, g.degree)
    by_degree: Dict[int, List[Tuple[MultiIndex, Scalar]]] = {}
    for b, cb in g.coeffs.items():
        db = sum(b)
        if db <= deg:
            by_degree.setdefault(db, []).append((b, cb))
    degrees = sorted(by_degree)
    # up_to[i]: the terms of g of degree at most degrees[i].
    up_to = list(accumulate(by_degree[d] for d in degrees))
    acc: Dict[MultiIndex, Scalar] = {}
    mul, get = Scalar.__mul__, acc.get  # read per call, as in `add_into`
    for a, ca in f.coeffs.items():
        room = bisect_right(degrees, deg - sum(a))
        if not room:
            continue
        for b, cb in up_to[room - 1]:
            gamma = tuple(map(add, a, b))
            acc[gamma] = mul(ca, cb, get(gamma))
    return Jet(f.dim, deg, {gamma: c for gamma, c in acc.items() if c})


def _square(f: Jet) -> Jet:
    """f * f, each unordered pair of terms multiplied once.

    With the terms in order of degree, the partners after a term whose
    product survives the truncation are a run, found by bisection.  A
    term meets itself once and each partner once, through its doubled
    coefficient 2*c, formed once per term; a term whose square is past
    the truncation has no partner after it, and neither has any later one.
    """
    deg = f.degree
    terms = sorted(f.coeffs.items(), key=lambda term: sum(term[0]))
    degrees = [sum(a) for a, _ in terms]
    acc: Dict[MultiIndex, Scalar] = {}
    mul, get = Scalar.__mul__, acc.get  # read per call, as in `add_into`
    for i, (a, ca) in enumerate(terms):
        end = bisect_right(degrees, deg - degrees[i])
        if end <= i:
            break
        gamma = tuple(map(add, a, a))
        acc[gamma] = mul(ca, ca, get(gamma))
        if end > i + 1:
            twice = ca + ca
            for b, cb in terms[i + 1 : end]:
                gamma = tuple(map(add, a, b))
                acc[gamma] = mul(twice, cb, get(gamma))
    return Jet(f.dim, deg, {gamma: c for gamma, c in acc.items() if c})
