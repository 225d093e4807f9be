"""Earlier jet products, sums and compositions, kept as test oracles.

`jet_mul` visits every pair of terms and skips those above the
truncation degree; `add_into` and `jet_mul` add each product through
`Scalar.__mul__` and `Scalar.__add__` and drop a sum the moment it
cancels.  They check `schroeder.series.jet_mul` and `add_into`, which
group the right factor by degree and accumulate through the fused
`Scalar.__mul__(x, y, acc)`, and share neither with them.  A square
goes through the same pairwise `jet_mul`, ordered pairs and all, and
`jet_pow` is e - 1 repeated products; they check the square path of
`series.jet_mul` and the binary powering of `engine._jet_pow`.

`monomial_power`, `compose` and `map_compose` are the `Scalar` route
that `schroeder.maps` used before it composed over the Gaussian
integers: every power phi^alpha is a `Scalar` jet, one jet product
away from a power in a dict memo, and each term c*z^alpha of f adds
c*phi^alpha into one coefficient table through `series.add_into`.
They share no power table and no integer sum with `maps.compose`,
`maps.monomial_power` or `compop.build`, which they check, and the
operator and lifting oracles read their powers from here too.

`sympy_compose` expands f(phi(z)) with sympy's `Poly` over Q(i), from the
integers `Scalar.ints()` gives, and shares no arithmetic with the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

from schroeder import series
from schroeder.maps import PolyMap
from schroeder.scalars import ONE, ZERO, Scalar
from schroeder.series import Jet, MultiIndex

PowerMemo = Dict[MultiIndex, Jet]


def add_into(
    acc: Dict[MultiIndex, Scalar],
    coeffs: Dict[MultiIndex, Scalar],
    scale: Optional[Scalar] = None,
    cap: Optional[int] = None,
) -> None:
    """Add the terms of `coeffs`, times `scale`, into `acc` in place, up to degree `cap`."""
    for alpha, c in coeffs.items():
        if cap is not None and sum(alpha) > cap:
            continue
        if scale is not None:
            c = c * scale
        prev = acc.get(alpha)
        if prev is None:
            if not c.is_zero():
                acc[alpha] = c
            continue
        s = prev + c
        if s.is_zero():
            del acc[alpha]
        else:
            acc[alpha] = s


def jet_mul(f: Jet, g: Jet) -> Jet:
    """Product truncated at the smaller of the two degrees."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    deg = min(f.degree, g.degree)
    acc: Dict[MultiIndex, Scalar] = {}
    for a, ca in f.coeffs.items():
        da = sum(a)
        if da > deg:
            continue
        for b, cb in g.coeffs.items():
            if da + sum(b) > deg:
                continue
            gamma = tuple(x + y for x, y in zip(a, b))
            s = acc.get(gamma, ZERO) + ca * cb
            if s.is_zero():
                acc.pop(gamma, None)
            else:
                acc[gamma] = s
    return Jet(f.dim, deg, acc)


def jet_pow(f: Jet, e: int) -> Jet:
    """f^e for e >= 1, by e - 1 repeated products."""
    out = f
    for _ in range(e - 1):
        out = jet_mul(out, f)
    return out


def monomial_power(phi: PolyMap, alpha: MultiIndex, memo: Optional[PowerMemo] = None) -> Jet:
    """phi^alpha truncated to phi's degree, walking down to a memoized power.

    phi^alpha = phi^(alpha - e_i) * phi_i with i the first nonzero index;
    the walk steps down to an exponent in `memo` or of degree <= 1 and
    multiplies `Scalar` jets back up, memoizing every power on the way.
    """
    if memo is None:
        memo = {}
    steps = []
    while alpha not in memo and sum(alpha) > 1:
        i = next(j for j, e in enumerate(alpha) if e > 0)
        steps.append((alpha, i))
        alpha = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
    out = memo.get(alpha)
    if out is None:
        n = phi.source_dim
        if sum(alpha) == 0:
            out = Jet.build(n, phi.degree, [((0,) * n, ONE)])
        else:
            out = phi.components[alpha.index(1)]
        memo[alpha] = out
    for beta, i in reversed(steps):
        out = out * phi.components[i]
        memo[beta] = out
    return out


def compose(f: Jet, phi: PolyMap, memo: Optional[PowerMemo] = None) -> Jet:
    """f(phi(z)) truncated to min(f.degree, phi.degree), one scaled `add_into` per term."""
    if memo is None:
        memo = {}
    degree = min(f.degree, phi.degree)
    cap = degree if phi.degree > degree else None
    acc: Dict[MultiIndex, Scalar] = {}
    for alpha, coeff in f.coeffs.items():
        if sum(alpha) <= degree:
            series.add_into(acc, monomial_power(phi, alpha, memo).coeffs, coeff, cap)
    return Jet(phi.source_dim, degree, acc)


def map_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Componentwise f(g(z)) through one memo of powers of g."""
    memo: PowerMemo = {}
    return PolyMap(tuple(compose(c, g, memo) for c in f.components))


def sympy_compose(f: Jet, phi: PolyMap) -> Dict[MultiIndex, Tuple[Fraction, Fraction]]:
    """f(phi(z)) expanded by sympy, without the terms above min(f.degree, phi.degree).

    Each coefficient is its (real, imaginary) pair of Fractions.
    """
    from sympy import QQ_I, I, Poly, Rational, im, prod, re, symbols

    z = symbols(f"z1:{phi.source_dim + 1}")

    def number(c: Scalar):
        a, b, d = c.ints()
        return Rational(a, d) + Rational(b, d) * I

    def fraction(x) -> Fraction:
        return Fraction(int(x.p), int(x.q))

    inner = [
        Poly.from_dict({alpha: number(c) for alpha, c in jet.coeffs.items()}, *z, domain=QQ_I)
        for jet in phi.components
    ]
    total = Poly(0, *z, domain=QQ_I)
    for alpha, c in f.coeffs.items():
        total += prod((p**e for p, e in zip(inner, alpha)), start=Poly(number(c), *z, domain=QQ_I))
    cap = min(f.degree, phi.degree)
    return {
        alpha: (fraction(re(c)), fraction(im(c)))
        for alpha, c in total.terms()
        if c != 0 and sum(alpha) <= cap
    }
