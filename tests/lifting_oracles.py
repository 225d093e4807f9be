"""The lifting algorithms of the first release, kept as test oracles.

Every sum goes through `Jet.build`, which revalidates and rebuilds the
whole coefficient table per term, and the lifter recomposes g(psi(z))
from scratch for every output degree and powers lambda^alpha directly.
Powers of psi are `Scalar` jets from `series_oracles.monomial_power`.
None of this shares code with `maps.compose`, `maps.matrix_apply`,
`Jet.__add__` or `engine._Lifter`, which they check.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from schroeder.linalg import ExactMatrix
from schroeder.maps import PolyMap, matrix_map
from schroeder.scalars import ONE, Scalar
from schroeder.series import Jet, MultiIndex, monomials_of_degree
from series_oracles import PowerMemo, monomial_power


def jet_add(f: Jet, g: Jet) -> Jet:
    """f + g truncated at the smaller degree, rebuilt through `Jet.build`."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    deg = min(f.degree, g.degree)
    return Jet.build(f.dim, deg, list(f.coeffs.items()) + list(g.coeffs.items()))


def jet_sub(f: Jet, g: Jet) -> Jet:
    return jet_add(f, -g)


def compose(f: Jet, phi: PolyMap, memo: Optional[PowerMemo] = None) -> Jet:
    """f(phi(z)) truncated to min(f.degree, phi.degree), one `jet_add` per term of f."""
    if memo is None:
        memo = {}
    degree = min(f.degree, phi.degree)
    out = Jet.zero(phi.source_dim, degree)
    for alpha, coeff in f.terms():
        if sum(alpha) > degree:
            break
        out = jet_add(out, monomial_power(phi, alpha, memo).truncate(degree).scale(coeff))
    return out


def matrix_apply(m: ExactMatrix, phi: PolyMap) -> PolyMap:
    """z -> M phi(z), one `jet_add` per nonzero entry of M."""
    comps = []
    for i in range(m.rows):
        acc = Jet.zero(phi.source_dim, phi.degree)
        for j in range(m.cols):
            s = m.at(i, j)
            if not s.is_zero():
                acc = jet_add(acc, phi.components[j].scale(s))
        comps.append(acc)
    return PolyMap(tuple(comps))


def diag_power(diag: Tuple[Scalar, ...], alpha: MultiIndex) -> Scalar:
    """lambda^alpha by powering each factor directly."""
    out = ONE
    for lam, e in zip(diag, alpha):
        if e:
            out = out * lam**e
    return out


class Lifter:
    """The per-degree lifter: for every degree m it recomposes g with psi.

    Same constructor and `lift` contract as `engine._Lifter`, so it can
    stand in for it inside `solve` and `solve_power`.
    """

    def __init__(self, psi: PolyMap, base_degree: int, out_degree: int):
        self.psi = psi
        self.base = base_degree
        self.out = out_degree
        self.n = psi.dim
        linear = psi.linear_part()
        self.diag = linear.diagonal_entries()
        self.linear_is_diagonal = (
            linear.is_lower_triangular() and linear.is_upper_triangular()
        )
        self.linear_map = matrix_map(linear, out_degree)
        self.psi_memo: PowerMemo = {}
        self.lin_memo: PowerMemo = {}

    def lift(self, g0: Jet, rhs: Optional[Jet], lam: Scalar) -> Jet:
        g = g0.truncate(self.out)
        for m in range(self.base + 1, self.out + 1):
            known = compose(g, self.psi, self.psi_memo).homogeneous_slice(m)
            target = rhs.homogeneous_slice(m) if rhs is not None else None
            r = jet_sub(target, known) if target is not None else -known
            new_terms: List[Tuple[MultiIndex, Scalar]] = []
            carry = Jet.zero(self.n, self.out)
            for alpha in monomials_of_degree(self.n, m):
                divisor = diag_power(self.diag, alpha) - lam
                if divisor.is_zero():
                    raise RuntimeError(f"divisor vanished at exponent {alpha}")
                num = r.coefficient(alpha)
                if not self.linear_is_diagonal:
                    num = num - carry.coefficient(alpha)
                x = num / divisor
                if x.is_zero():
                    continue
                new_terms.append((alpha, x))
                if not self.linear_is_diagonal:
                    power = monomial_power(self.linear_map, alpha, self.lin_memo)
                    carry = jet_add(carry, power.scale(x))
            if new_terms:
                g = jet_add(g, Jet.build(self.n, self.out, new_terms))
        return g
