"""Polynomial self-maps of C^n fixing the origin, truncated to a degree.

A `PolyMap` is a tuple of jets with no constant terms, all sharing one
dimension and one truncation degree.  Composition and monomial powers
are the workhorses here; both truncate every intermediate product so the
cost stays bounded by the truncation degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .linalg import ExactMatrix, inverse
from .scalars import ONE, Scalar
from .series import Jet, MultiIndex, add_into, unit_index


@dataclass(frozen=True)
class PolyMap:
    components: Tuple[Jet, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("map needs at least one component")
        dim = self.components[0].dim
        deg = self.components[0].degree
        for i, c in enumerate(self.components):
            if c.dim != dim:
                raise ValueError(f"component {i} has dimension {c.dim}, expected {dim}")
            if c.degree != deg:
                raise ValueError(f"component {i} has degree {c.degree}, expected {deg}")
            if not c.constant_term().is_zero():
                raise ValueError(f"component {i} does not vanish at the origin")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def source_dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return self.components[0].degree

    def component(self, i: int) -> Jet:
        return self.components[i]

    def truncate(self, degree: int) -> PolyMap:
        return PolyMap(tuple(c.truncate(degree) for c in self.components))

    def linear_part(self) -> ExactMatrix:
        """The derivative at the origin as an n x n matrix."""
        n = self.source_dim
        if self.dim != n:
            raise ValueError("linear part requires a self-map")
        rows = []
        for c in self.components:
            rows.append([c.coefficient(unit_index(n, j)) for j in range(n)])
        return ExactMatrix.from_rows(rows)

    def is_linear(self) -> bool:
        return all(c.max_term_degree() <= 1 for c in self.components)


def identity_map(n: int, degree: int) -> PolyMap:
    return PolyMap(
        tuple(Jet.monomial(n, degree, unit_index(n, i)) for i in range(n))
    )


def matrix_map(m: ExactMatrix, degree: int) -> PolyMap:
    """The linear map z -> M z as a PolyMap of the given degree."""
    comps = []
    for i in range(m.rows):
        terms = [
            (unit_index(m.cols, j), m.at(i, j))
            for j in range(m.cols)
            if not m.at(i, j).is_zero()
        ]
        comps.append(Jet.build(m.cols, degree, terms))
    return PolyMap(tuple(comps))


PowerMemo = Dict[MultiIndex, Jet]


def monomial_power(phi: PolyMap, alpha: MultiIndex, memo: Optional[PowerMemo] = None) -> Jet:
    """The jet of phi_1^a1 * ... * phi_n^an, truncated to phi's degree.

    A shared memo makes enumerating all powers up to a degree cheap: each
    power is one jet multiplication away from a previously computed one.
    """
    if len(alpha) != phi.dim:
        raise ValueError(f"exponent length {len(alpha)} does not match {phi.dim} components")
    if memo is None:
        memo = {}
    return _power(phi, alpha, memo)


def _power(phi: PolyMap, alpha: MultiIndex, memo: PowerMemo) -> Jet:
    cached = memo.get(alpha)
    if cached is not None:
        return cached
    total = sum(alpha)
    n = phi.source_dim
    if total == 0:
        out = Jet.build(n, phi.degree, [((0,) * n, ONE)])
    elif total == 1:
        out = phi.components[alpha.index(1)]
    else:
        i = next(j for j, e in enumerate(alpha) if e > 0)
        smaller = tuple(e - 1 if j == i else e for j, e in enumerate(alpha))
        out = _power(phi, smaller, memo) * phi.components[i]
    memo[alpha] = out
    return out


def compose(f: Jet, phi: PolyMap, memo: Optional[PowerMemo] = None) -> Jet:
    """The jet of f(phi(z)) truncated to min(f.degree, phi.degree).

    Exact through the truncation degree because phi has no constant term:
    a monomial of f of degree d only contributes terms of degree >= d.
    Each term c*z^alpha of f adds c*phi^alpha into one coefficient table;
    phi^alpha comes from `memo`, which calls composing with the same phi
    may share.
    """
    if f.dim != phi.dim:
        raise ValueError(f"jet in {f.dim} variables fed a {phi.dim}-component map")
    if memo is None:
        memo = {}
    degree = min(f.degree, phi.degree)
    cap = degree if phi.degree > degree else None
    acc: Dict[MultiIndex, Scalar] = {}
    for alpha, coeff in f.coeffs.items():
        if sum(alpha) <= degree:
            add_into(acc, _power(phi, alpha, memo).coeffs, coeff, cap)
    return Jet(phi.source_dim, degree, acc)


def map_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Componentwise composition f(g(z))."""
    if f.source_dim != g.dim:
        raise ValueError(
            f"inner map has {g.dim} components, outer expects {f.source_dim}"
        )
    memo: PowerMemo = {}
    return PolyMap(tuple(compose(c, g, memo) for c in f.components))


def matrix_apply(m: ExactMatrix, phi: PolyMap) -> PolyMap:
    """The map z -> M * phi(z); cheaper than composing with a linear map."""
    if m.cols != phi.dim:
        raise ValueError(f"matrix has {m.cols} columns, map has {phi.dim} components")
    comps = []
    for i in range(m.rows):
        acc: Dict[MultiIndex, Scalar] = {}
        for j in range(m.cols):
            s = m.at(i, j)
            if not s.is_zero():
                add_into(acc, phi.components[j].coeffs, s)
        comps.append(Jet(phi.source_dim, phi.degree, acc))
    return PolyMap(tuple(comps))


def conjugate_map(phi: PolyMap, d: ExactMatrix) -> PolyMap:
    """The conjugate D phi D^-1 as a map of the same truncation degree."""
    if phi.dim != phi.source_dim:
        raise ValueError("conjugation requires a self-map")
    if d.rows != d.cols or d.rows != phi.dim:
        raise ValueError("conjugator shape does not match the map")
    d_inv = inverse(d)
    inner = matrix_map(d_inv, phi.degree)
    return matrix_apply(d, map_compose(phi, inner))


def pad_map(phi: PolyMap, degree: int) -> PolyMap:
    """Reinterpret phi at a higher truncation degree (no new terms)."""
    if degree < phi.degree:
        raise ValueError("padding cannot lower the degree")
    return PolyMap(tuple(c.truncate(degree) for c in phi.components))
