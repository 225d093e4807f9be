"""Shared fixtures and randomized generators for the test suite.

The three fixture maps are small holomorphic self-maps fixing the origin
that exercise the main code paths:

* ``obstructed_map``: a two-variable map whose quadratic term blocks any
  full-rank solution (the eigenvalue 1/4 resonates with z1^2).
* ``diagonal_map``: a two-variable diagonal map with a resonance that
  carries no coupling, so a full-rank solution still exists.
* ``coupled_map``: a four-variable map with an off-diagonal linear part
  and a quadratic coupling that is absorbed into a Jordan chain.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest

from schroeder.linalg import ExactMatrix
from schroeder.maps import PolyMap
from schroeder.scalars import ONE, ZERO, Scalar
from schroeder.series import Jet, MultiIndex


def sc(num, den=1) -> Scalar:
    """A real rational scalar num/den."""
    return Scalar.of(Fraction(num, den))


def jet_of(dim: int, degree: int, terms) -> Jet:
    return Jet.build(dim, degree, [(tuple(a), s) for a, s in terms])


@pytest.fixture
def obstructed_map() -> PolyMap:
    """phi(z1, z2) = (z1/2, z2/4 + z1^2/16)."""
    return PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((0, 1), sc(1, 4)), ((2, 0), sc(1, 16))]),
        )
    )


@pytest.fixture
def diagonal_map() -> PolyMap:
    """phi(z1, z2) = (z1/2, z2/4) with the same resonant spectrum."""
    return PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 2))]),
            jet_of(2, 1, [((0, 1), sc(1, 4))]),
        )
    )


@pytest.fixture
def coupled_map() -> PolyMap:
    """Four variables, upper-triangular linear part, one quadratic term.

    phi = (z1/2, z2/4 + z3/8 + z1^2/8, z3/4, z4/8).
    """
    return PolyMap(
        (
            jet_of(4, 2, [((1, 0, 0, 0), sc(1, 2))]),
            jet_of(
                4,
                2,
                [
                    ((0, 1, 0, 0), sc(1, 4)),
                    ((0, 0, 1, 0), sc(1, 8)),
                    ((2, 0, 0, 0), sc(1, 8)),
                ],
            ),
            jet_of(4, 2, [((0, 0, 1, 0), sc(1, 4))]),
            jet_of(4, 2, [((0, 0, 0, 1), sc(1, 8))]),
        )
    )


def sc_fraction_pool(rng: random.Random, *, gaussian: bool = False) -> Scalar:
    """A small random rational (or Gaussian rational) scalar."""
    num = rng.randint(-3, 3)
    den = rng.choice([1, 2, 3])
    re = Fraction(num, den)
    if gaussian and rng.random() < 0.4:
        im = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        return Scalar.of(re, im)
    return Scalar.of(re)


def random_lower_matrix(
    rng: random.Random,
    size: int,
    diag_pool: Sequence[Scalar],
    *,
    gaussian: bool = False,
    density: float = 0.6,
) -> ExactMatrix:
    """A random lower-triangular matrix with diagonal drawn from a pool."""
    rows: List[List[Scalar]] = []
    for i in range(size):
        row: List[Scalar] = []
        for j in range(size):
            if j > i:
                row.append(ZERO)
            elif j == i:
                row.append(rng.choice(list(diag_pool)))
            elif rng.random() < density:
                row.append(sc_fraction_pool(rng, gaussian=gaussian))
            else:
                row.append(ZERO)
        rows.append(row)
    return ExactMatrix.from_rows(rows)


#: Attracting eigenvalues with pairwise-coprime denominators.  Products of
#: two or more of them can never land back in the pool, so any map with
#: this spectrum is free of resonances and truncates at degree one.
NONRESONANT_POOL = (
    Scalar.of(Fraction(1, 2)),
    Scalar.of(Fraction(1, 3)),
    Scalar.of(Fraction(2, 5)),
    Scalar.of(Fraction(3, 7)),
    Scalar.of(Fraction(2, 11)),
    Scalar.of(Fraction(5, 13)),
)


def random_poly_map(
    rng: random.Random,
    dim: int,
    diag: Sequence[Scalar],
    degree: int,
    *,
    upper_density: float = 0.4,
    term_density: float = 0.35,
    gaussian: bool = False,
) -> PolyMap:
    """A random self-map with the given diagonal on its linear part.

    The linear part is upper triangular; higher-order terms are sparse
    with small rational (or, with `gaussian`, Gaussian rational)
    coefficients.
    """
    from schroeder.series import enumerate_monomials

    monomials = [a for a in enumerate_monomials(dim, degree) if sum(a) >= 2]
    components = []
    for i in range(dim):
        terms: List[Tuple[MultiIndex, Scalar]] = []
        for j in range(dim):
            if j == i:
                terms.append((tuple(1 if t == j else 0 for t in range(dim)), diag[i]))
            elif j > i and rng.random() < upper_density:
                coeff = sc_fraction_pool(rng)
                if not coeff.is_zero():
                    terms.append(
                        (tuple(1 if t == j else 0 for t in range(dim)), coeff)
                    )
        for alpha in monomials:
            if rng.random() < term_density:
                coeff = sc_fraction_pool(rng, gaussian=gaussian)
                if not coeff.is_zero():
                    terms.append((alpha, coeff))
        components.append(Jet.build(dim, degree, terms))
    return PolyMap(tuple(components))


def koenigs_oracle(phi_coeffs: Sequence[Scalar], degree: int) -> List[Scalar]:
    """Classical one-variable linearization recursion, written from scratch.

    ``phi_coeffs[m]`` is the coefficient of ``z^m`` in phi (index 0 must be
    zero).  Returns the coefficients ``c[0..degree]`` of the unique series
    ``F(z) = z + ...`` with ``F(phi(z)) = lam * F(z)``, where
    ``lam = phi_coeffs[1]``.  Uses plain list convolution so that the code
    path shares nothing with the package's composition machinery.
    """
    lam = phi_coeffs[1]
    phi: List[Scalar] = list(phi_coeffs) + [ZERO] * (degree + 1 - len(phi_coeffs))
    phi = phi[: degree + 1]

    def convolve(a: List[Scalar], b: List[Scalar]) -> List[Scalar]:
        out = [ZERO] * (degree + 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if i + j > degree:
                    break
                if bj.is_zero():
                    continue
                out[i + j] = out[i + j] + ai * bj
        return out

    powers: List[Optional[List[Scalar]]] = [None, phi]
    for j in range(2, degree + 1):
        powers.append(convolve(powers[j - 1], phi))

    c: List[Scalar] = [ZERO, ONE] + [ZERO] * (degree - 1)
    for m in range(2, degree + 1):
        total = ZERO
        for j in range(1, m):
            if c[j].is_zero():
                continue
            total = total + c[j] * powers[j][m]
        c[m] = total / (lam - lam**m)
    return c
