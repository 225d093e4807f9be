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
import sys
import tracemalloc
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Tuple

import pytest

from schroeder import cli, engine
from schroeder.compop import TruncatedCompOp, build, truncation_degree
from schroeder.linalg import ExactMatrix, SparseVector
from schroeder.maps import PolyMap
from schroeder.scalars import ONE, ZERO, Scalar
from schroeder.series import Jet, MultiIndex


def sc(num, den=1) -> Scalar:
    """A real rational scalar num/den."""
    return Scalar.of(Fraction(num, den))


def main_in_process(*args: str) -> int:
    """Run `cli.main` in this process with the given arguments; returns its exit code."""
    saved = sys.argv
    sys.argv = ["schroeder", *args]
    try:
        with pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        sys.argv = saved
    return stop.value.code


def jet_of(dim: int, degree: int, terms) -> Jet:
    return Jet.build(dim, degree, [(tuple(a), s) for a, s in terms])


def operator_at_k(phi: PolyMap) -> TruncatedCompOp:
    """`build` at the K that `truncation_degree` finds on phi's diagonal, as the engine does."""
    return build(phi, truncation_degree(phi.linear_part().diagonal_entries()))


def traced_peak(call: Callable[[], Any]) -> Tuple[Any, int]:
    """(call(), the peak bytes it allocated over what was live before it).

    The ROADMAP's north star says that no legal input may grow memory
    without bound.  Tests pin that rule with this helper: they run one
    large legal input and bound the peak, which tracemalloc measures
    without depending on what the rest of the process holds.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(autouse=True)
def forget_the_kept_map() -> None:
    """Start every test with no map kept by `engine._prepare`.

    The engine keeps the last map it prepared, so without this a test's
    calls would depend on the map the test before it left behind.
    """
    engine._kept = None


@pytest.fixture
def record_calls(monkeypatch) -> Callable[..., List[tuple]]:
    """`record_calls(name, *modules)` wraps the function `name` in each module.

    Each wrapper still calls that module's original function and appends
    its positional arguments to the list that `record_calls` returns; the
    list is shared by all the modules named.  Patch every module whose
    callers look the name up there, since `from m import f` binds f anew.
    """

    def record(name: str, *modules: Any) -> List[tuple]:
        calls: List[tuple] = []
        for module in modules:
            original = getattr(module, name)

            def wrapper(*args, original=original, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    return record


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


def sparse_lower(m: ExactMatrix) -> Tuple[List[List[Tuple[int, Scalar]]], Tuple[Scalar, ...]]:
    """A dense square matrix as (per-row off-diagonal nonzeros, diagonal).

    This is the form `incremental_jordanize` and `jordan_blocks` take.
    Nonzeros right of the diagonal are kept, so that those routines see,
    and refuse, a matrix that is not lower triangular.
    """
    diag = m.diagonal_entries()
    rows = [
        [(j, x) for j, x in enumerate(row) if j != i and not x.is_zero()]
        for i, row in enumerate(m.entries)
    ]
    return rows, diag


def dense_vector(v: SparseVector, size: int) -> Tuple[Scalar, ...]:
    """A sparse vector as a dense tuple; it must store no zero."""
    out = [ZERO] * size
    for j, x in v:
        assert not x.is_zero(), f"stored zero at coordinate {j}"
        out[j] = x
    return tuple(out)


def sparse_vector(v: Sequence[Scalar]) -> SparseVector:
    """A dense vector as a sparse one: its nonzeros, coordinates increasing."""
    return tuple((j, x) for j, x in enumerate(v) if not x.is_zero())


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
