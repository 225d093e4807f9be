"""Truncated composition operator on monomial coefficient vectors.

For a polynomial self-map phi with upper-triangular derivative at the
fixed point and all eigenvalues strictly inside the punctured unit disk,
the operator sends a jet f to the jet of f(phi(z)).  On the graded
monomial basis its matrix is lower triangular with the eigenvalue
products lambda^alpha on the diagonal.

The obstruction lives in the resonance set: the exponents alpha with
|alpha| >= 2 whose product lambda^alpha is again an eigenvalue.  The set
is finite because every |lambda_i| < 1: appending a factor only shrinks
|lambda^alpha|, and a product below the smallest eigenvalue modulus can
never come back to the spectrum.  `resonances` walks the exponents
depth first, one multiplication per exponent, and cuts a branch as soon
as |lambda^alpha|^2 < min |lambda_j|^2; every comparison is in Q.
`truncation_degree` is the largest |alpha| in that set (at least 1), so
the K-truncated matrix carries the complete eigenvalue-collision
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .linalg import ExactMatrix
from .maps import PolyMap, PowerMemo, monomial_power
from .scalars import Scalar, abs_sq
from .series import Jet, MultiIndex, enumerate_monomials, order_key


class UnsupportedSpectrumError(ValueError):
    """Raised when an eigenvalue is zero or not strictly inside the unit disk."""


def _check_spectrum(diag: Sequence[Scalar]) -> None:
    for i, lam in enumerate(diag):
        sq = abs_sq(lam)
        if sq == 0:
            raise UnsupportedSpectrumError(
                f"eigenvalue {i + 1} is zero; the map is not invertible at the origin"
            )
        if sq >= 1:
            raise UnsupportedSpectrumError(
                f"eigenvalue {i + 1} has modulus >= 1; attraction to the fixed point is required"
            )


def eigenvalue_products(
    diag: Sequence[Scalar], min_total: int, max_total: int
) -> List[Tuple[MultiIndex, Scalar]]:
    """All (k, lambda^k) with min_total <= |k| <= max_total, in basis order.

    The engine no longer calls this brute-force enumeration (see
    `resonances`); `bench/tracer.py` still wraps it by name.
    """
    n = len(diag)
    out = []
    for alpha in enumerate_monomials(n, max_total):
        if sum(alpha) < min_total:
            continue
        prod = Scalar.of(1)
        for lam, e in zip(diag, alpha):
            prod = prod * lam**e
        out.append((alpha, prod))
    return out


def resonances(diag: Sequence[Scalar]) -> List[Tuple[MultiIndex, Scalar]]:
    """All (alpha, lambda^alpha) with |alpha| >= 2 and lambda^alpha in the spectrum.

    Depth first over exponents.  An exponent grows only by e_i with i at
    or past its last index, so each is reached once, and its product and
    squared modulus each take one multiplication from its parent's.  A
    child with |lambda^alpha|^2 < min |lambda_j|^2 is never formed: every
    further factor has modulus below 1, so nothing beneath it can equal
    an eigenvalue.  Returned in basis order.
    """
    _check_spectrum(diag)
    n = len(diag)
    squares = [abs_sq(lam) for lam in diag]
    lo = min(squares)
    spectrum = set(diag)
    found = []
    # (alpha, lowest index alpha may still grow in, lambda^alpha, |lambda^alpha|^2)
    stack = [
        (tuple(int(j == i) for j in range(n)), i, diag[i], squares[i])
        for i in range(n)
    ]
    while stack:
        alpha, first, prod, sq = stack.pop()
        for i in range(first, n):
            child_sq = sq * squares[i]
            if child_sq < lo:
                continue
            child = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            child_prod = prod * diag[i]
            if child_prod in spectrum:
                found.append((child, child_prod))
            stack.append((child, i, child_prod, child_sq))
    found.sort(key=lambda hit: order_key(hit[0]))
    return found


def truncation_degree(diag: Sequence[Scalar]) -> int:
    """The largest |alpha| with lambda^alpha in the spectrum (at least 1).

    Raises `UnsupportedSpectrumError` unless 0 < |lambda_i| < 1 for all i.
    Then a product with |lambda^alpha|^2 < min |lambda_j|^2 cannot be an
    eigenvalue, and neither can any multiple of it, so `resonances`
    searches a finite tree.
    """
    found = resonances(diag)
    # In basis order, the last exponent has the largest degree.
    return sum(found[-1][0]) if found else 1


@dataclass(frozen=True)
class TruncatedCompOp:
    """The operator matrix over monomials of degree 1..K.

    `matrix` column j holds the coefficients of phi^basis[j]; applying
    `matrix` to a coefficient vector of f yields the coefficients of
    f(phi(z)).  `source` is phi truncated to degree K.
    """

    source: PolyMap
    degree: int
    basis: Tuple[MultiIndex, ...]
    matrix: ExactMatrix
    index: Dict[MultiIndex, int]

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return self.source.dim

    def diagonal(self) -> Tuple[Scalar, ...]:
        return self.matrix.diagonal_entries()


def _upper_triangular_derivative(phi: PolyMap) -> ExactMatrix:
    if phi.dim != phi.source_dim:
        raise ValueError("composition operator requires a self-map")
    linear = phi.linear_part()
    if not linear.is_upper_triangular():
        raise ValueError("derivative at the origin must be upper triangular")
    return linear


def build(phi: PolyMap, degree: int | None = None) -> TruncatedCompOp:
    """The truncated operator of phi at the collision-complete degree.

    Requires an upper-triangular derivative; pass `degree` to override
    the automatic truncation degree upward (never downward).
    """
    k = truncation_degree(_upper_triangular_derivative(phi).diagonal_entries())
    if degree is not None:
        if degree < k:
            raise ValueError(
                f"truncation degree {degree} is below the required degree {k}"
            )
        k = degree
    return _build_at(phi, k)


def _build_at(phi: PolyMap, k: int) -> TruncatedCompOp:
    """The operator truncated at degree k, for a k already known to suffice."""
    _upper_triangular_derivative(phi)
    source = phi.truncate(k)
    basis = tuple(enumerate_monomials(phi.dim, k))
    memo: PowerMemo = {}
    columns = [monomial_power(source, beta, memo) for beta in basis]
    rows = [
        [columns[j].coefficient(alpha) for j in range(len(basis))]
        for alpha in basis
    ]
    matrix = ExactMatrix.from_rows(rows)
    if not matrix.is_lower_triangular():
        raise RuntimeError("operator matrix is not lower triangular")
    index = {alpha: i for i, alpha in enumerate(basis)}
    return TruncatedCompOp(source, k, basis, matrix, index)


def jet_vector(op: TruncatedCompOp, f: Jet) -> Tuple[Scalar, ...]:
    """Coefficients of a jet in the operator's basis order."""
    return tuple(f.coefficient(alpha) for alpha in op.basis)


def vector_jet(op: TruncatedCompOp, vec: Sequence[Scalar]) -> Jet:
    """The jet with the given coefficients in the operator's basis order."""
    if len(vec) != op.size:
        raise ValueError(f"vector length {len(vec)} does not match basis size {op.size}")
    return Jet.build(op.dim, op.degree, list(zip(op.basis, vec)))
