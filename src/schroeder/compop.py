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
never come back to the spectrum.  An eigenvalue that owns a prime, one
dividing its reduced |lambda_i|^2 and no other |lambda_k|^2, is in no
resonance, so `resonances` keeps the entangled rest (by gcds alone) and
walks their exponents depth first, one multiplication per exponent,
cutting a branch as soon as |lambda^alpha|^2 < min |lambda_j|^2 over
them.  Squared moduli are pairs (a^2 + b^2, d^2) of `Scalar.ints`,
compared by cross-multiplication.
`truncation_degree` is the largest |alpha| in that set (at least 1), so
the K-truncated matrix carries the complete eigenvalue-collision
structure.

`build(phi, K)` is the one operator builder, for a K its caller has
searched, and `eigenvalue_products` is the lifter's table of
lambda^alpha past K: it holds the powers of single eigenvalues and
multiplies out a product only at an exponent that is read.  The
degree-1 columns are phi's own components; every other column
phi^beta is scattered straight from the
packed Gaussian-integer power P^beta of one `maps.PowerTable`, the kind
of table that composition, the lifter and `verify` use, with no `Jet`.
No exponent -> row map is formed: e_j is row j and a term of degree >= 2
is found by its packed key; `basis.index` finds a row when one is needed.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple

from .linalg import ExactMatrix, SparseVector
from .maps import PolyMap, PowerTable, _Memo
from .scalars import ONE, ZERO, Scalar, from_ints
from .series import Jet, MultiIndex, enumerate_monomials, order_key


class UnsupportedSpectrumError(ValueError):
    """Raised when an eigenvalue is zero or not strictly inside the unit disk."""


def _squares(diag: Sequence[Scalar]) -> List[Tuple[int, int]]:
    """Each |lambda_i|^2 as (a^2 + b^2, d^2); raises unless 0 < |lambda_i| < 1."""
    squares = [(a * a + b * b, d * d) for a, b, d in map(Scalar.ints, diag)]
    for i, (n, q) in enumerate(squares):
        if n == 0:
            raise UnsupportedSpectrumError(
                f"eigenvalue {i + 1} is zero; the map is not invertible at the origin"
            )
        if n >= q:
            raise UnsupportedSpectrumError(
                f"eigenvalue {i + 1} has modulus >= 1; attraction to the fixed point is required"
            )
    return squares


def eigenvalue_products(diag: Sequence[Scalar], max_power: int) -> _Memo:
    """lambda^alpha at every exponent alpha with each alpha_i <= max_power, formed when read.

    The table starts as the pairs (e*e_i, lambda_i^e) for 1 <= e <=
    max_power, in that order by i then e, one multiplication each.  Any
    other lambda^alpha is the product of its factors lambda_i^alpha_i,
    at most n - 1 multiplications, formed on its first lookup and kept.
    The lifter's divisors come from here, so it forms a product only at
    an exponent it solves.
    """
    n = len(diag)
    powers = []
    for lam in diag:
        row = [lam]
        for _ in range(max_power - 1):
            row.append(row[-1] * lam)
        powers.append(row)

    def form(alpha: MultiIndex) -> Scalar:
        factors = [row[e - 1] for row, e in zip(powers, alpha) if e]
        return reduce(mul, factors) if factors else ONE

    table = _Memo(form)
    for i, row in enumerate(powers):
        for e, prod in enumerate(row, 1):
            table[(0,) * i + (e,) + (0,) * (n - i - 1)] = prod
    return table


def _entangled(squares: Sequence[Tuple[int, int]]) -> List[int]:
    """The i such that each prime of the reduced |lambda_i|^2 divides another's.

    One product of the reduced numerators x denominators; per i, one
    division gives the others' product and a gcd loop strips its primes.
    """
    cores = [n * q // math.gcd(n, q) ** 2 for n, q in squares]
    total = math.prod(cores)
    keep = []
    for i, core in enumerate(cores):
        g = math.gcd(core, total // core)
        while g > 1:
            core //= g
            g = math.gcd(core, g)
        if core == 1:
            keep.append(i)
    return keep


def resonances(diag: Sequence[Scalar]) -> List[Tuple[MultiIndex, Scalar]]:
    """All (alpha, lambda^alpha) with |alpha| >= 2 and lambda^alpha in the spectrum.

    If a prime p divides the reduced |lambda_i|^2 and no other
    |lambda_k|^2, p-adic valuations of |lambda^alpha|^2 = |lambda_j|^2
    force alpha_i = 0 for j != i and alpha = e_i for j = i: lambda_i is
    neither a factor nor the value of a resonance.  So the walk, depth
    first, runs over the other, entangled eigenvalues only.  An exponent
    grows only by e_i with i at or past its last index, so each is
    reached once, and its product and squared modulus each take one
    multiplication from its parent's.  A child with |lambda^alpha|^2
    below the smallest entangled |lambda_j|^2 is never formed: every
    further factor has modulus below 1, so nothing beneath it can equal
    one of them.  Returned in basis order.
    """
    squares = _squares(diag)
    n = len(diag)
    keep = _entangled(squares)
    if not keep:
        return []
    lo_n, lo_q = squares[keep[0]]
    for i in keep[1:]:
        x, y = squares[i]
        if x * lo_q < lo_n * y:
            lo_n, lo_q = x, y
    spectrum = {diag[i] for i in keep}
    found = []
    # (alpha, first position in keep it may grow by, lambda^alpha, |lambda^alpha|^2 as p/q)
    stack = [
        (tuple(int(j == i) for j in range(n)), start, diag[i], *squares[i])
        for start, i in enumerate(keep)
    ]
    while stack:
        alpha, first, prod, p, q = stack.pop()
        for at, i in enumerate(keep[first:], first):
            child_p, child_q = p * squares[i][0], q * squares[i][1]
            if child_p * lo_q < lo_n * child_q:
                continue
            child = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            child_prod = prod * diag[i]
            if child_prod in spectrum:
                found.append((child, child_prod))
            stack.append((child, at, child_prod, child_p, child_q))
    found.sort(key=lambda hit: order_key(hit[0]))
    return found


def truncation_degree(diag: Sequence[Scalar]) -> int:
    """The largest |alpha| with lambda^alpha in the spectrum (at least 1).

    Raises `UnsupportedSpectrumError` unless 0 < |lambda_i| < 1 for all i.
    Then a product with |lambda^alpha|^2 < min |lambda_j|^2 cannot be an
    eigenvalue, and neither can any multiple of it, so `resonances`
    searches a finite tree, over the entangled eigenvalues only: with
    none, as when each owns a prime, it forms no product.
    """
    found = resonances(diag)
    # In basis order, the last exponent has the largest degree.
    return sum(found[-1][0]) if found else 1


class TruncatedCompOp(NamedTuple):
    """The operator matrix over monomials of degree 1..K, kept sparse.

    Column j of the matrix holds the coefficients of phi^basis[j];
    applying it to a coefficient vector of f yields the coefficients of
    f(phi(z)).  The matrix is lower triangular: `lower[i]` lists the
    (column, entry) nonzeros of row i left of the diagonal, in column
    order, and `diag[i]` is the diagonal entry lambda^basis[i].  `matrix`
    is the dense N x N form, built anew on each read.  `source` is phi
    truncated to degree K.
    """

    source: PolyMap
    degree: int
    basis: Tuple[MultiIndex, ...]
    lower: Tuple[Tuple[Tuple[int, Scalar], ...], ...]
    diag: Tuple[Scalar, ...]

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def matrix(self) -> ExactMatrix:
        """The dense N x N matrix, built on each read; the solver never reads it."""
        rows = []
        for i, nonzeros in enumerate(self.lower):
            row = [ZERO] * self.size
            for j, x in nonzeros:
                row[j] = x
            row[i] = self.diag[i]
            rows.append(row)
        return ExactMatrix.from_rows(rows)


def _upper_triangular_derivative(phi: PolyMap) -> None:
    if phi.dim != phi.source_dim:
        raise ValueError("composition operator requires a self-map")
    if not phi.linear_part().is_upper_triangular():
        raise ValueError("derivative at the origin must be upper triangular")


def build(phi: PolyMap, k: int) -> TruncatedCompOp:
    """The operator of phi truncated at degree k; callers pass the K they searched.

    Requires an upper-triangular derivative.  Each column phi^beta is
    scattered into the rows of its terms; a term in a row above its
    column would break triangularity.  A degree-1 column, beta = e_i, is
    the component phi_i itself, with its term e_j in row j.  Every other
    column is the packed power P^beta of one `maps.PowerTable`, read into
    rows by packed key (`rows` holds the rows of degree >= 2), each entry
    reduced once over D^|beta|; at k = 1 there is no such column and no
    table is formed.
    """
    _upper_triangular_derivative(phi)
    source = phi.truncate(k)
    basis = tuple(enumerate_monomials(phi.dim, k))
    table = PowerTable(source) if k > 1 else None
    rows = {table.encode(alpha): i for i, alpha in enumerate(basis) if sum(alpha) >= 2}
    lower: List[List[Tuple[int, Scalar]]] = [[] for _ in basis]
    diag = [ZERO] * len(basis)
    for j, beta in enumerate(basis):
        m = sum(beta)
        if m == 1:
            column = [(a.index(1) if sum(a) == 1 else rows[table.encode(a)], x)
                      for a, x in source.components[beta.index(1)].coeffs.items()]
        else:
            d, parts = table.denom_powers[m], table.power(beta).values()
            if table.real:
                column = [(rows[g], from_ints(v, 0, d)) for p in parts for g, v in p.items() if v]
            else:
                column = [(rows[g], from_ints(a, b, d))
                          for p in parts for g, (a, b) in p.items() if a or b]
        for i, x in column:
            if i < j:
                raise RuntimeError(f"operator matrix is not lower triangular in column {j}")
            if i == j:
                diag[i] = x
            else:
                lower[i].append((j, x))
    return TruncatedCompOp(source, k, basis, tuple(map(tuple, lower)), tuple(diag))


def jet_vector(op: TruncatedCompOp, f: Jet) -> Tuple[Scalar, ...]:
    """Coefficients of a jet in the operator's basis order."""
    return tuple(f.coefficient(alpha) for alpha in op.basis)


def vector_jet(op: TruncatedCompOp, vec: SparseVector) -> Jet:
    """The jet with a sparse vector's coefficients in the operator's basis order."""
    if vec and not (vec[0][0] >= 0 and vec[-1][0] < op.size):
        raise ValueError(
            f"coordinates {vec[0][0]}..{vec[-1][0]} are outside basis size {op.size}"
        )
    return Jet(op.dim, op.degree, {op.basis[j]: x for j, x in vec})
