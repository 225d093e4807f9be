"""The dense operator construction of the first release, kept as a test oracle.

`dense_operator` forms every column phi^beta as a `Scalar` jet from
`series_oracles.monomial_power` and reads all N coefficients of each,
so it builds the N x N `ExactMatrix` entry by entry and checks
triangularity by scanning every entry above the diagonal.  It checks
`compop.build`, which takes each column of degree >= 2 straight from the
packed Gaussian-integer power of a `maps.PowerTable`, sends each packed
monomial key to its row, reduces each nonzero entry once, and never
forms a `Jet` or the dense matrix.
"""

from __future__ import annotations

from typing import Tuple

from schroeder.linalg import ExactMatrix
from schroeder.maps import PolyMap
from schroeder.series import MultiIndex, enumerate_monomials
from series_oracles import monomial_power


def dense_operator(
    phi: PolyMap, k: int
) -> Tuple[Tuple[MultiIndex, ...], ExactMatrix]:
    """(basis, matrix) of the composition operator truncated at degree k."""
    source = phi.truncate(k)
    basis = tuple(enumerate_monomials(phi.dim, k))
    memo: dict = {}
    columns = [monomial_power(source, beta, memo) for beta in basis]
    rows = [
        [columns[j].coefficient(alpha) for j in range(len(basis))]
        for alpha in basis
    ]
    matrix = ExactMatrix.from_rows(rows)
    if not matrix.is_lower_triangular():
        raise RuntimeError("operator matrix is not lower triangular")
    return basis, matrix
