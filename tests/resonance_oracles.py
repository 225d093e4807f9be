"""The brute-force resonance search of the first release, kept as a test oracle.

`search_bound` is the degree B at which (max |lambda|^2)^B first falls
below min |lambda|^2; no product of total degree >= B can be an
eigenvalue.  `resonances` enumerates every exponent up to B in basis
order, powers each product from scratch and keeps those that lie in the
spectrum.  It checks `compop.resonances`, which walks the exponents depth
first and prunes, and shares no search code with it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from schroeder.scalars import ONE, Scalar, abs_sq
from schroeder.series import MultiIndex, enumerate_monomials


def search_bound(diag: Sequence[Scalar]) -> int:
    squares = [abs_sq(lam) for lam in diag]
    hi, lo = max(squares), min(squares)
    bound, cap = 1, hi
    while cap >= lo:
        bound += 1
        cap = cap * hi
    return bound


def resonances(diag: Sequence[Scalar]) -> List[Tuple[MultiIndex, Scalar]]:
    """Every (alpha, lambda^alpha) with 2 <= |alpha| <= B in the spectrum, in basis order."""
    spectrum = set(diag)
    found = []
    for alpha in enumerate_monomials(len(diag), search_bound(diag)):
        if sum(alpha) < 2:
            continue
        prod = ONE
        for lam, e in zip(diag, alpha):
            prod = prod * lam**e
        if prod in spectrum:
            found.append((alpha, prod))
    return found


def truncation_degree(diag: Sequence[Scalar]) -> int:
    return max([1] + [sum(alpha) for alpha, _ in resonances(diag)])
