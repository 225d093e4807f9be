"""The pairwise jet product and accumulation of the first release, kept as test oracles.

`jet_mul` visits every pair of terms and skips those above the
truncation degree; both routines add each product through
`Scalar.__mul__` and `Scalar.__add__` and drop a sum the moment it
cancels.  They check `schroeder.series.jet_mul` and `add_into`, which
group the right factor by degree and accumulate through
`scalars.mul_add`, and share neither with them.
"""

from __future__ import annotations

from typing import Dict, Optional

from schroeder.scalars import ZERO, Scalar
from schroeder.series import Jet, MultiIndex


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
