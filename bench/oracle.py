"""Independent checks for the benchmark's outputs.

Nothing here imports `schroeder`.  Polynomials are plain dicts from
exponent tuples to Gaussian rationals, and a Gaussian rational is a pair
``(re, im)`` of `fractions.Fraction`.  Ranks and null spaces come from the
installed sympy (imported lazily, so that workload set-up does not pay for
it).

The checks are:

* `residual`: F(phi(z)) - L^k F(z) through the solution degree, by
  truncated composition on dicts;
* `ranks`: derivative rank and component rank of a solution, with sympy;
* `analysis`: truncation degree, basis size, and per eigenvalue the
  geometric multiplicity, kernel and projected dimensions and witnesses,
  from an operator matrix built here and ranked by sympy;
* `resonances`: an exact depth-first search over exponents, pruned as
  soon as a partial product is smaller in modulus than every eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Q = Tuple[Fraction, Fraction]
Poly = Dict[Tuple[int, ...], Q]

F0 = Fraction(0)
F1 = Fraction(1)
ZERO: Q = (F0, F0)
ONE: Q = (F1, F0)


def qmul(a: Q, b: Q) -> Q:
    if not a[1] and not b[1]:
        return (a[0] * b[0], F0)
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qadd(a: Q, b: Q) -> Q:
    return (a[0] + b[0], a[1] + b[1])


def qsub(a: Q, b: Q) -> Q:
    return (a[0] - b[0], a[1] - b[1])


def qabs2(a: Q) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def qpow(a: Q, e: int) -> Q:
    out = ONE
    for _ in range(e):
        out = qmul(out, a)
    return out


def parse_q(value) -> Q:
    """A coefficient as written in a machine document."""
    if isinstance(value, dict):
        return (Fraction(value.get("re", "0")), Fraction(value.get("im", "0")))
    return (Fraction(value), F0)


def graded_key(alpha: Tuple[int, ...]):
    return (sum(alpha), tuple(-e for e in alpha))


def monomials(n: int, max_degree: int) -> List[Tuple[int, ...]]:
    """Exponents of degree 1..max_degree in graded order, constant left out."""

    def parts(total: int, k: int):
        if k == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in parts(total - head, k - 1):
                yield (head,) + tail

    return [a for d in range(1, max_degree + 1) for a in parts(d, n)]


def unit(n: int, i: int) -> Tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


# -- polynomials ------------------------------------------------------------


def padd_into(acc: Poly, p: Poly, c: Q = ONE) -> None:
    for a, v in p.items():
        s = qadd(acc.get(a, ZERO), qmul(v, c))
        if s[0] or s[1]:
            acc[a] = s
        else:
            acc.pop(a, None)


def pmul(p: Poly, r: Poly, degree: int) -> Poly:
    out: Poly = {}
    rd = [(b, sum(b), c) for b, c in r.items()]
    for a, ca in p.items():
        da = sum(a)
        for b, db, cb in rd:
            if da + db > degree:
                continue
            g = tuple(x + y for x, y in zip(a, b))
            s = qadd(out.get(g, ZERO), qmul(ca, cb))
            if s[0] or s[1]:
                out[g] = s
            else:
                out.pop(g, None)
    return out


class Powers:
    """phi^alpha truncated at `degree`, memoized."""

    def __init__(self, phi: Sequence[Poly], degree: int):
        self.phi = [{a: c for a, c in p.items() if sum(a) <= degree} for p in phi]
        self.degree = degree
        self.memo: Dict[Tuple[int, ...], Poly] = {}

    def __call__(self, alpha: Tuple[int, ...]) -> Poly:
        got = self.memo.get(alpha)
        if got is not None:
            return got
        if sum(alpha) == 0:
            out: Poly = {tuple(0 for _ in alpha): ONE}
        else:
            j = max(i for i, e in enumerate(alpha) if e > 0)
            rest = tuple(e - 1 if i == j else e for i, e in enumerate(alpha))
            out = pmul(self(rest), self.phi[j], self.degree)
        self.memo[alpha] = out
        return out


def linear_part(phi: Sequence[Poly]) -> List[List[Q]]:
    n = len(phi)
    return [[p.get(unit(n, j), ZERO) for j in range(n)] for p in phi]


def matmul(a: List[List[Q]], b: List[List[Q]]) -> List[List[Q]]:
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for k, x in enumerate(row):
                if (x[0] or x[1]) and (b[k][j][0] or b[k][j][1]):
                    acc = qadd(acc, qmul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def residual(phi: Sequence[Poly], comps: Sequence[Poly], power: int, degree: int) -> Poly:
    """Nonzero terms of F(phi(z)) - L^power F(z) through `degree`, tagged by component.

    The result maps ``(i,) + alpha`` to the residual coefficient; it is
    empty exactly when F solves the equation through `degree`.
    """
    n = len(phi)
    lin = linear_part(phi)
    factor = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(power):
        factor = matmul(factor, lin)
    pw = Powers(phi, degree)
    out: Poly = {}
    for i, f in enumerate(comps):
        acc: Poly = {}
        for alpha, c in f.items():
            if sum(alpha) <= degree:
                padd_into(acc, pw(alpha), c)
        for j, g in enumerate(comps):
            c = factor[i][j]
            if c[0] or c[1]:
                padd_into(acc, {a: v for a, v in g.items() if sum(a) <= degree}, qsub(ZERO, c))
        for alpha, v in acc.items():
            out[(i,) + alpha] = v
    return out


def operator_rows(phi: Sequence[Poly], degree: int):
    """Basis and dense rows of f -> f(phi) on monomials of degree 1..degree."""
    n = len(phi)
    basis = monomials(n, degree)
    pw = Powers(phi, degree)
    cols = [pw(beta) for beta in basis]
    rows = [[col.get(alpha, ZERO) for col in cols] for alpha in basis]
    return basis, rows


# -- spectrum ---------------------------------------------------------------


def resonances(diag: Sequence[Q]) -> List[Tuple[Tuple[int, ...], Q]]:
    """Every (alpha, lambda^alpha) with |alpha| >= 2 landing in the spectrum.

    Depth-first over the exponents; a branch stops as soon as the squared
    modulus of its partial product falls below the smallest squared
    eigenvalue modulus, because further factors only shrink it.
    """
    n = len(diag)
    lo = min(qabs2(x) for x in diag)
    spectrum = set(diag)
    found = []
    stack = [((), ONE, F1)]
    while stack:
        alpha, prod, mod2 = stack.pop()
        i = len(alpha)
        if i == n:
            if sum(alpha) >= 2 and prod in spectrum:
                found.append((alpha, prod))
            continue
        e, p, m = 0, prod, mod2
        sq = qabs2(diag[i])
        while m >= lo:
            stack.append((alpha + (e,), p, m))
            e, p, m = e + 1, qmul(p, diag[i]), m * sq
    found.sort(key=lambda t: graded_key(t[0]))
    return found


# -- sympy ------------------------------------------------------------------


def _domain_matrix(rows: Sequence[Sequence[Q]]):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    complex_ = any(x[1] for row in rows for x in row)
    if complex_:
        conv = [[QQ_I(QQ(x[0].numerator, x[0].denominator), QQ(x[1].numerator, x[1].denominator)) for x in row] for row in rows]
        dom = QQ_I
    else:
        conv = [[QQ(x[0].numerator, x[0].denominator) for x in row] for row in rows]
        dom = QQ
    return DomainMatrix(conv, (len(rows), len(rows[0])), dom).to_sparse()


def rank(rows: Sequence[Sequence[Q]]) -> int:
    """Rank over Q(i), by sympy."""
    if not rows or not rows[0]:
        return 0
    return _domain_matrix(rows).rank()


def ranks(comps: Sequence[Poly], n: int, degree: int) -> Tuple[int, int]:
    """(derivative rank, component rank) of a solution."""
    deriv = [[f.get(unit(n, j), ZERO) for j in range(n)] for f in comps]
    basis = monomials(n, degree)
    coeffs = [[f.get(a, ZERO) for a in basis] for f in comps]
    return rank(deriv), rank(coeffs)


def analysis(psi: Sequence[Poly]) -> Dict[str, object]:
    """Everything `analyze` reports, for a map with triangular derivative.

    Kernel and projected dimensions do not change under a linear change
    of coordinates, so they are computed in the map's own coordinates.
    """
    n = len(psi)
    lin = linear_part(psi)
    diag = [lin[i][i] for i in range(n)]
    found = resonances(diag)
    k = max([sum(a) for a, _ in found] + [1])
    basis, rows = operator_rows(psi, k)
    size = len(basis)
    records = {}
    for mu in dict.fromkeys(diag):
        shifted = [[qsub(x, mu) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        kernel = _domain_matrix(shifted).nullspace()
        kernel_rows = kernel.to_Matrix().tolist() if kernel.shape[0] else []
        proj = 0
        if kernel_rows:
            from sympy import Matrix

            proj = Matrix([r[:n] for r in kernel_rows]).rank()
        geo = n - rank([[qsub(x, mu) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(lin)])
        records[mu] = {
            "geometric_multiplicity": geo,
            "kernel_dimension": len(kernel_rows),
            "projected_dimension": proj,
            "witnesses": [list(a) for a, p in found if p == mu],
            "full_rank_possible": proj == geo,
        }
    return {
        "truncation_degree": k,
        "basis_size": size,
        "full_rank": all(r["full_rank_possible"] for r in records.values()),
        "eigenvalues": records,
        "resonances": found,
    }
