"""Dense linear-algebra routes of the first release, kept as test oracles.

`incremental_jordanize` is the row-append Jordanization on a dense
matrix, with dense length-N chain vectors that it dots with every whole
row; only its result is written in the library's sparse form, so that
the two results compare with ==.  `report_dimensions` is the dense route
`analyze` used to take: shift the whole operator by mu and eliminate it
with `kernel_basis`.  They check `linalg.incremental_jordanize`, complete
and restricted to the corner's eigenvalues, which takes the operator's
sparse rows and never forms the shifted operator.  `chain_is_valid`
densifies a Jordan chain and replays its chain relation exactly, and
`block_sizes` reads a chain basis's block sizes for one eigenvalue.

`jordan_chains_triangular` and `transition_to_jordan_triangular` are the
first release's kernel filtration and chain matrix, with every product,
span and similarity check written on plain lists: they read only
`kernel_basis` from `linalg` (checked against sympy entry for entry), so
the library's (S, J) must equal theirs.

The kernel-dimension sequence and null spaces come from sympy's
`DomainMatrix` over Q or Q(i), and `sympy_jordan_blocks` reads block
structure from sympy's `Matrix.jordan_form`.  `sympy_kernel_basis` and
`sympy_inverse` return sympy's `Matrix.nullspace()` and `Matrix.inv()`,
to check the canonical `kernel_basis` and `inverse` entry for entry.
sympy shares no code with `linalg`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from schroeder.linalg import (
    Block,
    ExactMatrix,
    JordanBasis,
    JordanChain,
    Vector,
    kernel_basis,
    mat_vec,
    vectors_rank,
)
from schroeder.scalars import ONE, ZERO, Scalar


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def block_sizes(basis: JordanBasis, lam: Scalar) -> List[int]:
    """The lengths of `basis`'s chains of eigenvalue lam, increasing."""
    return sorted(c.length for c in basis.chains if c.eigenvalue == lam)


def chain_is_valid(m: ExactMatrix, chain: JordanChain) -> bool:
    """Replay (M - lam) along the densified chain and check the shift relation exactly."""
    shifted = m.shift(chain.eigenvalue)
    prev = tuple([ZERO] * m.rows)
    for sparse in chain.vectors:
        v = [ZERO] * m.cols
        for j, x in sparse:
            v[j] = x
        if all(x.is_zero() for x in v):
            return False
        if mat_vec(shifted, v) != prev:
            return False
        prev = tuple(v)
    return True


def _list_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _list_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vector:
    return tuple(_dot(row, v) for row in a)


class _Span:
    """Echelon rows, each 1 at its pivot and reduced against the rows before it."""

    def __init__(self, vectors: Sequence[Sequence[Scalar]] = ()) -> None:
        self.rows: List[Tuple[int, List[Scalar]]] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence[Scalar]) -> bool:
        """Add v; False if it is already in the span."""
        v = list(v)
        for p, row in self.rows:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
        pivot = next((c for c, x in enumerate(v) if not x.is_zero()), None)
        if pivot is None:
            return False
        inv = ONE / v[pivot]
        self.rows.append((pivot, [x * inv for x in v]))
        return True


def _normalize_chain(lam: Scalar, vectors: Sequence[Vector]) -> JordanChain:
    """Leading eigenvector coordinate 1, zeroed in the higher vectors by shift moves."""
    vecs = [list(v) for v in vectors]
    lead = next(i for i, x in enumerate(vecs[0]) if not x.is_zero())
    inv = ONE / vecs[0][lead]
    vecs = [[x * inv for x in v] for v in vecs]
    for shift in range(1, len(vecs)):
        mu = vecs[shift][lead]
        if mu.is_zero():
            continue
        for i in range(shift, len(vecs)):
            vecs[i] = [x - mu * y for x, y in zip(vecs[i], vecs[i - shift])]
    return JordanChain(
        lam, tuple(tuple((j, x) for j, x in enumerate(v) if not x.is_zero()) for v in vecs)
    )


def jordan_chains_triangular(m: ExactMatrix, lam: Scalar) -> List[JordanChain]:
    """The kernel filtration of the first release, on plain lists.

    Kernels of (M - lam)^p up to lam's count on the diagonal; per p,
    from the longest down, the first kernel vectors that enlarge the span
    of the kernel below and the images of the tops already taken start
    chains of length p.
    """
    n = m.rows
    mult = sum(m.entries[i][i] == lam for i in range(n))
    if not mult:
        return []
    shifted = [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.entries)]
    power = shifted
    kernels = [kernel_basis(ExactMatrix.from_rows(power))]
    while len(kernels[-1]) < mult:
        power = _list_mul(power, shifted)
        kernels.append(kernel_basis(ExactMatrix.from_rows(power)))
    chains: List[JordanChain] = []
    carried: List[Vector] = []
    for p in range(len(kernels), 0, -1):
        lower = kernels[p - 2] if p >= 2 else []
        need = len(kernels[p - 1]) - len(lower) - len(carried)
        span = _Span(lower + carried)
        tops = [v for v in kernels[p - 1] if span.add(v)][:need]
        assert len(tops) == need
        for t in tops:
            vecs = [t]
            for _ in range(p - 1):
                vecs.append(_list_vec(shifted, vecs[-1]))
            vecs.reverse()
            chains.append(_normalize_chain(lam, vecs))
        carried = [_list_vec(shifted, v) for v in carried + tops]
    return chains


def transition_to_jordan_triangular(a: ExactMatrix) -> Tuple[List[List[Scalar]], List[List[Scalar]]]:
    """(S, J) as row lists: the chains of `jordan_chains_triangular` as columns of S,
    eigenvalues in order of first occurrence, blocks by increasing length,
    and a @ S == S @ J checked by two full products."""
    n = a.rows
    cols: List[List[Scalar]] = []
    jordan = [[ZERO] * n for _ in range(n)]
    for lam in dict.fromkeys(a.entries[i][i] for i in range(n)):
        for chain in sorted(jordan_chains_triangular(a, lam), key=lambda c: c.length):
            for i, v in enumerate(reversed(chain.vectors)):
                pos = len(cols)
                jordan[pos][pos] = lam
                if i:
                    jordan[pos][pos - 1] = ONE
                col = [ZERO] * n
                for j, x in v:
                    col[j] = x
                cols.append(col)
    s = [list(row) for row in zip(*cols)]
    assert _list_mul(a.entries, s) == _list_mul(s, jordan)
    return s, jordan


def parse_jordan_corner(corner: ExactMatrix) -> List[Block]:
    """Split a dense lower-triangular Jordan-form matrix into its blocks."""
    n = corner.rows
    blocks: List[Block] = []
    i = 0
    while i < n:
        lam = corner.at(i, i)
        length = 1
        while (
            i + length < n
            and corner.at(i + length, i + length - 1) == ONE
            and corner.at(i + length, i + length) == lam
        ):
            length += 1
        blocks.append(Block(lam, length, i))
        i += length
    for i in range(n):
        for j in range(n):
            expect = ZERO
            if i == j:
                expect = corner.at(i, i)
            elif i == j + 1 and any(
                b.offset <= j and i < b.offset + b.length for b in blocks
            ):
                expect = ONE
            if corner.at(i, j) != expect:
                raise ValueError(
                    f"corner is not in lower Jordan form at entry ({i}, {j})"
                )
    return blocks


class _Chain:
    def __init__(self, eigenvalue: Scalar, vectors: List[List[Scalar]]):
        self.eigenvalue = eigenvalue
        self.vectors = vectors


def incremental_jordanize(u: ExactMatrix, n: int) -> JordanBasis:
    """The row-append Jordanization on dense chain vectors.

    Same contract, update formulas and choices as
    `linalg.incremental_jordanize`, so the two results must be `==`.
    """
    if not u.is_lower_triangular():
        raise ValueError("matrix is not lower triangular")
    blocks = parse_jordan_corner(ExactMatrix.from_rows([row[:n] for row in u.entries[:n]]))
    big = u.rows
    chains: List[_Chain] = []
    for b in blocks:
        vecs = []
        for i in range(b.length - 1, -1, -1):
            v = [ZERO] * big
            v[b.offset + i] = ONE
            vecs.append(v)
        chains.append(_Chain(b.eigenvalue, vecs))

    for r in range(n, big):
        row = u.entries[r]
        d = row[r]
        couplings = [[_dot(row[:r], v[:r]) for v in c.vectors] for c in chains]
        eligible = [
            i
            for i, c in enumerate(chains)
            if c.eigenvalue == d and not couplings[i][0].is_zero()
        ]
        winner: Optional[int] = None
        if eligible:
            winner = eligible[0]
            for i in eligible[1:]:
                if len(chains[i].vectors) >= len(chains[winner].vectors):
                    winner = i
            w = chains[winner]
            wc = couplings[winner]
            for i in eligible:
                if i == winner:
                    continue
                c = chains[i]
                gamma = couplings[i][0] / wc[0]
                for k in range(len(c.vectors)):
                    c.vectors[k] = [
                        x - gamma * y for x, y in zip(c.vectors[k], w.vectors[k])
                    ]
                    couplings[i][k] = couplings[i][k] - gamma * wc[k]
        for i, c in enumerate(chains):
            if i == winner:
                continue
            a = couplings[i]
            k = len(c.vectors)
            if c.eigenvalue != d:
                t = a[0] / (c.eigenvalue - d)
                c.vectors[0][r] = t
                for j in range(1, k):
                    t = (t - a[j]) / (d - c.eigenvalue)
                    c.vectors[j][r] = t
            else:
                for j in range(k - 1):
                    c.vectors[j][r] = a[j + 1]
        if winner is not None:
            w = chains[winner]
            a = couplings[winner]
            eig = [ZERO] * big
            eig[r] = a[0]
            for j in range(len(w.vectors) - 1):
                w.vectors[j][r] = a[j + 1]
            w.vectors.insert(0, eig)
        else:
            v = [ZERO] * big
            v[r] = ONE
            chains.append(_Chain(d, [v]))

    final = tuple(
        JordanChain(
            c.eigenvalue,
            tuple(
                tuple((j, x) for j, x in enumerate(v) if not x.is_zero())
                for v in c.vectors
            ),
        )
        for c in chains
    )
    return JordanBasis(final, tuple(blocks))


def report_dimensions(u: ExactMatrix, n: int, mu: Scalar) -> Tuple[int, int, int]:
    """(corner kernel, kernel, n-prefix rank of the kernel) by dense elimination of u - mu."""
    kb = kernel_basis(u.shift(mu))
    return (
        len(kernel_basis(ExactMatrix.from_rows([row[:n] for row in u.entries[:n]]).shift(mu))),
        len(kb),
        vectors_rank([v[:n] for v in kb]),
    )


def shifted_domain_matrix(m: ExactMatrix, mu: Scalar):
    """m - mu as a sympy `DomainMatrix` over Q, or over Q(i) if any entry is complex."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    rows = [
        [x - mu if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    if any(x.im for row in rows for x in row):
        dom = QQ_I
        conv = [
            [QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator)) for x in row]
            for row in rows
        ]
    else:
        dom = QQ
        conv = [[QQ(x.re.numerator, x.re.denominator) for x in row] for row in rows]
    return DomainMatrix(conv, (m.rows, m.cols), dom)


def nullspace_dimensions(m: ExactMatrix, mu: Scalar, n: int) -> Tuple[int, int]:
    """(dim ker(m - mu), rank of the kernel's first n coordinates), by sympy."""
    kernel = shifted_domain_matrix(m, mu).nullspace()
    if kernel.shape[0] == 0:
        return 0, 0
    return kernel.shape[0], kernel[:, :n].rank()


def rank_sequence_oracle(m: ExactMatrix, lam: Scalar) -> List[int]:
    """dim ker((m - lam I)^p) for p = 1..size, by sympy.

    The sequence is nondecreasing and eventually constant; the number of
    Jordan blocks of size >= p for lam is its p-th difference.
    """
    shifted = shifted_domain_matrix(m, lam)
    power = shifted
    dims = []
    for _ in range(m.rows):
        dims.append(m.rows - power.rank())
        power = power * shifted
    return dims


def _sympy_pair(x: Scalar):
    from sympy import Rational

    a, b, d = x.ints()
    return Rational(a, d), Rational(b, d)


def _scalar_of(x) -> Scalar:
    """A sympy Gaussian rational as a `Scalar`."""
    from sympy import Rational, im, re

    r, i = Rational(re(x)), Rational(im(x))
    return Scalar(Fraction(int(r.p), int(r.q)), Fraction(int(i.p), int(i.q)))


def _sympy_matrix(m: ExactMatrix):
    from sympy import I, Matrix

    return Matrix([[p + q * I for p, q in map(_sympy_pair, row)] for row in m.entries])


def sympy_kernel_basis(m: ExactMatrix) -> List[Vector]:
    """sympy's `Matrix.nullspace()`: per free column of the reduced row
    echelon form, the kernel vector that is 1 there and 0 at the other
    free columns."""
    return [tuple(_scalar_of(x) for x in v) for v in _sympy_matrix(m).nullspace()]


def sympy_inverse(m: ExactMatrix) -> Optional[ExactMatrix]:
    """sympy's `Matrix.inv()`, or None when the rank says m is singular."""
    a = _sympy_matrix(m)
    if a.rank() < m.rows:
        return None
    inv = a.inv()
    return ExactMatrix.from_rows(
        [[_scalar_of(inv[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    )


def sympy_rank(vectors: Sequence[Sequence[Scalar]], length: int) -> int:
    """The rank of the length-`length` vectors as rows of a sympy `Matrix`."""
    from sympy import I, Matrix

    rows = [[p + q * I for p, q in map(_sympy_pair, v)] for v in vectors]
    return Matrix(len(rows), length, [x for row in rows for x in row]).rank()


def jordan_block_pairs(blocks: Sequence[Tuple[Scalar, int]]) -> Counter:
    """The multiset of (eigenvalue, block size), eigenvalues as sympy (re, im) pairs."""
    return Counter((_sympy_pair(lam), size) for lam, size in blocks)


def sympy_jordan_blocks(m: ExactMatrix) -> Counter:
    """The multiset of (eigenvalue, block size) of m, by sympy's `jordan_form`.

    Entries go in through `Scalar.ints()`; sympy's J is upper Jordan, so a
    block ends at each zero on its superdiagonal.
    """
    from sympy import I, Matrix, Rational, im, re

    rows = [[p + q * I for p, q in map(_sympy_pair, row)] for row in m.entries]
    _, j = Matrix(rows).jordan_form()
    sizes: Counter = Counter()
    start = 0
    for i in range(m.rows):
        if i + 1 == m.rows or j[i, i + 1] == 0:
            lam = j[i, i]
            sizes[((Rational(re(lam)), Rational(im(lam))), i + 1 - start)] += 1
            start = i + 1
    return sizes
