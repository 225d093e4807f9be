"""Exact linear algebra over Gaussian rationals.

Dense elimination has one code path: a reduced row echelon form grown
one vector at a time (`_Echelon.add`) on small dense vectors, pivoting
on the first nonzero entry (no magnitude concerns over an exact field).
`kernel_basis`, `inverse`, `vectors_rank`, `rank` and the chain tops of
`jordan_chains_triangular` all read it; a span has exactly one reduced
form, so kernel bases and inverses are canonical.  The other routines
use the structure of the sparse, lower-triangular composition operator,
taking it as rows: ``lower[i]`` lists the (column, entry) nonzeros of
row i left of the diagonal, and ``diag[i]`` is the diagonal entry.  No
N x N matrix is formed.

* `jordan_chains_triangular` finds the chains of a (small, dense)
  triangular matrix for one eigenvalue through the kernel filtration
  ker((M - lambda)^p), which is complete once its dimension reaches the
  count of lambda on the diagonal; at p = 1, as for a simple eigenvalue,
  the kernel basis is the chain tops.  `transition_to_jordan_triangular`
  stacks them into a chain matrix S and a Jordan form J, and checks
  M S = S J exactly, one column at a time.
* `jordan_blocks` reads the blocks of a lower Jordan-form corner in one
  pass over its rows.
* `incremental_jordanize` appends the rows of M below a protected
  Jordan corner one at a time, maintaining a chain basis.  It only ever
  appends chains, so chain j extends corner block j.  A row is coupled
  only with the chains that have support on its nonzero columns.  With
  `sweep` it extends only the chains of the eigenvalues given; for each
  corner eigenvalue mu in it, the eigenvectors of the mu-chains are a
  basis of ker(M - mu), so one sweep gives the kernels and the chains
  at once.

Chain storage convention: a `JordanChain` holds sparse vectors, tuples
of (coordinate, nonzero entry) pairs in increasing coordinate order;
``vectors[0]`` is the eigenvector and ``(M - lambda) vectors[i] =
vectors[i-1]``.  `jordan_chains_triangular` finds and normalizes each
chain on dense vectors (plain tuples of scalars) and converts it once;
`incremental_jordanize` works on dicts from coordinate to nonzero
scalar.  Dense matrices are immutable `ExactMatrix` objects.
"""

from __future__ import annotations

from bisect import bisect
from itertools import islice
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .scalars import ONE, ZERO, Scalar, scalar_inv

Vector = Tuple[Scalar, ...]
#: A sparse vector: (coordinate, nonzero entry) pairs, coordinates increasing.
SparseVector = Tuple[Tuple[int, Scalar], ...]
#: Per row, the (column, entry) nonzeros left of the diagonal.
LowerRows = Sequence[Sequence[Tuple[int, Scalar]]]


class SingularMatrixError(ValueError):
    """Raised when an inverse or a unique solve is requested of a singular matrix."""


class ExactMatrix(NamedTuple):
    rows: int
    cols: int
    entries: Tuple[Tuple[Scalar, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> ExactMatrix:
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        return ExactMatrix(len(rows), width, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> ExactMatrix:
        return ExactMatrix.from_rows(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def shift(self, lam: Scalar) -> ExactMatrix:
        """self - lam * I (square matrices only); only the diagonal changes."""
        self._square()
        return ExactMatrix(
            self.rows,
            self.cols,
            tuple(
                row[:i] + (row[i] - lam,) + row[i + 1 :]
                for i, row in enumerate(self.entries)
            ),
        )

    def is_lower_triangular(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.rows)
            for j in range(min(i, self.cols))
        )

    def diagonal_entries(self) -> Vector:
        self._square()
        return tuple(self.entries[i][i] for i in range(self.rows))

    def _square(self) -> None:
        if self.rows != self.cols:
            raise ValueError(f"square matrix required, got {self.rows}x{self.cols}")


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    bt = tuple(zip(*b.entries))
    return ExactMatrix(a.rows, b.cols, tuple(tuple(_dot(ra, cb) for cb in bt) for ra in a.entries))


def mat_vec(a: ExactMatrix, v: Sequence[Scalar]) -> Vector:
    if a.cols != len(v):
        raise ValueError(f"vector length {len(v)} does not match {a.cols} columns")
    return tuple(_dot(row, v) for row in a.entries)


def mat_pow(a: ExactMatrix, k: int) -> ExactMatrix:
    """a^k by repeated squaring: about 2 log2(k) products."""
    a._square()
    if k < 0:
        raise ValueError("negative matrix power")
    out = ExactMatrix.identity(a.rows)
    while k:
        if k & 1:
            out = mat_mul(out, a)
        k >>= 1
        if k:
            a = mat_mul(a, a)
    return out


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for a, b in zip(u, v):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


class _Echelon:
    """The reduced row echelon form of a span, grown one vector at a time.

    `rows` are sorted by their pivot columns `pivots`; each row is 1 at
    its own pivot and 0 at every other.  A span has exactly one such form,
    so the rows do not depend on the order the vectors arrive in.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, vectors: Iterable[Sequence[Scalar]] = ()) -> None:
        self.rows: List[List[Scalar]] = []
        self.pivots: List[int] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence[Scalar]) -> bool:
        """Reduce `v` against the rows and keep what is left; False if nothing is."""
        v = list(v)
        for c, row in zip(self.pivots, self.rows):
            f = v[c]
            if not f.is_zero():
                v = [x if y.is_zero() else x - f * y for x, y in zip(v, row)]
        pivot = next((c for c, x in enumerate(v) if not x.is_zero()), None)
        if pivot is None:
            return False
        inv = scalar_inv(v[pivot])
        v = [x if x.is_zero() else x * inv for x in v]
        for i, row in enumerate(self.rows):
            f = row[pivot]
            if not f.is_zero():
                self.rows[i] = [x if y.is_zero() else x - f * y for x, y in zip(row, v)]
        at = bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, v)
        return True


def rank(m: ExactMatrix) -> int:
    return vectors_rank(m.entries)


def vectors_rank(vectors: Iterable[Sequence[Scalar]]) -> int:
    """Rank of the span of equal-length vectors, read one at a time.

    Once the rank equals the vector length the span is full and no
    further vector is read, so `vectors` may be a lazy iterable; an empty
    one has rank 0.
    """
    echelon = _Echelon()
    for v in vectors:
        if echelon.add(v) and len(echelon.rows) == len(v):
            break
    return len(echelon.rows)


def kernel_basis(m: ExactMatrix) -> List[Vector]:
    """Exact basis of the null space; empty list iff m is injective.

    The basis is canonical: one vector per free column of the reduced row
    echelon form, with a 1 in that free coordinate.
    """
    echelon = _Echelon(m.entries)
    basis: List[Vector] = []
    for fc in (c for c in range(m.cols) if c not in echelon.pivots):
        v = [ZERO] * m.cols
        v[fc] = ONE
        for row, pc in zip(echelon.rows, echelon.pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def _sparse_dot(nonzeros: Sequence[Tuple[int, Scalar]], v: Dict[int, Scalar]) -> Scalar:
    """The dot product of a row, given by its (column, entry) nonzeros, with a sparse vector."""
    acc = ZERO
    for j, x in nonzeros:
        y = v.get(j)
        if y is not None:
            acc = acc + x * y
    return acc


def _sparse_axpy(v: Dict[int, Scalar], f: Scalar, w: Dict[int, Scalar]) -> None:
    """v += f * w in place, dropping the entries that cancel."""
    for j, y in w.items():
        x = v.get(j, ZERO) + f * y
        if x.is_zero():
            v.pop(j, None)
        else:
            v[j] = x


def _set_nonzero(v: Dict[int, Scalar], j: int, x: Scalar) -> None:
    """v[j] = x, keeping the sparse vector free of stored zeros."""
    if not x.is_zero():
        v[j] = x


def _frozen(v: Dict[int, Scalar]) -> SparseVector:
    return tuple(sorted(v.items()))


def _check_lower(lower: LowerRows, diag: Sequence[Scalar]) -> int:
    """The size of a sparse lower-triangular matrix, after checking its shape."""
    if len(lower) != len(diag):
        raise ValueError(f"{len(lower)} rows but {len(diag)} diagonal entries")
    for i, row in enumerate(lower):
        for j, _ in row:
            if not 0 <= j < i:
                raise ValueError("matrix is not lower triangular")
    return len(diag)


def inverse(m: ExactMatrix) -> ExactMatrix:
    m._square()
    n = m.rows
    echelon = _Echelon(a + b for a, b in zip(m.entries, ExactMatrix.identity(n).entries))
    if echelon.pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return ExactMatrix.from_rows([row[n:] for row in echelon.rows])


class JordanChain(NamedTuple):
    """Sparse vectors e_1..e_k with (M - lam) e_1 = 0 and (M - lam) e_j = e_{j-1}."""

    eigenvalue: Scalar
    vectors: Tuple[SparseVector, ...]

    @property
    def length(self) -> int:
        return len(self.vectors)


class Block(NamedTuple):
    """A Jordan block of the protected corner: eigenvalue, length, offset."""

    eigenvalue: Scalar
    length: int
    offset: int


class JordanBasis(NamedTuple):
    """A chain basis of a matrix that extends the blocks of a protected corner.

    Chain j extends corner block j (`original_blocks[j]`); the chains
    past the last block start below the corner.  There is no chain
    matrix: forming one is the N x N densification the sparse routines
    exist to avoid.
    """

    chains: Tuple[JordanChain, ...]
    original_blocks: Tuple[Block, ...]


def _normalize_chain(lam: Scalar, vectors: Sequence[Vector]) -> JordanChain:
    """Canonical form of a dense chain, returned sparse: leading eigenvector
    coordinate 1, and that coordinate zeroed in all higher chain vectors by
    shift moves.  Zero entries, and a lead that is already 1, cost nothing."""
    vecs = [list(v) for v in vectors]
    lead = next((i for i, x in enumerate(vecs[0]) if not x.is_zero()), None)
    if lead is None:
        raise ValueError("zero eigenvector in chain")
    if vecs[0][lead] != ONE:
        inv = scalar_inv(vecs[0][lead])
        vecs = [[x if x.is_zero() else x * inv for x in v] for v in vecs]
    for shift in range(1, len(vecs)):
        mu = vecs[shift][lead]
        if mu.is_zero():
            continue
        for i in range(shift, len(vecs)):
            vecs[i] = [x if y.is_zero() else x - mu * y for x, y in zip(vecs[i], vecs[i - shift])]
    return JordanChain(
        lam, tuple(tuple((j, x) for j, x in enumerate(v) if not x.is_zero()) for v in vecs)
    )


def jordan_chains_triangular(m: ExactMatrix, lam: Scalar) -> List[JordanChain]:
    """A maximal independent set of chains of a triangular matrix for lam.

    The chains are found and normalized on dense vectors and returned
    sparse, sorted by decreasing length; the empty list when lam is not a
    diagonal entry.  Block sizes agree with the differences of the
    sequence dim ker((M - lam)^p), which rises strictly to the algebraic
    multiplicity of lam, its count on the diagonal of a triangular M, and
    then stays there; so the powers stop at the longest block.  When
    ker(M - lam) already has that dimension, every block has length 1
    and its canonical basis is the set of chain tops.
    """
    m._square()
    if not (m.is_lower_triangular() or m.is_upper_triangular()):
        raise ValueError("matrix is not triangular")
    mult = m.diagonal_entries().count(lam)
    if not mult:
        return []
    shifted = m.shift(lam)
    power = shifted
    kernels = [kernel_basis(shifted)]
    if len(kernels[0]) == mult:
        return [_normalize_chain(lam, [v]) for v in kernels[0]]
    while len(kernels[-1]) < mult:
        power = mat_mul(power, shifted)
        kernels.append(kernel_basis(power))
    chains: List[JordanChain] = []
    carried: List[Vector] = []
    for p in range(len(kernels), 0, -1):
        lower = kernels[p - 2] if p >= 2 else []
        need = len(kernels[p - 1]) - len(lower) - len(carried)
        span = _Echelon(lower + carried)
        # The first `need` kernel vectors that each enlarge the span, in order.
        tops = list(islice((v for v in kernels[p - 1] if span.add(v)), need))
        if len(tops) != need:
            raise RuntimeError("kernel filtration did not supply enough chain tops")
        for t in tops:
            vecs = [t]
            for _ in range(p - 1):
                vecs.append(mat_vec(shifted, vecs[-1]))
            vecs.reverse()
            chains.append(_normalize_chain(lam, vecs))
        if p > 1:
            carried = [mat_vec(shifted, v) for v in carried + tops]
    return chains


def jordan_blocks(lower: LowerRows, diag: Sequence[Scalar]) -> List[Block]:
    """The blocks of a sparse lower-triangular Jordan-form matrix, in one pass.

    A row continues the block above it when it repeats that block's
    eigenvalue and holds exactly a 1 under it; any other row starts a
    block and must be empty left of the diagonal.
    """
    starts: List[int] = []
    for i, row in enumerate(lower):
        if starts and diag[i] == diag[i - 1] and list(row) == [(i - 1, ONE)]:
            continue
        if row:
            raise ValueError(f"corner is not in lower Jordan form in row {i}")
        starts.append(i)
    ends = starts[1:] + [len(lower)]
    return [Block(diag[a], b - a, a) for a, b in zip(starts, ends)]


class _MutableChain:
    __slots__ = ("eigenvalue", "vectors")

    def __init__(self, eigenvalue: Scalar, vectors: List[Dict[int, Scalar]]):
        self.eigenvalue = eigenvalue
        self.vectors = vectors


def incremental_jordanize(
    lower: LowerRows, diag: Sequence[Scalar], n: int,
    *, sweep: Optional[Set[Scalar]] = None,
) -> JordanBasis:
    """Jordanize a sparse lower-triangular matrix by appending rows below a corner.

    The upper-left n x n corner must already be a lower-triangular
    Jordan-form matrix.  Rows n+1..N are absorbed one at a time: every
    existing chain is decoupled from the new coordinate by the one-block
    update formulas, except that when the new diagonal entry matches a
    chain eigenvalue and the eigenvector coupling is nonzero, the longest
    such chain (latest on ties) grows by one and the others are first
    cleared against it.  Chains are only appended, never reordered or
    renormalized: chain j extends corner block j and keeps its corner
    projection.

    `support` maps each coordinate to the chains with a vector that may
    be nonzero there.  A row is dotted only with the chains in the
    support of its nonzero columns; every other chain has all-zero
    couplings and keeps a zero coordinate without any arithmetic.  A row
    whose columns support no chain ends after that support union: it
    changes no chain, and starts one only if `sweep` holds its diagonal
    entry.  The chains come back sparse, as a `JordanBasis`.

    `sweep` is the set of eigenvalues whose chains the rows extend;
    None sweeps every eigenvalue.  A corner block whose eigenvalue is
    not in it gets its chain but no support, so it comes back as the
    corner's unit vectors, and a row whose diagonal entry is not in it
    starts no chain.  A chain only ever merges with chains of its own
    eigenvalue, and every other update is per chain, so the chains of
    the eigenvalues in `sweep` are the complete ones, in the same order.
    """
    big = _check_lower(lower, diag)
    if not 1 <= n <= big:
        raise ValueError(f"corner size {n} out of range")
    blocks = jordan_blocks(lower[:n], diag[:n])
    chains: List[_MutableChain] = []
    support: List[Set[int]] = [set() for _ in range(big)]
    for j, b in enumerate(blocks):
        vecs = [{b.offset + i: ONE} for i in range(b.length - 1, -1, -1)]
        chains.append(_MutableChain(b.eigenvalue, vecs))
        if sweep is None or b.eigenvalue in sweep:
            for i in range(b.length):
                support[b.offset + i].add(j)

    for r in range(n, big):
        d = diag[r]
        nonzeros = lower[r]
        touched = sorted(set().union(*(support[j] for j, _ in nonzeros)))
        winner: Optional[int] = None
        if touched:
            couplings = {
                i: [_sparse_dot(nonzeros, v) for v in chains[i].vectors] for i in touched
            }
            eligible = [
                i
                for i in touched
                if chains[i].eigenvalue == d and not couplings[i][0].is_zero()
            ]
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
                        _sparse_axpy(c.vectors[k], -gamma, w.vectors[k])
                        couplings[i][k] = couplings[i][k] - gamma * wc[k]
                        for j in w.vectors[k]:
                            support[j].add(i)
            for i in touched:
                c = chains[i]
                a = couplings[i]
                if i == winner or all(x.is_zero() for x in a):
                    continue
                k = len(c.vectors)
                if c.eigenvalue != d:
                    t = a[0] / (c.eigenvalue - d)
                    _set_nonzero(c.vectors[0], r, t)
                    for j in range(1, k):
                        t = (t - a[j]) / (d - c.eigenvalue)
                        _set_nonzero(c.vectors[j], r, t)
                else:
                    for j in range(k - 1):
                        _set_nonzero(c.vectors[j], r, a[j + 1])
                support[r].add(i)
        if winner is not None:
            w = chains[winner]
            a = couplings[winner]
            for j in range(len(w.vectors) - 1):
                _set_nonzero(w.vectors[j], r, a[j + 1])
            w.vectors.insert(0, {r: a[0]})
            support[r].add(winner)
        elif sweep is None or d in sweep:
            support[r].add(len(chains))
            chains.append(_MutableChain(d, [{r: ONE}]))

    final = tuple(
        JordanChain(c.eigenvalue, tuple(_frozen(v) for v in c.vectors)) for c in chains
    )
    return JordanBasis(final, tuple(blocks))


def transition_to_jordan_triangular(a: ExactMatrix) -> Tuple[ExactMatrix, ExactMatrix]:
    """Chain matrix and Jordan form of a triangular matrix.

    Returns (S, J) where J is lower-triangular Jordan and a @ S == S @ J,
    i.e. T a T^-1 == J for T = S^-1.  The columns of S are the chains of
    `jordan_chains_triangular`, each from its top vector down to its
    eigenvector.  Distinct eigenvalues appear in order of first occurrence
    on the diagonal; blocks of one eigenvalue are sorted by increasing length,
    and their sizes sum to that eigenvalue's count on the diagonal.

    a @ S == S @ J is checked exactly, one column at a time: a s_c must
    equal lambda_c s_c, plus s_(c+1) where J holds a 1 at (c+1, c).
    That is n matrix-vector products, where two full products take n^2.
    """
    n = a.rows
    cols: List[List[Scalar]] = []
    jordan = [[ZERO] * n for _ in range(n)]
    for lam in dict.fromkeys(a.diagonal_entries()):
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
    for c, col in enumerate(cols):
        want = [x if x.is_zero() else jordan[c][c] * x for x in col]
        if c + 1 < n and jordan[c + 1][c] == ONE:
            want = [x + y for x, y in zip(want, cols[c + 1])]
        if mat_vec(a, col) != tuple(want):
            raise RuntimeError("jordanization failed to satisfy a@S == S@J")
    return ExactMatrix(n, n, tuple(zip(*cols))), ExactMatrix(n, n, tuple(map(tuple, jordan)))
