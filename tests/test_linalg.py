"""Exact linear algebra: rref, rank, kernels, inverses."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import linalg
from schroeder.engine import truncated_operator
from schroeder.linalg import (
    ExactMatrix,
    JordanBasis,
    SingularMatrixError,
    Vector,
    incremental_jordanize,
    inverse,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    rank,
    vectors_rank,
)
from schroeder.scalars import ONE, ZERO, Scalar

import linalg_oracles as oracle
from conftest import (
    dense_vector,
    random_poly_map,
    sc,
    sc_fraction_pool,
    sparse_lower,
)
from test_jordan import GAUSSIAN_SPECTRUM, REAL_SPECTRUM, lower_triangular


def random_matrix(rng, rows, cols, *, gaussian=False):
    return ExactMatrix.from_rows(
        [
            [sc_fraction_pool(rng, gaussian=gaussian) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_constructors_and_accessors():
    m = ExactMatrix.from_rows([[sc(1), sc(2)], [sc(3), sc(4)]])
    assert m.rows == 2 and m.cols == 2
    assert m.at(1, 0) == sc(3)
    assert m.entries[0] == (sc(1), sc(2))
    assert m.transpose().at(0, 1) == sc(3)
    assert m.transpose().entries[1] == (sc(2), sc(4))
    assert ExactMatrix.identity(3).at(2, 2) == ONE
    assert ExactMatrix.identity(3).at(2, 1) == ZERO


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[sc(1), sc(2)], [sc(3)]])


def test_shift_corner_triangular_checks():
    m = ExactMatrix.from_rows(
        [[sc(2), sc(0), sc(0)], [sc(1), sc(3), sc(0)], [sc(0), sc(4), sc(5)]]
    )
    assert m.shift(sc(2)).at(0, 0) == ZERO
    assert m.is_lower_triangular()
    assert not m.is_upper_triangular()
    assert m.transpose().is_upper_triangular()
    assert m.diagonal_entries() == (sc(2), sc(3), sc(5))


def test_matmul_and_pow():
    a = ExactMatrix.from_rows([[sc(1), sc(1)], [sc(0), sc(1)]])
    assert mat_mul(a, a).at(0, 1) == sc(2)
    assert mat_pow(a, 5).at(0, 1) == sc(5)
    assert mat_pow(a, 0) == ExactMatrix.identity(2)
    assert mat_vec(a, (sc(3), sc(4))) == (sc(7), sc(4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
def test_mat_pow_equals_the_repeated_product(seed, size, gaussian):
    a = random_matrix(random.Random(seed), size, size, gaussian=gaussian)
    product = ExactMatrix.identity(size)
    for k in range(13):
        assert mat_pow(a, k) == product
        product = mat_mul(product, a)
    with pytest.raises(ValueError, match="negative"):
        mat_pow(a, -1)


def test_mat_pow_squares_instead_of_multiplying_k_times(record_calls):
    """[1/2]^20000 takes 19 products by repeated squaring, not 20000."""
    calls = record_calls("mat_mul", linalg)
    half = ExactMatrix.from_rows([[sc(1, 2)]])
    assert mat_pow(half, 20000) == ExactMatrix.from_rows([[Scalar.of(Fraction(1, 2**20000))]])
    assert len(calls) <= 30


def test_rank_known_cases():
    assert rank(ExactMatrix.from_rows([[ZERO] * 3] * 3)) == 0
    assert rank(ExactMatrix.identity(4)) == 4
    m = ExactMatrix.from_rows([[sc(1), sc(2)], [sc(2), sc(4)]])
    assert rank(m) == 1
    assert vectors_rank([(sc(1), sc(2)), (sc(2), sc(4)), (sc(0), sc(1))]) == 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(1, 5), st.booleans(),
    st.booleans(),
)
def test_vectors_rank_matches_sympy(seed, count, length, gaussian, lazy):
    rng = random.Random(seed)
    vectors = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            v = [ZERO] * length
        elif kind < 0.3 and vectors:
            v = list(rng.choice(vectors))
        elif kind < 0.5 and vectors:
            # A combination of earlier vectors keeps the rank down.
            a, b = rng.choice(vectors), rng.choice(vectors)
            f = sc_fraction_pool(rng, gaussian=gaussian)
            v = [x * f + y for x, y in zip(a, b)]
        else:
            v = [sc_fraction_pool(rng, gaussian=gaussian) for _ in range(length)]
        vectors.append(tuple(v))
    expected = oracle.sympy_rank(vectors, length)
    assert vectors_rank(iter(vectors) if lazy else vectors) == expected
    if vectors:
        assert rank(ExactMatrix.from_rows(vectors)) == expected


def random_matrix_of_rank(rng, rows, cols, bound, *, gaussian=False):
    """Each row a random combination of `bound` random rows, so the rank is at most `bound`."""
    basis = [[sc_fraction_pool(rng, gaussian=gaussian) for _ in range(cols)] for _ in range(bound)]
    out = []
    for _ in range(rows):
        row = [ZERO] * cols
        for b in basis:
            f = sc_fraction_pool(rng, gaussian=gaussian)
            row = [x + f * y for x, y in zip(row, b)]
        out.append(row)
    return ExactMatrix.from_rows(out)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5), st.integers(0, 5),
    st.booleans(),
)
def test_kernel_basis_and_inverse_match_sympy_entry_for_entry(seed, rows, cols, bound, gaussian):
    rng = random.Random(seed)
    m = random_matrix_of_rank(rng, rows, cols, min(bound, rows, cols), gaussian=gaussian)
    assert kernel_basis(m) == oracle.sympy_kernel_basis(m)
    square = ExactMatrix.from_rows([row[:rows] for row in m.entries]) if rows <= cols else None
    if square is None:
        return
    expected = oracle.sympy_inverse(square)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            inverse(square)
    else:
        assert inverse(square) == expected


def test_vectors_rank_reads_no_vector_past_a_full_span():
    read = []

    def vectors():
        for v in [(ZERO, ZERO), (sc(1), sc(2)), (sc(2), sc(4)), (sc(0), sc(1)), (sc(5), sc(5))]:
            read.append(v)
            yield v

    assert vectors_rank(vectors()) == 2
    assert read[-1] == (sc(0), sc(1)) and len(read) == 4
    assert vectors_rank([]) == 0
    assert vectors_rank(iter(())) == 0
    assert vectors_rank([(), ()]) == 0


def test_kernel_basis_annihilates_and_spans():
    rng = random.Random(41)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), gaussian=True)
        ker = kernel_basis(m)
        r = rank(m)
        assert len(ker) == m.cols - r
        for v in ker:
            assert all(x.is_zero() for x in mat_vec(m, v))
        if ker:
            assert vectors_rank(ker) == len(ker)


def corner_kernel(m: ExactMatrix, n: int, mu: Scalar) -> Tuple[int, List[Vector]]:
    """(blocks of mu in the corner, eigenvectors of the corner-restricted mu-chains), dense."""
    lower, diag = sparse_lower(m)
    basis = incremental_jordanize(lower, diag, n, sweep=set(diag[:n]))
    blocks = sum(1 for b in basis.original_blocks if b.eigenvalue == mu)
    vectors = [dense_vector(c.vectors[0], m.rows) for c in basis.chains if c.eigenvalue == mu]
    return blocks, vectors


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 14), st.booleans())
def test_corner_kernel_matches_sympy(data, size, gaussian):
    """The eigenvectors of the mu-chains are a basis of ker(M - mu) for a
    corner eigenvalue mu, and there are none for a value off the diagonal."""
    n = data.draw(st.integers(1, min(4, size)))
    m = data.draw(lower_triangular(size, gaussian, corner=n))
    mu = data.draw(st.sampled_from(m.diagonal_entries()[:n] + (sc(1, 5),)))
    corner, ker = corner_kernel(m, n, mu)
    shifted = m.shift(mu)
    for v in ker:
        assert len(v) == size
        assert all(x.is_zero() for x in mat_vec(shifted, v))
    assert vectors_rank(ker) == len(ker)
    dims = (len(ker), vectors_rank([v[:n] for v in ker]))
    assert dims == oracle.nullspace_dimensions(m, mu, n)
    assert (corner,) + dims == oracle.report_dimensions(m, n, mu)


def test_corner_kernel_constraint_rows():
    # Row 2 couples both eigenvectors of 1/2; row 3 is a zero row at 1/2.
    h = sc(1, 2)
    m = ExactMatrix.from_rows(
        [
            [h, ZERO, ZERO, ZERO],
            [ZERO, h, ZERO, ZERO],
            [ONE, sc(2), h, ZERO],
            [ZERO, ZERO, ZERO, h],
        ]
    )
    _, ker = corner_kernel(m, 2, h)
    assert len(ker) == 3
    assert vectors_rank([v[:2] for v in ker]) == 1
    assert corner_kernel(m, 2, sc(1, 3)) == (0, [])


def corner_filtered(basis: JordanBasis) -> JordanBasis:
    """A chain basis without the chains of eigenvalues its corner lacks."""
    corner = {b.eigenvalue for b in basis.original_blocks}
    return JordanBasis(
        tuple(c for c in basis.chains if c.eigenvalue in corner), basis.original_blocks
    )


def assert_sweep_extends_only(lower, diag, n: int, sweep: set) -> None:
    """`sweep` gives the complete chains of its eigenvalues, in the same
    order, the corner unit vectors of every other corner block, and no
    other chain past the corner blocks."""
    complete = incremental_jordanize(lower, diag, n)
    basis = incremental_jordanize(lower, diag, n, sweep=sweep)
    blocks = basis.original_blocks
    assert blocks == complete.original_blocks
    assert [c for c in basis.chains if c.eigenvalue in sweep] == [
        c for c in complete.chains if c.eigenvalue in sweep
    ]
    for b, c in zip(blocks, basis.chains):
        assert c.eigenvalue == b.eigenvalue
        if b.eigenvalue not in sweep:
            assert c.vectors == tuple(((b.offset + i, ONE),) for i in reversed(range(b.length)))
    assert all(c.eigenvalue in sweep for c in basis.chains[len(blocks):])


def assert_corner_sweep_filters_the_complete_basis(lower, diag, n: int, m: ExactMatrix) -> None:
    """Swept over every corner eigenvalue, the basis is the complete one,
    from `incremental_jordanize` and from the oracle on the dense form
    `m`, less the chains of eigenvalues the corner lacks."""
    restricted = incremental_jordanize(lower, diag, n, sweep=set(diag[:n]))
    assert restricted == corner_filtered(incremental_jordanize(lower, diag, n))
    assert restricted == corner_filtered(oracle.incremental_jordanize(m, n))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 9), st.booleans())
def test_corner_only_filters_the_complete_basis(data, size, gaussian):
    n = data.draw(st.integers(1, min(4, size)))
    m = data.draw(lower_triangular(size, gaussian, corner=n))
    lower, diag = sparse_lower(m)
    assert_corner_sweep_filters_the_complete_basis(lower, diag, n, m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_corner_only_filters_the_complete_basis_on_operators(seed, dim, gaussian):
    rng = random.Random(seed)
    pool = GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    op = truncated_operator(phi)
    assert_corner_sweep_filters_the_complete_basis(op.lower, op.diag, dim, op.matrix)


def corner_subsets(diag, n: int):
    """Any set of the eigenvalues of the first n diagonal entries."""
    return st.sets(st.sampled_from(list(dict.fromkeys(diag[:n]))))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 9), st.booleans())
def test_sweep_extends_only_the_chains_of_its_eigenvalues(data, size, gaussian):
    n = data.draw(st.integers(1, min(4, size)))
    m = data.draw(lower_triangular(size, gaussian, corner=n))
    lower, diag = sparse_lower(m)
    assert_sweep_extends_only(lower, diag, n, data.draw(corner_subsets(diag, n)))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_sweep_extends_only_the_chains_of_its_eigenvalues_on_operators(
    data, seed, dim, gaussian
):
    rng = random.Random(seed)
    pool = GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    op = truncated_operator(phi)
    sweep = data.draw(corner_subsets(op.diag, dim))
    assert_sweep_extends_only(op.lower, op.diag, dim, sweep)


def test_shift_changes_only_the_diagonal():
    rng = random.Random(53)
    m = random_matrix(rng, 4, 4, gaussian=True)
    lam = Scalar.of(Fraction(1, 3), 1)
    assert m.shift(lam).entries == tuple(
        tuple(x - lam if i == j else x for j, x in enumerate(row))
        for i, row in enumerate(m.entries)
    )


def test_inverse_round_trip_and_singular():
    rng = random.Random(43)
    found = 0
    while found < 15:
        m = random_matrix(rng, 3, 3, gaussian=True)
        if rank(m) < 3:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            continue
        found += 1
        assert mat_mul(m, inverse(m)) == ExactMatrix.identity(3)
        assert mat_mul(inverse(m), m) == ExactMatrix.identity(3)


def test_rank_sequence_oracle_on_explicit_jordan_matrix():
    lam = sc(1, 2)
    rows = [
        [lam, ZERO, ZERO, ZERO, ZERO],
        [ONE, lam, ZERO, ZERO, ZERO],
        [ZERO, ONE, lam, ZERO, ZERO],
        [ZERO, ZERO, ZERO, lam, ZERO],
        [ZERO, ZERO, ZERO, ZERO, sc(1, 3)],
    ]
    m = ExactMatrix.from_rows(rows)
    dims = oracle.rank_sequence_oracle(m, lam)
    assert dims == [2, 3, 4, 4, 4]
    assert oracle.rank_sequence_oracle(m, sc(1, 3))[:2] == [1, 1]
    assert oracle.rank_sequence_oracle(m, sc(9))[0] == 0
