"""Jordan chains: the filtration route, the row-append route, the closed
form for a power of one block, and oracles."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import linalg
from schroeder.engine import _power_chain, truncated_operator
from schroeder.linalg import (
    Block,
    ExactMatrix,
    JordanChain,
    incremental_jordanize,
    inverse,
    jordan_blocks,
    jordan_chains_triangular,
    mat_mul,
    mat_pow,
    transition_to_jordan_triangular,
    vectors_rank,
)
from schroeder.scalars import ONE, ZERO, Scalar

import linalg_oracles as oracle
from linalg_oracles import block_sizes, chain_is_valid
from conftest import (
    dense_vector,
    random_lower_matrix,
    random_poly_map,
    sc,
    sc_fraction_pool,
    sparse_lower,
)


def oracle_block_sizes(m: ExactMatrix, lam: Scalar) -> List[int]:
    """Block-size multiset recovered from the kernel-dimension sequence."""
    dims = oracle.rank_sequence_oracle(m, lam)
    diffs = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, len(dims))]
    sizes: List[int] = []
    for size in range(len(diffs), 0, -1):
        above = diffs[size] if size < len(diffs) else 0
        sizes.extend([size] * (diffs[size - 1] - above))
    return sorted(sizes)


def lower_jordan(blocks) -> ExactMatrix:
    """Assemble a lower-triangular Jordan matrix from (eigenvalue, length)."""
    n = sum(length for _, length in blocks)
    rows = [[ZERO] * n for _ in range(n)]
    off = 0
    for lam, length in blocks:
        for i in range(length):
            rows[off + i][off + i] = lam
            if i + 1 < length:
                rows[off + i + 1][off + i] = ONE
        off += length
    return ExactMatrix.from_rows(rows)


def append_row(corner: ExactMatrix, coeffs, diag: Scalar) -> ExactMatrix:
    """Extend a square matrix by one row (couplings, diagonal entry)."""
    n = corner.rows
    rows = [list(corner.entries[i]) + [ZERO] for i in range(n)]
    rows.append(list(coeffs) + [diag])
    return ExactMatrix.from_rows(rows)


#: Corner eigenvalues, real and Gaussian; few, so that blocks repeat them.
CORNER_POOL = (sc(1, 2), sc(1, 3), Scalar.of(Fraction(1, 2), Fraction(1, 3)), Scalar.of(0, Fraction(1, 4)))
#: Entries that no lower Jordan form holds below its diagonal.
STRAY_POOL = (sc(2), sc(-1, 3), Scalar.of(0, 1))


@st.composite
def jordan_corners(draw):
    """(blocks, corner, bad row): a lower Jordan corner, perhaps broken in one row.

    The row is broken either by a subdiagonal 1 under a different
    eigenvalue or by one stray entry left of the diagonal; it is None
    when the corner is left whole.
    """
    blocks = draw(st.lists(st.tuples(st.sampled_from(CORNER_POOL), st.integers(1, 3)), min_size=1, max_size=5))
    rows = [list(row) for row in lower_jordan(blocks).entries]
    fault = draw(st.sampled_from(["none", "subdiagonal", "stray"])) if len(rows) > 1 else "none"
    if fault == "none":
        return blocks, ExactMatrix.from_rows(rows), None
    i = draw(st.integers(1, len(rows) - 1))
    if fault == "subdiagonal":
        rows[i][i] = draw(st.sampled_from([lam for lam in CORNER_POOL if lam != rows[i - 1][i - 1]]))
        rows[i][i - 1] = ONE
    else:
        rows[i][draw(st.integers(0, i - 1))] = draw(st.sampled_from(STRAY_POOL))
    return blocks, ExactMatrix.from_rows(rows), i


@settings(max_examples=300, deadline=None)
@given(jordan_corners())
def test_jordan_blocks_matches_the_dense_parser(drawn):
    blocks, corner, bad = drawn
    lower, diag = sparse_lower(corner)
    if bad is None:
        expect = oracle.parse_jordan_corner(corner)
        assert jordan_blocks(lower, diag) == expect
        assert [(b.eigenvalue, b.length) for b in expect] == blocks
        return
    with pytest.raises(ValueError) as dense:
        oracle.parse_jordan_corner(corner)
    assert re.search(r"at entry \((\d+), ", str(dense.value)).group(1) == str(bad)
    with pytest.raises(ValueError, match=rf"^corner is not in lower Jordan form in row {bad}$"):
        jordan_blocks(lower, diag)


def test_chain_validity_checker():
    lam = sc(1, 2)
    m = lower_jordan([(lam, 2)])
    good = JordanChain(lam, (((1, ONE),), ((0, ONE),)))
    assert chain_is_valid(m, good)
    flipped = JordanChain(lam, (((0, ONE),), ((1, ONE),)))
    assert not chain_is_valid(m, flipped)
    zero_vec = JordanChain(lam, ((),))
    assert not chain_is_valid(m, zero_vec)


def test_filtration_route_on_explicit_matrix():
    lam = sc(1, 3)
    m = lower_jordan([(lam, 3), (lam, 1), (sc(1, 5), 1)])
    chains = jordan_chains_triangular(m, lam)
    assert sorted(c.length for c in chains) == [1, 3]
    assert [c.length for c in chains] == [3, 1]
    for c in chains:
        assert chain_is_valid(m, c)
    assert jordan_chains_triangular(m, sc(7)) == []


def lower_from(rows) -> ExactMatrix:
    """A lower-triangular matrix from its rows up to the diagonal."""
    n = len(rows)
    return ExactMatrix.from_rows([list(r) + [ZERO] * (n - len(r)) for r in rows])


HALF, THIRD = sc(1, 2), sc(1, 3)


@pytest.mark.parametrize(
    "m, longest",
    [
        # Diagonal: every block of 1/2 and of 1/3 has length 1.
        (lower_from([[HALF], [ZERO, THIRD], [ZERO] * 2 + [HALF], [ZERO] * 3 + [HALF]]), {HALF: 1, THIRD: 1}),
        # One 3-block: M - 1/2 is nilpotent of rank 2.
        (lower_from([[HALF], [sc(2), HALF], [ONE, sc(3), HALF]]), {HALF: 3}),
        # Blocks 2 and 1 of 1/2 beside a simple 1/3.
        (lower_from([[HALF], [ONE, THIRD], [sc(5), sc(2), HALF], [ZERO] * 3 + [HALF]]), {HALF: 2, THIRD: 1}),
    ],
)
def test_filtration_stops_at_the_longest_block(m, longest, record_calls):
    """One kernel per power up to the longest block, and one product fewer.

    ker((M - lam)^p) reaches the count of lam on the diagonal at the
    longest block's length, so no further power is formed to find out.
    """
    kernels = record_calls("kernel_basis", linalg)
    products = record_calls("mat_mul", linalg)
    for lam, p in longest.items():
        kernels.clear()
        products.clear()
        chains = jordan_chains_triangular(m, lam)
        assert (len(kernels), len(products)) == (p, p - 1)
        assert sorted(c.length for c in chains) == oracle_block_sizes(m, lam)
        assert max(c.length for c in chains) == p


def test_filtration_route_normalization_is_canonical():
    lam = sc(1, 2)
    m = lower_jordan([(lam, 2)])
    (chain,) = jordan_chains_triangular(m, lam)
    lead, x = chain.vectors[0][0]
    assert x == ONE
    for v in chain.vectors[1:]:
        assert lead not in dict(v)


def test_transition_satisfies_similarity_exactly():
    rng = random.Random(5)
    pool = [sc(1, 2), sc(1, 2), sc(1, 3), sc(2, 3)]
    for _ in range(30):
        size = rng.randint(1, 6)
        m = random_lower_matrix(rng, size, pool, gaussian=True)
        s, j = transition_to_jordan_triangular(m)
        assert mat_mul(m, s) == mat_mul(s, j)
        assert mat_mul(mat_mul(inverse(s), m), s) == j
        lengths = {}
        for b in oracle.parse_jordan_corner(j):
            lengths.setdefault(b.eigenvalue, []).append(b.length)
        for lam, ls in lengths.items():
            assert ls == sorted(ls)
            assert sorted(ls) == oracle_block_sizes(m, lam)


def test_transition_orders_eigenvalues_by_first_occurrence():
    a, b = sc(1, 3), sc(1, 2)
    m = ExactMatrix.from_rows([[a, ZERO, ZERO], [ZERO, b, ZERO], [ZERO, ZERO, a]])
    s, j = transition_to_jordan_triangular(m)
    blocks = oracle.parse_jordan_corner(j)
    assert [b.eigenvalue for b in blocks] == [sc(1, 3), sc(1, 3), sc(1, 2)]
    assert j.diagonal_entries() == (sc(1, 3), sc(1, 3), sc(1, 2))
    assert mat_mul(m, s) == mat_mul(s, j)


def test_incremental_requires_jordan_corner():
    bad = ExactMatrix.from_rows([[sc(1, 2), ZERO], [sc(5), sc(1, 2)]])
    with pytest.raises(ValueError):
        incremental_jordanize(*sparse_lower(bad), 2)
    not_lower = ExactMatrix.from_rows([[sc(1, 2), ONE], [ZERO, sc(1, 3)]])
    with pytest.raises(ValueError, match="not lower triangular"):
        incremental_jordanize(*sparse_lower(not_lower), 1)
    with pytest.raises(ValueError, match="2 rows but 1 diagonal entries"):
        incremental_jordanize([[], []], (sc(1, 2),), 1)


def test_both_routes_match_oracle_on_random_matrices():
    rng = random.Random(17)
    pool = [sc(1, 2), sc(1, 2), sc(1, 4), sc(1, 3)]
    for _ in range(60):
        size = rng.randint(2, 6)
        m = random_lower_matrix(rng, size, pool, gaussian=True)
        basis = incremental_jordanize(*sparse_lower(m), 1)
        for c in basis.chains:
            assert chain_is_valid(m, c)
        vectors = [dense_vector(v, size) for c in basis.chains for v in c.vectors]
        assert len(vectors) == vectors_rank(vectors) == size
        for lam in set(m.diagonal_entries()):
            expect = oracle_block_sizes(m, lam)
            assert block_sizes(basis, lam) == expect
            filtration = sorted(
                c.length for c in jordan_chains_triangular(m, lam)
            )
            assert filtration == expect


def test_extending_chain_preserves_corner_projection():
    rng = random.Random(29)
    pool = [sc(1, 2), sc(1, 2), sc(1, 3)]
    for _ in range(40):
        corner_blocks = []
        left = rng.randint(1, 4)
        while left > 0:
            length = rng.randint(1, min(3, left))
            corner_blocks.append((rng.choice(pool), length))
            left -= length
        corner = lower_jordan(corner_blocks)
        n = corner.rows
        total = n + rng.randint(1, 4)
        rows = [list(corner.entries[i]) + [ZERO] * (total - n) for i in range(n)]
        for r in range(n, total):
            row = [
                sc_fraction_pool(rng) if rng.random() < 0.7 else ZERO
                for _ in range(r)
            ]
            row += [rng.choice(pool)] + [ZERO] * (total - r - 1)
            rows.append(row)
        m = ExactMatrix.from_rows(rows)
        jb = incremental_jordanize(*sparse_lower(m), n)
        for bi, block in enumerate(jb.original_blocks):
            chain = jb.chains[bi]
            assert chain.eigenvalue == block.eigenvalue
            assert chain.length >= block.length
            tail = chain.vectors[chain.length - block.length :]
            for tpos, v in enumerate(dense_vector(v, total) for v in tail):
                window = list(v[block.offset : block.offset + block.length])
                expect = [ZERO] * block.length
                expect[block.length - 1 - tpos] = ONE
                assert window == expect


def test_one_block_append_branches():
    lam = sc(1, 4)
    other = sc(1, 3)
    rng = random.Random(31)
    for k in (1, 2, 3):
        corner = lower_jordan([(lam, k)])
        filler = [sc_fraction_pool(rng) for _ in range(k - 1)]

        merged = incremental_jordanize(
            *sparse_lower(append_row(corner, filler + [sc(5)], lam)), k
        )
        assert block_sizes(merged, lam) == [k + 1]
        assert len(merged.chains) == 1
        assert merged.chains[0].length == k + 1

        shifted = incremental_jordanize(
            *sparse_lower(append_row(corner, filler + [ZERO], lam)), k
        )
        assert block_sizes(shifted, lam) == [1, k]
        assert shifted.chains[-1].length == 1
        assert dict(shifted.chains[-1].vectors[0])[k] == ONE

        off_eigen = incremental_jordanize(
            *sparse_lower(append_row(corner, filler + [sc(5)], other)), k
        )
        assert block_sizes(off_eigen, lam) == [k]
        assert block_sizes(off_eigen, other) == [1]


def test_two_block_append_longest_absorbs():
    lam = sc(1, 2)
    for n, k in ((1, 1), (1, 2), (2, 2), (2, 3), (1, 3)):
        corner = lower_jordan([(lam, n), (lam, k)])
        coeffs = [ZERO] * (n + k)
        coeffs[n - 1] = ONE
        coeffs[n + k - 1] = ONE
        m = append_row(corner, coeffs, lam)
        jb = incremental_jordanize(*sparse_lower(m), n + k)
        assert block_sizes(jb, lam) == sorted([n, k + 1])
        assert oracle_block_sizes(m, lam) == sorted([n, k + 1])
        grown = jb.chains[1]
        assert grown.length == k + 1


def test_incremental_matches_oracle_with_jordan_corners():
    rng = random.Random(37)
    pool = [sc(1, 2), sc(1, 2), sc(1, 3)]
    for _ in range(30):
        corner_blocks = []
        left = rng.randint(1, 3)
        while left > 0:
            length = rng.randint(1, min(2, left))
            corner_blocks.append((rng.choice(pool), length))
            left -= length
        corner = lower_jordan(corner_blocks)
        n = corner.rows
        total = n + rng.randint(1, 3)
        rows = [list(corner.entries[i]) + [ZERO] * (total - n) for i in range(n)]
        for r in range(n, total):
            row = [
                sc_fraction_pool(rng, gaussian=True) if rng.random() < 0.6 else ZERO
                for _ in range(r)
            ]
            row += [rng.choice(pool)] + [ZERO] * (total - r - 1)
            rows.append(row)
        m = ExactMatrix.from_rows(rows)
        jb = incremental_jordanize(*sparse_lower(m), n)
        for lam in set(m.diagonal_entries()):
            assert block_sizes(jb, lam) == oracle_block_sizes(m, lam)
        for c in jb.chains:
            assert chain_is_valid(m, c)


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def small_scalars(draw, gaussian: bool) -> Scalar:
    """A small rational, or with `gaussian` often a Gaussian rational."""
    im = draw(small_rationals) if gaussian and draw(st.booleans()) else 0
    return Scalar.of(draw(small_rationals), im)


@st.composite
def lower_triangular(draw, size: int, gaussian: bool, corner: int = 0) -> ExactMatrix:
    """A sparse lower-triangular matrix, its diagonal drawn from 3 values.

    The first `corner` rows are a lower Jordan form of blocks from the
    same 3 values.
    """
    pool = draw(st.lists(small_scalars(gaussian), min_size=3, max_size=3))
    blocks, left = [], corner
    while left:
        length = draw(st.integers(1, left))
        blocks.append((draw(st.sampled_from(pool)), length))
        left -= length
    rows = [list(r) for r in lower_jordan(blocks).entries] if blocks else []
    density = draw(st.sampled_from([0.0, 0.2, 0.5]))
    for i in range(corner, size):
        row = [
            draw(small_scalars(gaussian)) if draw(st.floats(0, 1)) < density else ZERO
            for _ in range(i)
        ]
        rows.append(row + [draw(st.sampled_from(pool))])
    return lower_from(rows)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.booleans(), st.booleans())
def test_transition_blocks_match_sympy_jordan_form(data, size, gaussian, upper):
    m = data.draw(lower_triangular(size, gaussian))
    if upper:
        m = m.transpose()
    _, j = transition_to_jordan_triangular(m)
    blocks = [(b.eigenvalue, b.length) for b in oracle.parse_jordan_corner(j)]
    assert oracle.jordan_block_pairs(blocks) == oracle.sympy_jordan_blocks(m)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6), st.booleans(), st.booleans())
def test_transition_matches_the_first_release_oracle(data, size, gaussian, upper):
    """(S, J) entry for entry as the list-based filtration of the first release.

    The diagonal repeats values from a pool of 3, so that blocks of length
    2 and 3 occur beside simple eigenvalues.
    """
    m = data.draw(lower_triangular(size, gaussian))
    if upper:
        m = m.transpose()
    s, j = transition_to_jordan_triangular(m)
    want_s, want_j = oracle.transition_to_jordan_triangular(m)
    assert [list(row) for row in s.entries] == want_s
    assert [list(row) for row in j.entries] == want_j


#: Upper triangular: a 2-block of 1/2 at z1, z2 and a simple 1/3 whose
#: eigenvector is dense.
CHECKED = ExactMatrix.from_rows(
    [[HALF, ONE, sc(1, 4)], [ZERO, HALF, sc(1, 5)], [ZERO, ZERO, THIRD]]
)


@pytest.mark.parametrize(
    "lam, which", [(THIRD, 0), (HALF, 1)], ids=["simple-eigenvector", "generalized-vector"]
)
def test_similarity_check_refuses_a_wrong_chain(lam, which, monkeypatch):
    """One entry of one chain vector changed, and the transition raises.

    The true chains pass first, so a check that refuses them fails here too.
    """
    transition_to_jordan_triangular(CHECKED)
    true_chains = linalg.jordan_chains_triangular

    def wrong_chains(m, mu):
        chains = true_chains(m, mu)
        if mu != lam:
            return chains
        (first, *rest), vectors = chains, list(chains[0].vectors)
        (j, x), *tail = vectors[which]
        vectors[which] = ((j, x + ONE), *tail)
        return [JordanChain(mu, tuple(vectors)), *rest]

    monkeypatch.setattr(linalg, "jordan_chains_triangular", wrong_chains)
    with pytest.raises(RuntimeError, match=re.escape("a@S == S@J")):
        transition_to_jordan_triangular(CHECKED)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 7), st.booleans())
def test_incremental_blocks_match_sympy_jordan_form(data, size, gaussian):
    n = data.draw(st.integers(1, min(3, size)))
    m = data.draw(lower_triangular(size, gaussian, corner=n))
    basis = incremental_jordanize(*sparse_lower(m), n)
    blocks = [(lam, k) for lam in set(m.diagonal_entries()) for k in block_sizes(basis, lam)]
    assert oracle.jordan_block_pairs(blocks) == oracle.sympy_jordan_blocks(m)


#: Eigenvalue pools whose products land back in the pool, so that the
#: truncated operators carry repeated diagonal entries and merging chains:
#: 1/2 * 1/2 = 1/4, 1/2 * 1/3 = 1/6, (i/2)^2 = -1/4, ((1+i)/2)^2 = i/2.
REAL_SPECTRUM = (sc(1, 2), sc(1, 3), sc(1, 4), sc(1, 6))
GAUSSIAN_SPECTRUM = (
    Scalar.of(0, Fraction(1, 2)),
    Scalar.of(Fraction(1, 2), Fraction(1, 2)),
    sc(-1, 4),
    sc(1, 2),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.booleans())
def test_incremental_matches_dense_oracle_on_operators(seed, dim, gaussian):
    rng = random.Random(seed)
    pool = GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    op = truncated_operator(phi)
    assert incremental_jordanize(op.lower, op.diag, dim) == oracle.incremental_jordanize(
        op.matrix, dim
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
def test_incremental_matches_dense_oracle_on_sparse_matrices(seed, size, gaussian):
    rng = random.Random(seed)
    pool = [sc(1, 2), sc(1, 2), sc(1, 2), sc(1, 4), sc(1, 3)]
    m = random_lower_matrix(
        rng, size, pool, gaussian=gaussian, density=rng.choice([0.2, 0.4, 0.7])
    )
    assert incremental_jordanize(*sparse_lower(m), 1) == oracle.incremental_jordanize(m, 1)


def upper_jordan_block(lam: Scalar, s: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[lam if j == i else ONE if j == i + 1 else ZERO for j in range(s)] for i in range(s)]
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(2, 5),
    st.integers(-9, 9).filter(bool),
    st.integers(1, 9),
    st.integers(-9, 9).filter(bool),
    st.booleans(),
)
def test_power_chain_matches_the_filtration_route(s, power, a, d, b, gaussian):
    """The closed-form chain of J^power equals the kernel filtration's.

    The oracle is `transition_to_jordan_triangular` on the dense power:
    its chain matrix holds the single chain from top vector down to the
    eigenvector.
    """
    lam = Scalar.of(Fraction(a, d), Fraction(b, d + 1) if gaussian else 0)
    chain_matrix, j = transition_to_jordan_triangular(mat_pow(upper_jordan_block(lam, s), power))
    assert oracle.parse_jordan_corner(j) == [Block(lam**power, s, 0)]
    expect = [[chain_matrix.at(i, s - 1 - k) for i in range(s)] for k in range(s)]
    assert _power_chain(lam, s, power) == expect
