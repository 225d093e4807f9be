"""The lifting path against the oracles of `lifting_oracles`.

Random maps come from `random_poly_map` with real or Gaussian
coefficients and a diagonal, Jordan-block or general upper-triangular
linear part.  Sums, compositions, matrix applications, the lambda^alpha
table of `compop.eigenvalue_products` and whole `solve`/`solve_power` results must equal what the
oracles compute, exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifting_oracles as oracle
from conftest import random_lower_matrix, random_poly_map
from schroeder import compop, engine
from schroeder.engine import solve, solve_power
from schroeder.maps import PolyMap, compose, matrix_apply
from schroeder.scalars import ONE, Scalar
from schroeder.series import Jet, enumerate_monomials, unit_index


def _s(re, im=0) -> Scalar:
    return Scalar.of(Fraction(re), Fraction(im))


#: Attracting eigenvalues with products that land back in the pool
#: (1/2 * 1/2 = 1/4, 1/2 * 1/3 = 1/6, (i/2)^2 = -1/4, ((1+i)/2)^2 = i/2).
REAL_POOL = (_s("1/2"), _s("1/3"), _s("1/4"), _s("1/6"), _s("-1/2"))
GAUSSIAN_POOL = (_s(0, "1/2"), _s("1/2", "1/2"), _s("-1/4"), _s("1/3"), _s("1/2"))

LINEAR_KINDS = ("diagonal", "jordan", "triangular")


@st.composite
def random_maps(draw, max_degree: int = 3, max_dim: int = 3):
    """A random self-map, the rng it was drawn with, and whether it is Gaussian."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, max_dim))
    gaussian = draw(st.booleans())
    kind = draw(st.sampled_from(LINEAR_KINDS))
    pool = GAUSSIAN_POOL if gaussian else REAL_POOL
    diag = [rng.choice(pool) for _ in range(dim)]
    if kind == "jordan":
        diag[1] = diag[0]
    degree = rng.randint(2, max_degree)
    phi = random_poly_map(
        rng,
        dim,
        diag,
        degree,
        upper_density=0.4 if kind == "triangular" else 0.0,
        term_density=0.3,
        gaussian=gaussian,
    )
    if kind == "jordan":
        first = phi.components[0]
        coupled = Jet.build(dim, degree, list(first.coeffs.items()) + [(unit_index(dim, 1), ONE)])
        phi = PolyMap((coupled,) + phi.components[1:])
    return phi, rng, gaussian


def _with_constant(f: Jet, rng: random.Random) -> Jet:
    c = _s(rng.randint(-2, 2), rng.randint(-1, 1))
    return Jet.build(f.dim, f.degree, list(f.coeffs.items()) + [((0,) * f.dim, c)])


@settings(max_examples=60, deadline=None)
@given(random_maps(max_degree=5), st.integers(1, 6))
def test_jet_add_matches_oracle(drawn, other_degree):
    phi, rng, gaussian = drawn
    f = _with_constant(rng.choice(phi.components), rng)
    diag = phi.linear_part().diagonal_entries()
    for g in random_poly_map(rng, phi.dim, diag, other_degree, gaussian=gaussian).components:
        assert f + g == oracle.jet_add(f, g)
        assert g + f == oracle.jet_add(g, f)
        # In f + (g - f) every term of f cancels.
        rest = oracle.jet_sub(g, f)
        assert f + rest == oracle.jet_add(f, rest)
    assert (f + (-f)).is_zero()


@settings(max_examples=40, deadline=None)
@given(random_maps(max_degree=4), st.integers(2, 6))
def test_compose_matches_oracle(drawn, f_degree):
    phi, rng, gaussian = drawn
    diag = phi.linear_part().diagonal_entries()
    inner = random_poly_map(rng, phi.dim, diag, f_degree, gaussian=gaussian)
    memo, oracle_memo = {}, {}
    for f in inner.components:
        f = _with_constant(f, rng)
        assert compose(f, phi, memo) == oracle.compose(f, phi, oracle_memo)
        assert compose(f, phi) == oracle.compose(f, phi)


@settings(max_examples=40, deadline=None)
@given(random_maps(max_degree=4))
def test_matrix_apply_matches_oracle(drawn):
    phi, rng, gaussian = drawn
    pool = GAUSSIAN_POOL if gaussian else REAL_POOL
    m = random_lower_matrix(rng, phi.dim, pool, gaussian=gaussian)
    assert matrix_apply(m, phi) == oracle.matrix_apply(m, phi)
    assert matrix_apply(m.transpose(), phi) == oracle.matrix_apply(m.transpose(), phi)


@st.composite
def spectra(draw):
    """1-4 eigenvalues from the real or the Gaussian pool, often repeated."""
    pool = draw(st.sampled_from([REAL_POOL, GAUSSIAN_POOL]))
    diag = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    if len(diag) > 1 and draw(st.booleans()):
        diag[-1] = diag[0]
    return tuple(diag)


@settings(max_examples=60, deadline=None)
@given(spectra(), st.integers(1, 7), st.integers(1, 7))
@example((_s("1/2"), _s("1/2")), 3, 3)
@example((_s(0, "1/2"), _s("1/3"), _s(0, "1/2")), 2, 4)
def test_eigenvalue_product_table_matches_direct_powering(diag, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    table = compop.eigenvalue_products(diag, lo, hi)
    want = [a for a in enumerate_monomials(len(diag), hi) if sum(a) >= lo]
    assert [alpha for alpha, _ in table] == want
    for alpha, prod in table:
        assert prod == oracle.diag_power(diag, alpha)


def _outcome(run):
    try:
        return run()
    except RuntimeError as exc:
        return (type(exc), str(exc))


def _assert_lifts_match_oracle(phi: PolyMap, power: int) -> None:
    runs = (
        lambda: solve(phi, degree=8, mode="independent"),
        lambda: solve_power(phi, power, degree=8),
    )
    for run in runs:
        fast = _outcome(run)
        with mock.patch.object(engine, "_Lifter", oracle.Lifter):
            slow = _outcome(run)
        assert fast == slow


# Three-variable maps cost the oracle lifter seconds each at degree 8, so
# the random ones have two variables and a fixed map covers three.
@settings(max_examples=25, deadline=None)
@given(random_maps(max_dim=2), st.integers(2, 3))
def test_solve_and_solve_power_match_oracle_lifter(drawn, power):
    _assert_lifts_match_oracle(drawn[0], power)


def test_jordan_block_with_nonlinear_terms_matches_oracle_lifter():
    """A 3x3 linear part with a Jordan block and terms of degrees 2 and 3.

    Each degree-m system is then truly triangular: a solved term z^alpha
    feeds later monomials of the same degree through (Lz)^alpha.
    """
    def jet(terms):
        return Jet.build(3, 3, [(alpha, _s(c)) for alpha, c in terms])

    phi = PolyMap((
        jet([((1, 0, 0), "1/6"), ((0, 1, 0), 1), ((0, 0, 2), -1)]),
        jet([((0, 1, 0), "1/6"), ((1, 0, 1), "1/2")]),
        jet([((0, 0, 1), "1/2"), ((2, 0, 0), "-2/3"), ((1, 2, 0), 1)]),
    ))
    _assert_lifts_match_oracle(phi, 2)
