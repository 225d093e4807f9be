"""The lifting path against the oracles of `lifting_oracles`.

Random maps come from `random_poly_map` with real or Gaussian
coefficients and a diagonal, Jordan-block or general upper-triangular
linear part.  Sums, compositions, matrix applications, the lambda^alpha
table of `compop.eigenvalue_products`, whole `solve`/`solve_power`
results and the first failure `verify` reports must equal what the
oracles compute, exactly.  `solve_power` lifts its chains only as far
as its k-th power reads them, and must equal the remix of chains
lifted to the full degree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lifting_oracles as oracle
import series_oracles
from conftest import random_lower_matrix, random_poly_map
from schroeder import compop, engine
from schroeder.documents import parse_map_document
from schroeder.engine import solve, solve_power, verify
from schroeder.linalg import ExactMatrix, mat_mul, mat_pow, transition_to_jordan_triangular
from schroeder.maps import PolyMap, PowerTable, compose, conjugate_map, matrix_apply
from schroeder.scalars import ONE, ZERO, Scalar, scalar_inv
from schroeder.series import Jet, enumerate_monomials, unit_index
from test_golden import DEEP


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
    memo, oracle_memo = PowerTable(phi), {}
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
    n = len(diag)
    table = compop.eigenvalue_products(diag, hi)
    # It starts as the powers of single eigenvalues, by eigenvalue then exponent.
    units = [unit_index(n, i) for i in range(n)]
    powers = [tuple(e * x for x in unit) for unit in units for e in range(1, hi + 1)]
    assert list(table) == powers
    want = [a for a in enumerate_monomials(n, hi) if sum(a) >= lo]
    for alpha in want + powers:
        assert table[alpha] == oracle.diag_power(diag, alpha)
    # A product is kept once read; no other is formed.
    assert set(table) == set(powers) | set(want)


def _outcome(run):
    try:
        return run()
    except RuntimeError as exc:
        return (type(exc), str(exc))


def _assert_lifts_match_oracle(phi: PolyMap, power: int, degree: int = 8) -> None:
    runs = (
        lambda: solve(phi, degree=degree, mode="independent"),
        lambda: solve_power(phi, power, degree=degree),
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


@st.composite
def jordan_maps(draw):
    """A map whose linear part is one Jordan block of size 2 or 3 plus, maybe, one more eigenvalue.

    The block's eigenvalue is repeated by construction and drawn from
    the real or the Gaussian pool, so each lifted layer feeds itself
    through the block's superdiagonal.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    block = draw(st.integers(2, 3))
    dim = draw(st.integers(block, 3))
    gaussian = draw(st.booleans())
    pool = GAUSSIAN_POOL if gaussian else REAL_POOL
    lam = rng.choice(pool)
    diag = [lam] * block + [rng.choice(pool) for _ in range(dim - block)]
    phi = random_poly_map(
        rng, dim, diag, 3, upper_density=0.0, term_density=0.25, gaussian=gaussian
    )
    comps = list(phi.components)
    for i in range(block - 1):
        link = _s(rng.choice([1, -1, 2]), rng.choice([0, 1]) if gaussian else 0)
        comps[i] = Jet.build(dim, 3, list(comps[i].coeffs.items()) + [(unit_index(dim, i + 1), link)])
    return PolyMap(tuple(comps))


@settings(max_examples=20, deadline=None)
@given(jordan_maps(), st.integers(2, 3))
def test_jordan_block_lifts_match_oracle_lifter(phi, power):
    assert not phi.linear_part().is_lower_triangular()
    _assert_lifts_match_oracle(phi, power, degree=6 if phi.dim == 3 else 8)


def _products_with(value, at):
    """`eigenvalue_products` with the product at exponent `at` replaced by `value`."""
    real = compop.eigenvalue_products

    def patched(diag, max_power):
        table = real(diag, max_power)
        table[at] = value
        return table

    return mock.patch.object(engine, "eigenvalue_products", patched)


def test_a_vanished_divisor_is_refused_where_a_coefficient_is_solved():
    half = _s("1/2")
    # z -> z/2 + z^2/3: K = 1, and every exponent past it carries a coefficient.
    phi = PolyMap((Jet.build(1, 5, [((1,), half), ((2,), _s("1/3"))]),))
    with _products_with(half, (3,)):
        with pytest.raises(RuntimeError, match=r"divisor vanished at exponent \(3,\)"):
            solve(phi, degree=5)
    # z -> (z1/2, z2/3) is linear: its components need no term past degree
    # one, so no exponent is solved and no divisor is formed.
    linear = PolyMap((
        Jet.build(2, 5, [((1, 0), half)]),
        Jet.build(2, 5, [((0, 1), _s("1/3"))]),
    ))
    with _products_with(half, (2, 1)):
        sol = solve(linear, degree=5)
    assert [c.coeffs for c in sol.components.components] == [{(1, 0): ONE}, {(0, 1): ONE}]


def _lifters(run):
    """The lifters `run` makes, each after its last lift, whatever `run` returns.

    Each keeps its map (`psi`), the keys its table of lambda^alpha
    started with (`start`) and the (rhs, lifted jet) of each lift.
    """
    made = []

    class Recording(engine._Lifter):
        def __init__(self, psi: PolyMap, base_degree: int, out_degree: int):
            super().__init__(psi, base_degree, out_degree)
            self.psi = psi
            self.start = set(self.diag_power)
            self.lifted = []
            made.append(self)

        def lift(self, g0, rhs, lam):
            g = super().lift(g0, rhs, lam)
            self.lifted.append((rhs, g))
            return g

    with mock.patch.object(engine, "_Lifter", Recording):
        _outcome(run)
    return made


def _solved(lifter) -> set:
    """Exponents past the base degree where a lift had a composed or a target coefficient.

    With g the lifted jet, g(psi) - lambda g = rhs holds through the output
    degree, so an exponent carries a coefficient of g, of rhs or of g(psi)
    exactly when the lifter solved it, up to a composed coefficient that
    cancels within a Jordan layer.
    """
    out = set()
    for rhs, g in lifter.lifted:
        composed = series_oracles.compose(g, lifter.psi)
        for jet in (g, composed) + ((rhs,) if rhs is not None else ()):
            out.update(a for a in jet.coeffs if lifter.base < sum(a) <= lifter.out)
    return out


def test_a_linear_map_forms_no_eigenvalue_product_past_k():
    linear = PolyMap((
        Jet.build(3, 8, [((1, 0, 0), _s("1/2")), ((0, 0, 1), _s("1/5"))]),
        Jet.build(3, 8, [((0, 1, 0), _s(0, "1/3"))]),
        Jet.build(3, 8, [((0, 0, 1), _s("1/7"))]),
    ))
    # k = 3 reads the chains through 8 - 3 + 1 = 6 only.
    runs = ((lambda: solve(linear, degree=8), 8), (lambda: solve_power(linear, 3, degree=8), 6))
    for run, out in runs:
        (lifter,) = _lifters(run)
        assert lifter.base == 1 and lifter.out == out
        assert _solved(lifter) == set()
        assert set(lifter.diag_power) == lifter.start


@settings(max_examples=40, deadline=None)
@given(random_maps(max_dim=3), st.integers(1, 5), st.integers(-1, 5))
def test_solve_power_lifts_the_chains_only_as_far_as_its_power_reads(drawn, power, extra):
    """One lifter, over psi and to max(K, work - power + 1), or none when that is K."""
    phi = drawn[0]
    degree = max(1, power + extra)
    k = compop.truncation_degree(phi.linear_part().diagonal_entries())
    work = max(k, degree, power)
    top = max(k, work - power + 1)
    lifters = _lifters(lambda: solve_power(phi, power, degree=degree))
    assert [(lifter.base, lifter.out) for lifter in lifters] == ([(k, top)] if top > k else [])
    for lifter in lifters:
        assert lifter.psi.degree == top
        assert all(g.degree == top for _, g in lifter.lifted)


def test_gauss2_at_k_30_degree_30_lifts_nothing_and_verifies():
    """The chains are read through 30 - 30 + 1 = 1, which is gauss2's K."""
    phi, _ = parse_map_document(DEEP["gauss2"])
    assert _lifters(lambda: solve_power(phi, 30, degree=30)) == []
    sol = solve_power(phi, 30, degree=30)
    assert sol.degree == 30
    assert verify(phi, sol.components, 30).passed


@st.composite
def jordan_form_maps(draw):
    """A map whose derivative is an upper Jordan matrix, so its Jordan transition is the identity.

    Two or three variables, real or Gaussian, with or without a Jordan
    block of size 2 or 3 first; each block has its own eigenvalue.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 3))
    block = draw(st.integers(1, dim))
    gaussian = draw(st.booleans())
    pool = GAUSSIAN_POOL if gaussian else REAL_POOL
    values = rng.sample(pool, dim - block + 1)
    diag = [values[0]] * block + values[1:]
    phi = random_poly_map(
        rng, dim, diag, rng.randint(2, 3), upper_density=0.0, term_density=0.3, gaussian=gaussian
    )
    comps = list(phi.components)
    for i in range(block - 1):
        link = (unit_index(dim, i + 1), ONE)
        comps[i] = Jet.build(dim, comps[i].degree, list(comps[i].coeffs.items()) + [link])
    return PolyMap(tuple(comps))


def _remixed_full_lifts(sol, power: int) -> PolyMap:
    """The k = 1 components of `sol`, per block, remixed into components for phi'(0)^power.

    h_j = f_j * f_s^(power - 1) / lambda^((power - 1)(s - j)) by repeated
    products, then recombined by the chain of J^power.  The f_j are lifted
    to the full degree, so this reads every term the engine leaves out.
    """
    blocks = {}
    for info, f in zip(sol.component_info, sol.components.components):
        blocks.setdefault(info.block, (info.eigenvalue, []))[1].append(f)
    out = []
    for lam, jets in blocks.values():
        s = len(jets)
        top_pow = series_oracles.jet_pow(jets[-1], power - 1)
        h = [
            series_oracles.jet_mul(f, top_pow).scale(scalar_inv(lam ** ((power - 1) * (s - j))))
            for j, f in enumerate(jets, start=1)
        ]
        chain = engine._power_chain(lam, s, power)
        for i in range(s):
            acc = Jet.zero(sol.components.source_dim, sol.degree)
            for j in range(s):
                acc = oracle.jet_add(acc, h[j].scale(chain[j][i]))
            out.append(acc)
    return PolyMap(tuple(out))


@settings(max_examples=40, deadline=None)
@given(jordan_form_maps(), st.integers(2, 5), st.integers(0, 4))
def test_solve_power_equals_the_remix_of_fully_lifted_chains(phi, power, extra):
    degree = power + extra
    chain_matrix, _ = transition_to_jordan_triangular(phi.linear_part().transpose())
    assert chain_matrix == ExactMatrix.identity(phi.dim)
    want = _remixed_full_lifts(solve(phi, degree, mode="independent"), power)
    got = _outcome(lambda: solve_power(phi, power, degree=degree))
    if engine.component_rank(want) == phi.dim:
        assert got.components == want
    else:
        assert got == (
            RuntimeError, "components became dependent under truncation; request a higher degree"
        )


@settings(max_examples=25, deadline=None)
@given(random_maps(max_dim=3), st.integers(1, 3))
def test_the_lifter_forms_eigenvalue_products_only_where_it_solves(drawn, power):
    phi = drawn[0]
    degree = 6 if phi.dim == 3 else 8
    for lifter in _lifters(lambda: solve_power(phi, power, degree=degree)):
        diag = lifter.psi.linear_part().diagonal_entries()
        formed = set(lifter.diag_power) - lifter.start
        for alpha in formed:
            assert lifter.diag_power[alpha] == oracle.diag_power(diag, alpha)
        solved = _solved(lifter)
        assert solved - lifter.start <= formed
        if not lifter.jordan:
            assert formed <= solved


@settings(max_examples=30, deadline=None)
@given(random_maps(max_degree=5), st.integers(1, 8))
def test_binary_power_of_a_jet_matches_repeated_products(drawn, e):
    phi, rng, _ = drawn
    f = _with_constant(rng.choice(phi.components), rng)
    assert engine._jet_pow(f, e) == series_oracles.jet_pow(f, e)


#: (z1/2 + z2^2/3, z2/3 + z1^2/5), and a Gaussian Jordan block with a z1*z2 coupling.
POWERED_MAPS = (
    PolyMap((
        Jet.build(2, 2, [((1, 0), _s("1/2")), ((0, 2), _s("1/3"))]),
        Jet.build(2, 2, [((0, 1), _s("1/3")), ((2, 0), _s("1/5"))]),
    )),
    PolyMap((
        Jet.build(2, 2, [((1, 0), _s(0, "1/2")), ((0, 1), ONE), ((2, 0), _s("1/3"))]),
        Jet.build(2, 2, [((0, 1), _s(0, "1/2")), ((1, 1), _s("1/4", "-1/4"))]),
    )),
)


@pytest.mark.parametrize("power", range(4, 9))
def test_solve_power_by_binary_powering_matches_repeated_products(power):
    for phi in POWERED_MAPS:
        fast = solve_power(phi, power, degree=power + 2)
        with mock.patch.object(engine, "_jet_pow", series_oracles.jet_pow):
            slow = solve_power(phi, power, degree=power + 2)
        assert fast == slow
        assert verify(phi, fast.components, power).passed


def _oracle_first_failure(phi: PolyMap, f: PolyMap, power: int):
    """The first nonzero residual term, in monomial order then component, from the oracles."""
    lhs = series_oracles.map_compose(f, phi.truncate(f.degree))
    rhs = oracle.matrix_apply(mat_pow(phi.linear_part(), power), f)
    residuals = [oracle.jet_sub(a, b) for a, b in zip(lhs.components, rhs.components)]
    for alpha in enumerate_monomials(f.source_dim, f.degree):
        for i, r in enumerate(residuals):
            c = r.coefficient(alpha)
            if not c.is_zero():
                return i, alpha, c
    return None


def test_power_components_need_power_times_k_degrees():
    """lambda = (-1/4, 1/3, (1+i)/2) with ((1+i)/2)^4 = -1/4, so K = 4.

    The k = 2 components stay dependent through degree 7 and are
    independent at power * K = 8.
    """
    phi = PolyMap((
        Jet.build(3, 2, [((1, 0, 0), _s("-1/4")), ((0, 0, 2), _s("-1/2"))]),
        Jet.build(3, 2, [((0, 1, 0), _s("1/3"))]),
        Jet.build(3, 2, [((0, 0, 1), _s("1/2", "1/2")), ((1, 0, 1), _s(0, 1))]),
    ))
    assert compop.truncation_degree(phi.linear_part().diagonal_entries()) == 4
    with pytest.raises(RuntimeError, match="request a higher degree"):
        solve_power(phi, 2, degree=5)
    sol = solve_power(phi, 2, degree=8)
    assert verify(phi, sol.components, 2).passed


@settings(max_examples=40, deadline=None)
@given(random_maps(max_degree=3), st.integers(1, 2), st.booleans(), st.integers(0, 2**32 - 1))
def test_verify_reports_the_oracle_first_failure(drawn, power, conjugated, seed):
    phi, _, gaussian = drawn
    rng = random.Random(seed)
    # A resonant spectrum can leave the k >= 2 components dependent below
    # power * K, as in the test above.
    k = compop.truncation_degree(phi.linear_part().diagonal_entries())
    sol = solve_power(phi, power, degree=max(5, power * k))
    f = sol.components
    if conjugated:
        # phi and F carried by one invertible D stay a solution pair, and
        # phi's derivative is in general no longer triangular.  D = (unit
        # lower) * (unit upper) has determinant 1.
        lower = random_lower_matrix(rng, phi.dim, (ONE,), gaussian=gaussian, density=1.0)
        upper = ExactMatrix.from_rows([
            [ONE if j in (i, i + 1) else ZERO for j in range(phi.dim)] for i in range(phi.dim)
        ])
        d = mat_mul(lower, upper)
        phi, f = conjugate_map(phi, d), conjugate_map(f, d)
    assert verify(phi, f, power).passed
    i = rng.randrange(f.dim)
    alpha = rng.choice(enumerate_monomials(f.source_dim, f.degree))
    delta = _s(rng.choice([1, -2, 3]), rng.choice([0, 1]) if gaussian else 0)
    comps = list(f.components)
    comps[i] = Jet.build(f.source_dim, f.degree, list(comps[i].coeffs.items()) + [(alpha, delta)])
    broken = PolyMap(tuple(comps))
    report = verify(phi, broken, power)
    want = _oracle_first_failure(phi, broken, power)
    # A term whose exponent resonates with the factor can leave no residual.
    assert report.first_failure == want
    assert report.clean_degree == (f.degree if want is None else sum(want[1]) - 1)
