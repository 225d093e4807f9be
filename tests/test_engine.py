"""End-to-end solving and verification of the linearization equation."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import compop, documents, engine, linalg, scalars
from schroeder.engine import (
    DEFAULT_DEGREE,
    InvalidMapError,
    NoFullRankError,
    analyze,
    detect_resonance,
    solve,
    solve_power,
    truncated_operator,
    verify,
)
from schroeder.linalg import ExactMatrix, rank, vectors_rank
from schroeder.maps import PolyMap, conjugate_map
from schroeder.scalars import ONE, ZERO, Scalar, scalar_inv
from schroeder.series import Jet, enumerate_monomials

import linalg_oracles as oracle
from conftest import (
    NONRESONANT_POOL,
    jet_of,
    koenigs_oracle,
    random_poly_map,
    sc,
    sc_fraction_pool,
)
from test_jordan import GAUSSIAN_SPECTRUM, REAL_SPECTRUM


def one_var_map(coeffs, degree):
    """coeffs[m] is the z^m coefficient (index 0 ignored, must be absent)."""
    return PolyMap(
        (jet_of(1, degree, [((m,), c) for m, c in coeffs.items()]),)
    )


def test_validate_rejects_non_self_map_and_non_triangular():
    non_self = PolyMap((jet_of(2, 2, [((1, 0), sc(1, 2))]),))
    with pytest.raises(InvalidMapError):
        analyze(non_self)
    full = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 4)), ((0, 1), sc(1, 8))]),
            jet_of(2, 2, [((1, 0), sc(1, 8)), ((0, 1), sc(1, 4))]),
        )
    )
    with pytest.raises(InvalidMapError):
        analyze(full)


def test_detect_resonance(obstructed_map, diagonal_map):
    hits = detect_resonance(obstructed_map)
    assert hits == [((2, 0), sc(1, 4))]
    assert detect_resonance(diagonal_map) == [((2, 0), sc(1, 4))]
    clean = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(1, 2))]),
            jet_of(2, 2, [((0, 1), sc(1, 3))]),
        )
    )
    assert detect_resonance(clean) == []


def test_analyze_obstructed(obstructed_map):
    report = analyze(obstructed_map)
    assert report.dimension == 2
    assert report.truncation_degree == 2
    assert report.basis_size == 5
    assert not report.full_rank
    by_value = {r.value: r for r in report.eigenvalues}
    assert set(by_value) == {sc(1, 2), sc(1, 4)}
    bad = by_value[sc(1, 4)]
    assert bad.resonant and bad.witnesses == ((2, 0),)
    assert bad.geometric_multiplicity == 1
    assert bad.kernel_dimension == 1
    assert bad.projected_dimension == 0
    assert not bad.full_rank_possible
    good = by_value[sc(1, 2)]
    assert good.full_rank_possible and not good.resonant


def test_analyze_diagonal_resonance_without_coupling(diagonal_map):
    report = analyze(diagonal_map)
    assert report.full_rank
    by_value = {r.value: r for r in report.eigenvalues}
    rec = by_value[sc(1, 4)]
    assert rec.resonant
    assert rec.geometric_multiplicity == 1
    assert rec.kernel_dimension == 2
    assert rec.projected_dimension == 1


def test_analyze_coupled_four_variables(coupled_map):
    report = analyze(coupled_map)
    assert report.full_rank
    assert report.truncation_degree == 3
    assert report.basis_size == 34
    by_value = {r.value: r for r in report.eigenvalues}
    assert by_value[sc(1, 2)].kernel_dimension == 1
    quarter = by_value[sc(1, 4)]
    assert (
        quarter.geometric_multiplicity,
        quarter.kernel_dimension,
        quarter.projected_dimension,
    ) == (1, 2, 1)
    eighth = by_value[sc(1, 8)]
    assert (
        eighth.geometric_multiplicity,
        eighth.kernel_dimension,
        eighth.projected_dimension,
    ) == (1, 3, 1)


def test_one_truncation_degree_search_per_call(coupled_map, record_calls):
    # engine holds its own name for the search; count through both.
    calls = record_calls("truncation_degree", compop, engine)
    for run in (
        lambda: analyze(coupled_map),
        lambda: truncated_operator(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
    ):
        calls.clear()
        engine._kept = None  # each run prepares its map from scratch
        run()
        assert len(calls) == 1


def test_one_resonance_search_per_call(coupled_map, record_calls):
    calls = record_calls("resonances", compop, engine)
    for run in (
        lambda: analyze(coupled_map),
        lambda: detect_resonance(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
    ):
        calls.clear()
        engine._kept = None  # each run prepares its map from scratch
        run()
        assert len(calls) == 1


def _copy(phi: PolyMap, degree=None) -> PolyMap:
    """An equal map with fresh coefficient dicts, at `degree` if given."""
    return PolyMap(tuple(
        Jet(c.dim, c.degree if degree is None else degree, dict(c.coeffs))
        for c in phi.components
    ))


@pytest.fixture
def count_preparations(record_calls):
    """Calls of `build` and of the Jordan transition, each counted through every binding."""
    return (
        record_calls("build", compop, engine),
        record_calls("transition_to_jordan_triangular", linalg, engine),
    )


def test_one_map_is_prepared_once(coupled_map, count_preparations):
    """analyze, then solve at K and at degree 10, and the rest of one map share one operator."""
    builds, transitions = count_preparations
    k = analyze(coupled_map).truncation_degree
    assert k > 1
    assert solve(coupled_map, degree=k).degree == k
    assert solve(coupled_map, degree=10).degree == 10
    solve_power(coupled_map, 2, degree=6)
    truncated_operator(coupled_map)
    assert len(builds) == 1 and len(transitions) == 1


def test_an_equal_map_reuses_the_kept_operator(coupled_map, count_preparations):
    builds, transitions = count_preparations
    op = truncated_operator(coupled_map)
    # Fresh dicts, and a raised truncation degree: the coefficients decide.
    for twin in (_copy(coupled_map), _copy(coupled_map, degree=6)):
        assert truncated_operator(twin) is op
        analyze(twin)
    assert len(builds) == 1 and len(transitions) == 1


def test_a_changed_map_is_prepared_again(obstructed_map, diagonal_map, count_preparations):
    builds, transitions = count_preparations
    assert not analyze(obstructed_map).full_rank
    analyze(diagonal_map)
    assert not analyze(obstructed_map).full_rank
    assert len(builds) == 3 and len(transitions) == 3
    # Dropping z1^2/16 in place uncouples the map, which the kept copy must not hide.
    del obstructed_map.components[1].coeffs[(2, 0)]
    assert analyze(obstructed_map).full_rank
    assert len(builds) == 4 and len(transitions) == 4


def _full_rank_json(phi: PolyMap, degree=None) -> dict:
    """The document of a full-rank `solve`, or of the report that refused it."""
    try:
        return documents.solution_json(solve(phi, degree=degree))
    except NoFullRankError as refused:
        return documents.analysis_json(refused.report)


def _documents(phi: PolyMap, cold: bool) -> List[str]:
    """The machine documents of a run of requests on phi; `cold` forgets the kept map before each."""
    requests = (
        lambda: documents.analysis_json(analyze(phi)),
        lambda: documents.operator_json(truncated_operator(phi)),
        lambda: documents.solution_json(solve(phi, degree=3, mode="independent")),
        lambda: documents.solution_json(solve(phi, mode="independent")),
        lambda: documents.solution_json(solve_power(phi, 2, degree=5)),
        lambda: documents.solution_json(solve(phi, degree=1, mode="independent")),
        lambda: _full_rank_json(phi, degree=4),
        lambda: documents.analysis_json(analyze(phi)),
    )
    out = []
    for request in requests:
        if cold:
            engine._kept = None
        out.append(documents.dump(request()))
    return out


def test_documents_from_a_kept_map_equal_cold_ones(obstructed_map, diagonal_map, coupled_map):
    # K = 1 below cubic terms: past K the lifter needs more of the map than the operator's source.
    nonresonant = random_poly_map(random.Random(5), 2, NONRESONANT_POOL[:2], 3)
    assert truncated_operator(nonresonant).degree == 1
    for phi in (obstructed_map, diagonal_map, coupled_map, nonresonant):
        engine._kept = None
        assert _documents(phi, cold=False) == _documents(phi, cold=True)


#: A Jordan block of 1/2 beside 1/4, which z1^2, z1z2 and z2^2 reach.  The
#: 1/4 component carries none of them, so the verdict is full rank, until
#: `_OBSTRUCTING` adds z1^2 to it.
_JORDAN_RESONANT = [
    [((1, 0, 0), sc(1, 2)), ((0, 1, 0), ONE), ((0, 0, 2), sc(1, 5))],
    [((0, 1, 0), sc(1, 2)), ((1, 1, 0), sc(1, 3)), ((0, 2, 0), sc(1, 7))],
    [((0, 0, 1), sc(1, 4)), ((1, 0, 1), sc(1, 6))],
]
_OBSTRUCTING = ((2, 0, 0), sc(1, 9))


@pytest.mark.parametrize("obstructed", [False, True])
def test_each_eigenvalue_is_swept_once_per_kept_map(obstructed, monkeypatch, record_calls):
    """analyze, a full-rank solve, an independent solve, solve_power and
    analyze again of one map sweep disjoint eigenvalue sets that cover the
    corner, and form the report once."""
    terms = [list(t) for t in _JORDAN_RESONANT]
    if obstructed:
        terms[2].append(_OBSTRUCTING)
    phi = PolyMap(tuple(jet_of(3, 2, t) for t in terms))
    sweeps = []
    sweep_all = engine.incremental_jordanize

    def recorded(*args, sweep):
        sweeps.append(set(sweep))
        return sweep_all(*args, sweep=sweep)

    monkeypatch.setattr(engine, "incremental_jordanize", recorded)
    reports = record_calls("_report", engine)
    report = analyze(phi)
    assert report.full_rank is not obstructed
    assert sweeps == [{sc(1, 4)}]  # the corner eigenvalue the rows past the corner repeat
    if obstructed:
        with pytest.raises(NoFullRankError) as refused:
            solve(phi, degree=4)
        assert refused.value.report is report
    else:
        assert verify(phi, solve(phi, degree=4).components).passed
    assert verify(phi, solve(phi, degree=4, mode="independent").components).passed
    assert verify(phi, solve_power(phi, 2, degree=4).components, 2).passed
    assert analyze(phi) is report
    assert sweeps == [{sc(1, 4)}, {sc(1, 2)}]
    assert len(reports) == 1


@st.composite
def _request_orders(draw):
    """A map whose eigenvalues repeat and collide, and an order of three requests on it."""
    dim, gaussian = draw(st.integers(2, 3)), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    return phi, draw(st.permutations("asf"))


@settings(max_examples=40, deadline=None)
@given(_request_orders())
def test_every_request_order_equals_cold_requests(drawn):
    """a (analyze), s (independent solve) and f (full-rank solve) in any
    order give the documents of cold requests, and the kept chains of each
    eigenvalue equal those of one cold sweep over the whole corner."""
    phi, order = drawn
    requests = {
        "a": lambda: documents.analysis_json(analyze(phi)),
        "s": lambda: documents.solution_json(solve(phi, degree=4, mode="independent")),
        "f": lambda: _full_rank_json(phi, degree=4),
    }
    cold = {}
    for name, request in requests.items():
        engine._kept = None
        cold[name] = documents.dump(request())
    engine._kept = None
    for name in order:
        assert documents.dump(requests[name]()) == cold[name]
    op, n = truncated_operator(phi), phi.dim
    corner = set(op.diag[:n])
    whole = linalg.incremental_jordanize(op.lower, op.diag, n, sweep=corner)
    kept = engine._kept.chains
    assert kept.original_blocks == whole.original_blocks
    for mu in corner:
        assert [c for c in kept.chains if c.eigenvalue == mu] == [
            c for c in whole.chains if c.eigenvalue == mu
        ]
    assert len(kept.chains) == len(whole.chains)


@pytest.mark.parametrize(
    "terms",
    [
        # A Jordan block of 1/2 beside a simple 1/3: multiplicities 1, 1.
        [[((1, 0, 0), sc(1, 2)), ((0, 1, 0), ONE)], [((0, 1, 0), sc(1, 2))], [((0, 0, 1), sc(1, 3))]],
        # Two blocks of 1/2 and a quadratic term: multiplicities 2, 1.
        [[((1, 0, 0), sc(1, 2))], [((0, 1, 0), sc(1, 2)), ((2, 0, 0), sc(1, 5))], [((0, 0, 1), sc(1, 4))]],
    ],
)
def test_one_operator_sweep_per_request(terms, obstructed_map, record_calls):
    """Each request on a map not kept sweeps the operator once, and the
    multiplicities come from the Jordan corner of that sweep."""
    phi = PolyMap(tuple(jet_of(3, 2, t) for t in terms))
    calls = record_calls("incremental_jordanize", linalg, engine)

    def refused():
        with pytest.raises(NoFullRankError):
            solve(obstructed_map)

    for run in (
        lambda: analyze(phi),
        lambda: solve(phi, degree=4),
        lambda: solve(phi, degree=4, mode="independent"),
        refused,
        lambda: solve_power(phi, 2, degree=4),
    ):
        calls.clear()
        engine._kept = None  # each run prepares its map from scratch
        run()
        assert len(calls) == 1
    report = analyze(phi)
    linear = phi.linear_part()
    for rec in report.eigenvalues:
        assert rec.geometric_multiplicity == 3 - rank(linear.shift(rec.value))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_analyze_matches_sympy(seed, dim, gaussian):
    """Every record of `analyze` against sympy, on maps whose eigenvalues
    repeat and whose products land back in the spectrum."""
    rng = random.Random(seed)
    pool = GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    report = analyze(phi)
    operator = truncated_operator(phi).matrix
    linear = phi.linear_part()
    values = [r.value for r in report.eigenvalues]
    assert len(values) == len(set(values)) and set(values) == set(diag)
    possible = []
    for rec in report.eigenvalues:
        kernel, projected = oracle.nullspace_dimensions(operator, rec.value, dim)
        geometric = dim - oracle.shifted_domain_matrix(linear, rec.value).rank()
        assert (rec.kernel_dimension, rec.projected_dimension) == (kernel, projected)
        assert rec.geometric_multiplicity == geometric
        assert rec.full_rank_possible == (projected == geometric)
        possible.append(projected == geometric)
    assert report.full_rank == all(possible)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans())
def test_analyze_equals_the_report_of_the_unfiltered_sweep(seed, dim, gaussian):
    """`analyze` sweeps only the corner eigenvalues repeated past the
    corner, and its report equals the one over the sweep of them all.

    The pools mix resonant eigenvalues with 2/5 and 3/7, which no product
    of the pool reaches, so most spectra have eigenvalues of both kinds.
    """
    rng = random.Random(seed)
    pool = (GAUSSIAN_SPECTRUM if gaussian else REAL_SPECTRUM) + (sc(2, 5), sc(3, 7))
    diag = [rng.choice(pool) for _ in range(dim)]
    phi = random_poly_map(rng, dim, diag, rng.randint(2, 3), gaussian=gaussian)
    prep = engine._prepare(phi, None)
    full = linalg.incremental_jordanize(
        prep.op.lower, prep.op.diag, dim, sweep=set(prep.op.diag[:dim])
    )
    assert analyze(phi) == engine._report(prep, full)


def test_eigenvalue_near_one_is_answered():
    # phi(z) = (999/1000 z1, z2/2 + z1^2/3): no product lambda^alpha with
    # |alpha| >= 2 is an eigenvalue, yet the brute force walked 241k exponents.
    phi = PolyMap(
        (
            jet_of(2, 2, [((1, 0), sc(999, 1000))]),
            jet_of(2, 2, [((0, 1), sc(1, 2)), ((2, 0), sc(1, 3))]),
        )
    )
    report = analyze(phi)
    assert report.truncation_degree == 1
    assert report.full_rank
    assert detect_resonance(phi) == []


def diagonal_family(ds):
    """lambda_i = 1/d_i, plus z1^2/3 in components 2..n."""
    n = len(ds)
    square = (2,) + (0,) * (n - 1)
    return PolyMap(
        tuple(
            jet_of(
                n,
                2,
                [(tuple(int(j == i) for j in range(n)), sc(1, d))]
                + ([(square, sc(1, 3))] if i else []),
            )
            for i, d in enumerate(ds)
        )
    )


@pytest.mark.parametrize("ds, size", [((2, 4, 8, 64), 209), ((2, 4, 8, 256), 494)])
def test_analyze_large_diagonal_family(ds, size):
    report = analyze(diagonal_family(ds))
    assert report.basis_size == size
    assert [(r.kernel_dimension, r.projected_dimension) for r in report.eigenvalues] == [
        (1, 1),
        (1, 0),
        (2, 1),
        (4, 1),
    ]
    assert report.full_rank is False


def test_operator_is_never_eliminated_densely(coupled_map, monkeypatch):
    """Only n-sized blocks reach the echelon, `shift` or `ExactMatrix`; the N x N operator never does.

    An echelon's shape is (vectors added to it, their length).
    """
    n = coupled_map.dim
    size = truncated_operator(coupled_map).size
    assert size > n
    eliminated, shifted, built = {}, [], []
    add, shift, new = linalg._Echelon.add, ExactMatrix.shift, ExactMatrix.__new__

    def counted_add(echelon, v):
        count, _ = eliminated.get(echelon, (0, 0))
        eliminated[echelon] = (count + 1, len(v))
        return add(echelon, v)

    def counted_shift(m, lam):
        shifted.append(m.rows)
        return shift(m, lam)

    def counted_new(cls, rows, cols, entries):
        built.append((rows, cols))
        return new(cls, rows, cols, entries)

    monkeypatch.setattr(linalg._Echelon, "add", counted_add)
    monkeypatch.setattr(ExactMatrix, "shift", counted_shift)
    monkeypatch.setattr(ExactMatrix, "__new__", counted_new)
    for run in (
        lambda: analyze(coupled_map),
        lambda: solve(coupled_map, degree=4),
        lambda: solve_power(coupled_map, 2, degree=4),
    ):
        eliminated.clear()
        shifted.clear()
        built.clear()
        engine._kept = None  # each run prepares its map from scratch
        run()
        assert eliminated and all(min(shape) <= n for shape in eliminated.values())
        assert all(rows <= n for rows in shifted)
        assert built and all(rows <= n and cols <= n for rows, cols in built)


def test_large_sparse_operator_analysis():
    """N = 1286: d = (2, 4, 8, 16, 256) truncates at K = 8 in five variables."""
    report = analyze(diagonal_family((2, 4, 8, 16, 256)))
    assert report.truncation_degree == 8
    assert report.basis_size == 1286
    assert [(r.kernel_dimension, r.projected_dimension) for r in report.eigenvalues] == [
        (1, 1),
        (1, 0),
        (2, 1),
        (3, 1),
        (7, 1),
    ]
    assert report.full_rank is False


def test_jordanize_dots_only_coupled_chains(record_calls):
    """A row is dotted only with chains supported on its nonzero columns.

    Dotting every appended row with every chain took 125,578 `_sparse_dot`
    calls for this solve (N = 494); the support index must stay under a
    tenth of that.  The solve starts from a map not kept, so it sweeps
    every corner eigenvalue: after `analyze` it would sweep only 1/2,
    whose chain no row couples with.
    """
    phi = diagonal_family((2, 4, 8, 256))
    report = analyze(phi)
    assert report.basis_size == 494
    engine._kept = None
    calls = record_calls("_sparse_dot", linalg)
    sol = solve(phi, degree=report.truncation_degree, mode="independent")
    assert verify(phi, sol.components).passed
    assert 0 < len(calls) < 12558


def test_truncated_operator_diagonal(diagonal_map):
    op = truncated_operator(diagonal_map)
    assert op.diag == (sc(1, 2), sc(1, 4), sc(1, 4), sc(1, 8), sc(1, 16))
    assert not any(op.lower)


def test_solve_full_rank_raises_on_obstruction(obstructed_map):
    with pytest.raises(NoFullRankError) as info:
        solve(obstructed_map)
    assert info.value.report.full_rank is False
    assert "1/4" in str(info.value)


def test_solve_independent_on_obstructed(obstructed_map):
    sol = solve(obstructed_map, mode="independent")
    assert sol.degree == DEFAULT_DEGREE
    assert sol.derivative_rank == 1
    assert sol.component_rank == 2
    f1, f2 = sol.components.components
    assert f1 == Jet.monomial(2, sol.degree, (1, 0))
    assert f2.coefficient((0, 1)).is_zero()
    c = f2.coefficient((2, 0))
    assert not c.is_zero()
    assert f2 == Jet.monomial(2, sol.degree, (2, 0), c)
    check = verify(obstructed_map, sol.components)
    assert check.passed and check.first_failure is None


def test_solve_full_rank_diagonal(diagonal_map):
    sol = solve(diagonal_map)
    assert sol.full_rank
    assert sol.derivative_rank == 2
    d = sol.components.linear_part()
    assert rank(d) == 2
    assert d.at(0, 1).is_zero() and d.at(1, 0).is_zero()
    check = verify(diagonal_map, sol.components)
    assert check.passed and check.clean_degree == sol.degree


def test_solve_coupled_map_matches_chain_structure(coupled_map):
    sol = solve(coupled_map, degree=10)
    assert sol.full_rank and sol.derivative_rank == 4
    check = verify(coupled_map, sol.components)
    assert check.passed and check.clean_degree == 10
    f3 = sol.components.component(2)
    ratio = f3.coefficient((0, 0, 1, 0))
    assert not ratio.is_zero()
    assert f3.coefficient((2, 0, 0, 0)) == ratio
    assert f3 == Jet.build(
        4, sol.degree, [((0, 0, 1, 0), ratio), ((2, 0, 0, 0), ratio)]
    )
    info3 = sol.component_info[2]
    assert info3.eigenvalue == sc(1, 4)
    assert info3.block_size == 2 and info3.position == 2
    info2 = sol.component_info[1]
    assert info2.block == info3.block and info2.position == 1


def test_chained_components_scale_jointly(coupled_map):
    sol = solve(coupled_map, degree=6)
    comps = list(sol.components.components)
    scale = sc(1, 8)

    def scaled(indices):
        return PolyMap(
            tuple(
                c.scale(scale) if i in indices else c
                for i, c in enumerate(comps)
            )
        )

    assert verify(coupled_map, scaled({2})).first_failure is not None
    assert verify(coupled_map, scaled({1, 2})).passed
    assert verify(coupled_map, scaled({1})).first_failure is not None


def test_solve_matches_classical_one_variable_recursion():
    phi = one_var_map({1: sc(1, 2), 2: sc(1), 4: sc(-1, 3)}, 4)
    degree = 9
    sol = solve(phi, degree=degree)
    assert sol.full_rank
    coeffs = koenigs_oracle(
        [ZERO, sc(1, 2), sc(1), ZERO, sc(-1, 3)], degree
    )
    f = sol.components.component(0)
    lead = f.coefficient((1,))
    assert not lead.is_zero()
    for m in range(1, degree + 1):
        assert f.coefficient((m,)) == coeffs[m] * lead


def test_solutions_scale_by_derivative_normalization():
    phi = one_var_map({1: sc(2, 5), 3: sc(1, 2)}, 3)
    sol = solve(phi, degree=7)
    g = sol.components.component(0)
    lead = g.coefficient((1,))
    normalized = g.scale(ONE / lead)
    coeffs = koenigs_oracle([ZERO, sc(2, 5), ZERO, sc(1, 2)], 7)
    for m in range(1, 8):
        assert normalized.coefficient((m,)) == coeffs[m]


def test_solve_respects_requested_degree(diagonal_map):
    assert solve(diagonal_map, degree=4).degree == 4
    assert solve(diagonal_map).degree == DEFAULT_DEGREE
    assert solve(diagonal_map, degree=1).degree == 2


def test_nothing_is_lifted_at_the_truncation_degree(coupled_map, monkeypatch):
    k = analyze(coupled_map).truncation_degree
    expect = solve(coupled_map, degree=k + 1).components.truncate(k)

    def refuse(*args):
        raise AssertionError("a lifter was built at the truncation degree")

    monkeypatch.setattr(engine, "_Lifter", refuse)
    assert solve(coupled_map, degree=k).components == expect


def test_random_nonresonant_maps_solve_and_verify():
    rng = random.Random(61)
    for _ in range(8):
        n = rng.randint(1, 3)
        diag = rng.sample(list(NONRESONANT_POOL), n)
        phi = random_poly_map(rng, n, diag, 3)
        report = analyze(phi)
        assert report.full_rank and report.truncation_degree == 1
        sol = solve(phi, degree=6)
        assert sol.derivative_rank == n
        check = verify(phi, sol.components)
        assert check.passed and check.clean_degree == 6


def test_random_resonant_maps_solve_independent():
    rng = random.Random(67)
    diag = [sc(1, 2), sc(1, 4)]
    for _ in range(5):
        phi = random_poly_map(rng, 2, diag, 3)
        sol = solve(phi, degree=6, mode="independent")
        assert sol.component_rank == 2
        assert verify(phi, sol.components).passed


def test_solve_transport_under_conjugation():
    rng = random.Random(71)
    phi0 = random_poly_map(
        rng, 2, [sc(1, 2), sc(1, 3)], 6, upper_density=0.0
    )
    d = ExactMatrix.from_rows([[sc(1), ZERO], [sc(2), sc(1)]])
    rotated = conjugate_map(phi0, d)
    assert rotated.linear_part().is_lower_triangular()
    assert not rotated.linear_part().is_upper_triangular()
    sol = solve(rotated, degree=6)
    assert sol.full_rank
    check = verify(rotated, sol.components)
    assert check.passed and check.clean_degree == 6


def test_verify_reports_first_failure_in_monomial_order(diagonal_map):
    broken = PolyMap(
        (
            jet_of(2, 3, [((1, 0), ONE), ((0, 2), sc(1))]),
            jet_of(2, 3, [((0, 1), ONE)]),
        )
    )
    report = verify(diagonal_map, broken)
    assert not report.passed
    comp, alpha, value = report.first_failure
    assert comp == 0 and alpha == (0, 2)
    assert value == sc(1, 16) - sc(1, 2)
    assert report.clean_degree == 1


def test_verify_power_argument(diagonal_map):
    sol = solve_power(diagonal_map.truncate(2), 2, degree=6)
    assert sol.power == 2
    check = verify(diagonal_map, sol.components, power=2)
    assert check.passed
    assert not verify(diagonal_map, sol.components, power=1).passed


def test_verify_at_a_large_power_squares_the_derivative(record_calls):
    """F(z) = z against phi(z) = z/2 at k = 20000: L^k by repeated squaring."""
    calls = record_calls("mat_mul", linalg)
    phi = one_var_map({1: sc(1, 2)}, 1)
    report = verify(phi, one_var_map({1: ONE}, 1), power=20000)
    assert report.first_failure == (0, (1,), sc(1, 2) - Scalar.of(Fraction(1, 2**20000)))
    assert report.clean_degree == 0
    assert len(calls) <= 30


def test_solve_power_one_variable_is_kth_power_of_base():
    phi = one_var_map({1: sc(1, 3), 2: sc(1, 2)}, 2)
    base = solve(phi, degree=8, mode="independent")
    for k in (2, 3):
        sol = solve_power(phi, k, degree=8)
        assert sol.derivative_rank == 0
        assert sol.component_rank == 1
        f = base.components.component(0)
        expect = f
        for _ in range(k - 1):
            expect = expect * f
        assert sol.components.component(0) == expect
        assert verify(phi, sol.components, power=k).passed


def test_solve_power_diagonal_is_componentwise_power(diagonal_map):
    base = solve(diagonal_map, degree=6)
    sol = solve_power(diagonal_map.truncate(2), 2, degree=6)
    for i in range(2):
        f = base.components.component(i)
        assert sol.components.component(i) == f * f
    assert verify(diagonal_map, sol.components, power=2).passed


def test_solve_power_on_jordan_block_linear_map():
    phi = PolyMap(
        (
            jet_of(2, 1, [((1, 0), sc(1, 4)), ((0, 1), ONE)]),
            jet_of(2, 1, [((0, 1), sc(1, 4))]),
        )
    )
    for k in (2, 3):
        sol = solve_power(phi, k, degree=8)
        assert sol.derivative_rank == 0
        assert sol.component_rank == 2
        check = verify(phi, sol.components, power=k)
        assert check.passed and check.clean_degree == 8


def test_solve_power_coupled_map(coupled_map):
    sol = solve_power(coupled_map, 2, degree=8)
    assert sol.derivative_rank == 0
    assert sol.component_rank == 4
    assert verify(coupled_map, sol.components, power=2).passed


def test_solve_power_one_delegates(obstructed_map):
    sol = solve_power(obstructed_map, 1, degree=5)
    assert sol.power == 1
    assert sol.derivative_rank == 1
    assert verify(obstructed_map, sol.components).passed
    assert sol == solve(obstructed_map, 5, mode="independent")


def test_solve_power_rejects_bad_power(diagonal_map):
    with pytest.raises(ValueError):
        solve_power(diagonal_map, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4),
    st.booleans(),
)
def test_component_rank_on_the_support_matches_the_dense_route(seed, n, degree, dim, gaussian):
    rng = random.Random(seed)
    monomials = enumerate_monomials(n, degree)
    comps = []
    for _ in range(dim):
        if comps and rng.random() < 0.3:
            # A combination of earlier components keeps the rank down.
            a, b = rng.choice(comps), rng.choice(comps)
            comps.append(a.scale(sc_fraction_pool(rng, gaussian=gaussian)) + b)
            continue
        terms = [(m, sc_fraction_pool(rng, gaussian=gaussian)) for m in rng.sample(monomials, min(3, len(monomials)))]
        comps.append(Jet.build(n, degree, terms))
    f = PolyMap(tuple(comps))
    dense = [[c.coefficient(a) for a in monomials] for c in f.components]
    assert engine.component_rank(f) == vectors_rank(dense)


def test_component_rank_reads_only_the_linear_columns_at_full_rank(coupled_map, monkeypatch):
    # A full-rank solution has derivative rank n, so its n linear columns
    # already span; no column of the higher monomials may be formed.
    sol = solve(coupled_map, degree=6)
    f = sol.components
    n = f.dim
    assert sol.derivative_rank == n
    assert len({a for c in f.components for a in c.coeffs}) > n
    read = []
    real = engine.vectors_rank

    def spy(vectors):
        return real(read.append(list(v)) or v for v in vectors)

    monkeypatch.setattr(engine, "vectors_rank", spy)
    assert engine.component_rank(f) == n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert read == [[c.coefficient(u) for c in f.components] for u in units]


def test_the_solver_builds_no_fraction(monkeypatch):
    """Scalar's integers are the only numbers the solver computes with."""

    def refuse(*args):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr(scalars, "Fraction", refuse)
    half = scalar_inv(Scalar(2, 0))
    lam = Scalar(1, 1) * half  # (1+i)/2, so lam^2 = i/2 is a resonance
    phi = PolyMap((
        Jet.build(2, 3, [((1, 0), lam), ((0, 2), Scalar(1, -1)), ((2, 1), half)]),
        Jet.build(2, 3, [((0, 1), lam * lam), ((2, 0), Scalar(0, 3) * half)]),
    ))
    diag = [lam, lam * lam]
    assert compop.truncation_degree(diag) == 2
    found = detect_resonance(phi)
    assert found == [((2, 0), lam * lam)]
    report = analyze(phi)
    sol = solve_power(phi, 2)
    assert verify(phi, sol.components, 2).passed
    printed = [str(x) for _, x in found]
    printed += [str(rec.value) for rec in report.eigenvalues]
    printed += [str(c) for f in sol.components.components for c in f.coeffs.values()]
    assert printed[:3] == ["1/2i", "1/2+1/2i", "1/2i"]
    assert '"re": "1/2"' in documents.dump(documents.solution_json(sol))
