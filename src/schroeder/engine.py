"""Decide and solve the functional equation F(phi(z)) = phi'(0)^k F(z).

`analyze` reports, per eigenvalue of the derivative at the fixed point,
whether eigenvalue collisions lambda^alpha = mu obstruct a solution F
with invertible derivative; the verdict is exact, computed from kernels
of the truncated composition operator.

`solve` (k = 1) and `solve_power` (any k >= 1) share one construction:
conjugate the map so its derivative is an upper Jordan matrix, report,
take the operator's Jordan chains, lift each chain to the output degree
by solving triangular coefficient systems (whose divisors
lambda^alpha - lambda are nonzero above the operator's truncation
degree), assemble the components, conjugate them back and check their
ranks.  Only one step depends on k: for k >= 2 each block's components
are multiplied by a power of its eigenfunction and remixed into chains
of the k-th power factor.  `solve` may gate the construction on the
full-rank verdict.  `verify` replays a solution against the equation
term by term.

Conjugation in and out goes through `maps.conjugate_map`, so callers
only need a triangular derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .compop import TruncatedCompOp, _build_at, resonances, truncation_degree, vector_jet
from .linalg import (
    ExactMatrix,
    SparseJordanBasis,
    incremental_jordanize,
    inverse,
    mat_pow,
    rank,
    transition_to_jordan_triangular,
    triangular_kernel,
    vectors_rank,
)
from .maps import (
    PolyMap,
    PowerMemo,
    compose,
    conjugate_map,
    map_compose,
    matrix_apply,
    monomial_power,
)
from .scalars import ONE, ZERO, Scalar, scalar_inv
from .series import Jet, MultiIndex, add_into, enumerate_monomials, monomials_of_degree

DEFAULT_DEGREE = 10


class InvalidMapError(ValueError):
    """Raised when a map cannot be analyzed (not a self-map, derivative not triangular)."""


class NoFullRankError(RuntimeError):
    """Raised by `solve` in full-rank mode when the analysis rules a full-rank solution out.

    The `report` attribute holds the analysis that produced the verdict.
    """

    def __init__(self, report: "AnalysisReport"):
        blocked = ", ".join(
            str(rec.value) for rec in report.eigenvalues if not rec.full_rank_possible
        )
        super().__init__(
            f"no solution with invertible derivative exists; blocked at eigenvalue(s) {blocked}"
        )
        self.report = report


@dataclass(frozen=True)
class EigenvalueRecord:
    """Exact obstruction data for one eigenvalue of the derivative."""

    value: Scalar
    resonant: bool
    witnesses: Tuple[MultiIndex, ...]
    geometric_multiplicity: int
    kernel_dimension: int
    projected_dimension: int
    full_rank_possible: bool


@dataclass(frozen=True)
class AnalysisReport:
    dimension: int
    truncation_degree: int
    basis_size: int
    eigenvalues: Tuple[EigenvalueRecord, ...]
    full_rank: bool


@dataclass(frozen=True)
class ComponentInfo:
    """Where a solution component comes from: block of the derivative and chain slot."""

    index: int
    eigenvalue: Scalar
    block: int
    position: int
    block_size: int


@dataclass(frozen=True)
class SchroederSolution:
    """A truncated solution F of F(phi(z)) = phi'(0)^power F(z)."""

    map: PolyMap
    power: int
    degree: int
    components: PolyMap
    component_info: Tuple[ComponentInfo, ...]
    analysis: AnalysisReport
    derivative_rank: int
    component_rank: int

    @property
    def full_rank(self) -> bool:
        return self.derivative_rank == self.components.dim


@dataclass(frozen=True)
class VerifyReport:
    """Result of replaying a solution against the equation."""

    degree: int
    clean_degree: int
    first_failure: Optional[Tuple[int, MultiIndex, Scalar]]
    derivative_rank: int
    component_rank: int

    @property
    def passed(self) -> bool:
        return self.first_failure is None


@dataclass(frozen=True)
class _Prep:
    phi: PolyMap
    jordan: ExactMatrix
    conjugator: ExactMatrix
    psi: PolyMap
    op: TruncatedCompOp
    work: int


def validate_map(phi: PolyMap) -> ExactMatrix:
    """Check the engine's preconditions; returns the derivative at the origin."""
    if phi.dim != phi.source_dim:
        raise InvalidMapError(
            f"expected a self-map, got {phi.dim} components in {phi.source_dim} variables"
        )
    linear = phi.linear_part()
    if not (linear.is_lower_triangular() or linear.is_upper_triangular()):
        raise InvalidMapError(
            "derivative at the origin is not triangular; conjugate the map first"
        )
    return linear


def detect_resonance(phi: PolyMap) -> List[Tuple[MultiIndex, Scalar]]:
    """Eigenvalue products of total degree >= 2 that land back in the spectrum.

    Returns (exponent, product) pairs in monomial order; empty means no
    collisions, in which case the truncation degree is 1.
    """
    return resonances(validate_map(phi).diagonal_entries())


def _prepare(phi: PolyMap, degree: Optional[int]) -> _Prep:
    linear = validate_map(phi)
    basis, jordan = transition_to_jordan_triangular(linear.transpose())
    conj = basis.chain_matrix().transpose()
    diag = jordan.diagonal_entries()
    k = truncation_degree(diag)
    work = k if degree is None else max(k, degree)
    psi = conjugate_map(phi.truncate(work), conj)
    # K was searched on the Jordan diagonal; it holds for psi if psi carries it.
    if psi.linear_part().diagonal_entries() != diag:
        raise RuntimeError("conjugation changed the diagonal of the derivative")
    op = _build_at(psi, k)
    return _Prep(phi, jordan, conj, psi, op, work)


def _report(prep: _Prep) -> AnalysisReport:
    op = prep.op
    n = prep.phi.dim
    seen: List[Scalar] = []
    for lam in prep.jordan.diagonal_entries():
        if lam not in seen:
            seen.append(lam)
    records = []
    for mu in seen:
        # The first n rows hold only columns below n: they are the n x n corner.
        orig = len(triangular_kernel(op.lower[:n], op.diag[:n], mu))
        kb = triangular_kernel(op.lower, op.diag, mu)
        proj = vectors_rank([[dict(v).get(j, ZERO) for j in range(n)] for v in kb])
        witnesses = tuple(
            alpha
            for alpha, x in zip(op.basis, op.diag)
            if sum(alpha) >= 2 and x == mu
        )
        records.append(
            EigenvalueRecord(
                value=mu,
                resonant=bool(witnesses),
                witnesses=witnesses,
                geometric_multiplicity=orig,
                kernel_dimension=len(kb),
                projected_dimension=proj,
                full_rank_possible=(proj == orig),
            )
        )
    return AnalysisReport(
        dimension=n,
        truncation_degree=op.degree,
        basis_size=op.size,
        eigenvalues=tuple(records),
        full_rank=all(r.full_rank_possible for r in records),
    )


def analyze(phi: PolyMap) -> AnalysisReport:
    """Exact verdict on the existence of a solution with invertible derivative."""
    return _report(_prepare(phi, None))


def truncated_operator(phi: PolyMap) -> TruncatedCompOp:
    """The truncated operator the engine works with, in its Jordan coordinates."""
    return _prepare(phi, None).op


class _Lifter:
    """Extends chain components beyond the operator degree, one slice at a time.

    For each new degree m the unknown homogeneous part x solves
    x(Lz) - lambda x = (known right-hand side), a system that is lower
    triangular in monomial order with diagonal lambda^alpha - lambda;
    those divisors cannot vanish because every eigenvalue collision
    happens at or below the operator degree.

    Each coefficient is computed once from those already known.  `lift`
    composes g0 with psi once and keeps that composition running: every
    new term x*z^alpha adds x*psi^alpha to it.  The degree-m part of
    psi^alpha is (Lz)^alpha, so when the system reaches z^alpha the
    running coefficient holds both the lower-degree contributions and
    those of the degree-m terms solved before it.  The powers psi^alpha
    and the table of products lambda^alpha (one multiplication each,
    lambda^alpha = lambda^(alpha - e_i) * lambda_i) are shared by every
    chain lifted with one lifter, and dropped with it.
    """

    def __init__(self, psi: PolyMap, base_degree: int, out_degree: int):
        self.psi = psi
        self.base = base_degree
        self.out = out_degree
        self.n = psi.dim
        diag = psi.linear_part().diagonal_entries()
        self.psi_memo: PowerMemo = {}
        self.diag_power: Dict[MultiIndex, Scalar] = {(0,) * self.n: ONE}
        for alpha in enumerate_monomials(self.n, out_degree):
            i = next(j for j, e in enumerate(alpha) if e > 0)
            smaller = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            self.diag_power[alpha] = self.diag_power[smaller] * diag[i]

    def lift(self, g0: Jet, rhs: Optional[Jet], lam: Scalar) -> Jet:
        """Solve g(psi(z)) = lambda g + rhs through the output degree.

        `g0` must satisfy the equation through the base degree and `rhs`
        must already be complete through the output degree.
        """
        g0 = g0.truncate(self.out)
        g = dict(g0.coeffs)
        composed = compose(g0, self.psi, self.psi_memo).coeffs
        target = rhs.coeffs if rhs is not None else {}
        for m in range(self.base + 1, self.out + 1):
            new_terms: Dict[MultiIndex, Scalar] = {}
            for alpha in monomials_of_degree(self.n, m):
                divisor = self.diag_power[alpha] - lam
                if divisor.is_zero():
                    raise RuntimeError(
                        f"divisor vanished at exponent {alpha} above the truncation degree"
                    )
                x = (target.get(alpha, ZERO) - composed.get(alpha, ZERO)) / divisor
                if x.is_zero():
                    continue
                new_terms[alpha] = x
                psi_power = monomial_power(self.psi, alpha, self.psi_memo)
                add_into(composed, psi_power.coeffs, x)
            add_into(g, new_terms)
        return Jet(self.n, self.out, g)


def _lifted_blocks(prep: _Prep, chains: SparseJordanBasis) -> List[Tuple[Scalar, List[Jet]]]:
    """Per original block, in corner order: (eigenvalue, [f_1..f_s]) lifted to the work degree.

    Within a block the components satisfy f_i(psi(z)) = lambda f_i + f_{i+1}
    and the last one is an eigenfunction; they are lifted last-first so
    each right-hand side is already complete.
    """
    lifter = _Lifter(prep.psi, prep.op.degree, prep.work)
    out = []
    for bi, block in enumerate(chains.original_blocks):
        chain = chains.chains[chains.provenance[bi]]
        s = block.length
        base = [vector_jet(prep.op, v) for v in reversed(chain.vectors[:s])]
        lifted: List[Optional[Jet]] = [None] * s
        for i in range(s, 0, -1):
            rhs = lifted[i] if i < s else None
            lifted[i - 1] = lifter.lift(base[i - 1], rhs, block.eigenvalue)
        out.append((block.eigenvalue, [j for j in lifted if j is not None]))
    return out


def component_rank(components: PolyMap) -> int:
    monomials = enumerate_monomials(components.source_dim, components.degree)
    rows = [
        [c.coefficient(a) for a in monomials] for c in components.components
    ]
    return vectors_rank(rows)


def solve(
    phi: PolyMap, degree: Optional[int] = None, mode: str = "full-rank"
) -> SchroederSolution:
    """Construct a truncated solution of F(phi(z)) = phi'(0) F(z).

    In "full-rank" mode the analysis verdict gates the construction and
    the result has an invertible derivative; `NoFullRankError` carries
    the report otherwise.  In "independent" mode the construction always
    proceeds and yields n linearly independent component series, with no
    claim about the derivative.  The output degree is the larger of the
    requested degree (default 10) and the operator truncation degree.
    """
    if mode not in ("full-rank", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    return _construct(phi, 1, degree, gate=(mode == "full-rank"))


def solve_power(
    phi: PolyMap, power: int, degree: Optional[int] = None
) -> SchroederSolution:
    """Construct a truncated solution of F(phi(z)) = phi'(0)^power F(z).

    For power >= 2 the components are products of the power-1 chain
    components, remixed so each derivative block carries its k-th power
    factor; the derivative of F then vanishes, but the n component
    series stay linearly independent.  The output degree is at least
    `power`.  power == 1 is `solve` in "independent" mode.
    """
    if power < 1:
        raise ValueError(f"power must be at least 1, got {power}")
    return _construct(phi, power, degree, gate=False)


def _construct(
    phi: PolyMap, power: int, degree: Optional[int], gate: bool
) -> SchroederSolution:
    """The construction behind `solve` and `solve_power`; `gate` demands a full-rank verdict."""
    request = DEFAULT_DEGREE if degree is None else degree
    prep = _prepare(phi, max(request, power))
    report = _report(prep)
    if gate and not report.full_rank:
        raise NoFullRankError(report)
    chains = incremental_jordanize(prep.op.lower, prep.op.diag, phi.dim)
    comps: List[Jet] = []
    infos: List[ComponentInfo] = []
    for bi, (lam, block_jets) in enumerate(_lifted_blocks(prep, chains)):
        if power >= 2:
            block_jets = _remix(block_jets, lam, power, prep.work)
        s = len(block_jets)
        for i, jet in enumerate(block_jets, start=1):
            infos.append(ComponentInfo(len(comps), lam, bi, i, s))
            comps.append(jet)
    f_phi = conjugate_map(PolyMap(tuple(comps)), inverse(prep.conjugator))
    rank_d = rank(f_phi.linear_part())
    if gate and rank_d != phi.dim:
        raise RuntimeError(
            "full-rank verdict positive but the constructed derivative is singular"
        )
    if power >= 2 and rank_d != 0:
        raise RuntimeError("derivative should vanish for powers above 1")
    comp_rank = component_rank(f_phi)
    if power >= 2 and comp_rank != phi.dim:
        raise RuntimeError(
            "components became dependent under truncation; request a higher degree"
        )
    return SchroederSolution(
        map=phi,
        power=power,
        degree=prep.work,
        components=f_phi,
        component_info=tuple(infos),
        analysis=report,
        derivative_rank=rank_d,
        component_rank=comp_rank,
    )


def _remix(block_jets: List[Jet], lam: Scalar, power: int, work: int) -> List[Jet]:
    """Turn one block's chain [f_1..f_s] into components for the factor J^power.

    h_i = f_i * f_s^(power - 1) / lambda^((power - 1)(s - i)) satisfies
    h_i(psi) = lambda^power h_i + h_{i+1}: a chain of one Jordan block of
    lambda^power.  Recombining the h_i by the chain basis of J^power, for
    J the block of lambda, makes the components follow J^power itself.
    """
    s = len(block_jets)
    top_pow = _jet_pow(block_jets[s - 1], power - 1)
    products = [f * top_pow for f in block_jets]
    scales = [scalar_inv(lam ** ((power - 1) * (s - i))) for i in range(1, s + 1)]
    basis, _ = transition_to_jordan_triangular(mat_pow(_jordan_block_upper(lam, s), power))
    if len(basis.chains) != 1:
        raise RuntimeError("k-th power of a derivative block did not stay a single block")
    chain = basis.chains[0].vectors
    out = []
    for i in range(s):
        acc: Dict[MultiIndex, Scalar] = {}
        for j in range(s):
            c = chain[j][i]
            if not c.is_zero():
                add_into(acc, products[j].coeffs, c * scales[j])
        out.append(Jet(block_jets[0].dim, work, acc))
    return out


def _jordan_block_upper(lam: Scalar, s: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[lam if j == i else ONE if j == i + 1 else ZERO for j in range(s)] for i in range(s)]
    )


def _jet_pow(f: Jet, e: int) -> Jet:
    """f^e for e >= 1."""
    out = f
    for _ in range(e - 1):
        out = out * f
    return out


def verify(phi: PolyMap, components: PolyMap, power: int = 1) -> VerifyReport:
    """Replay F(phi(z)) - phi'(0)^power F(z) and report the first nonzero term.

    Works in the map's own coordinates; no triangularity or spectrum
    condition is needed, so transported solutions check against the
    original map.
    """
    f = components
    if phi.dim != f.source_dim or phi.dim != phi.source_dim:
        raise ValueError("solution and map dimensions do not match")
    d = f.degree
    lhs = map_compose(f, phi.truncate(d))
    factor = mat_pow(phi.linear_part(), power)
    rhs = matrix_apply(factor, f)
    failure: Optional[Tuple[int, MultiIndex, Scalar]] = None
    best_key = None
    for i in range(f.dim):
        residual = lhs.component(i) - rhs.component(i)
        for alpha, c in residual.terms():
            key = (sum(alpha), tuple(-e for e in alpha), i)
            if best_key is None or key < best_key:
                best_key = key
                failure = (i, alpha, c)
            break
    clean = d if failure is None else sum(failure[1]) - 1
    return VerifyReport(
        degree=d,
        clean_degree=clean,
        first_failure=failure,
        derivative_rank=rank(f.linear_part()),
        component_rank=component_rank(f),
    )
