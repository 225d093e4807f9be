"""Decide and solve the functional equation F(phi(z)) = phi'(0)^k F(z).

`analyze` reports, per eigenvalue of the derivative at the fixed point,
whether eigenvalue collisions lambda^alpha = mu obstruct a solution F
with invertible derivative; the verdict is exact, computed from kernels
of the truncated composition operator.  `incremental_jordanize` with
`sweep` set to eigenvalues of the derivative's Jordan corner gives their
chains, and the eigenvectors of the mu-chains are a basis of
ker(C - mu).  `analyze` needs the corner eigenvalues that a row past the
corner repeats, the construction all of them.  Each eigenvalue of a kept
operator (below) is swept at most once: a request sweeps only those the
kept chains lack, and merges the new chains into them (`_chains`).

`solve` (k = 1) and `solve_power` (any k >= 1) share one construction:
conjugate the map so its derivative is an upper Jordan matrix, take
the operator's Jordan chains, lift each chain as far as the output
reads it by solving triangular coefficient systems (whose divisors
lambda^alpha - lambda are nonzero above the operator's truncation
degree), assemble the components, conjugate them back and check their
ranks.  The lifter keeps its running composition in a Gaussian-integer
sum (`maps.IntSum`) and solves only the exponents that carry a
composed or target coefficient; every other one has x = 0.  For k >= 2
each block's components are multiplied by the (k-1)-th power of its
eigenfunction and remixed into chains of the k-th power factor.  Every
component vanishes at 0, so that power has order k - 1, and through the
output degree d the products read each component only through
d - k + 1.  So one rule, for every k, lifts the chains to
max(K, d - k + 1): that is d for k = 1, and K, with nothing to lift,
once k > d - K.  Only `solve` in full-rank mode reads the analysis
report, formed from the same chains, to gate the construction on its
verdict.  `verify` replays a solution against the equation term by
term, composing through one `maps.PowerTable` of the map.

`analyze`, `solve`, `solve_power` and `truncated_operator` start in
`_prepare`, which takes the map alone and returns the entry it keeps for
the last map prepared (`_Kept`): the Jordan transition and its inverse,
the truncation degree K and the operator at K, and then the chains swept
so far and the analysis report, once a request forms them.  K is fixed
by the spectrum of the derivative, so none of these depends on the
requested degree: a new map is conjugated to K alone, and `analyze`
then `solve` of one map (or of an equal one: the kept copies of the
coefficient dicts are compared with `==`) builds the operator once,
sweeps each eigenvalue once and forms the report once.  Any other map
replaces the whole entry.  Only the lifter reads the map past K, and
`_lifted_blocks` conjugates it there itself, only to the degree it
lifts to.

Conjugation in and out inverts the conjugator once (`maps._conjugate`),
so callers only need a triangular derivative.  A diagonal derivative's
transition is a permutation, often the identity: conjugating by it only
relabels terms (`maps.map_compose`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from math import comb
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .compop import (
    TruncatedCompOp,
    build,
    eigenvalue_products,
    resonances,
    truncation_degree,
    vector_jet,
)
from .linalg import (
    ExactMatrix,
    JordanBasis,
    incremental_jordanize,
    inverse,
    mat_pow,
    rank,
    transition_to_jordan_triangular,
    vectors_rank,
)
from .maps import IntSum, PolyMap, PowerTable, _conjugate, map_compose, matrix_apply
from .scalars import ONE, ZERO, Scalar, scalar_inv
from .series import Jet, MultiIndex, add_into, monomials_of_degree, order_key, unit_index

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


class EigenvalueRecord(NamedTuple):
    """Exact obstruction data for one eigenvalue of the derivative."""

    value: Scalar
    resonant: bool
    witnesses: Tuple[MultiIndex, ...]
    geometric_multiplicity: int
    kernel_dimension: int
    projected_dimension: int
    full_rank_possible: bool


class AnalysisReport(NamedTuple):
    dimension: int
    truncation_degree: int
    basis_size: int
    eigenvalues: Tuple[EigenvalueRecord, ...]
    full_rank: bool


class ComponentInfo(NamedTuple):
    """Where a solution component comes from: block of the derivative and chain slot."""

    index: int
    eigenvalue: Scalar
    block: int
    position: int
    block_size: int


class SchroederSolution(NamedTuple):
    """A truncated solution F of F(phi(z)) = phi'(0)^power F(z)."""

    power: int
    degree: int
    components: PolyMap
    component_info: Tuple[ComponentInfo, ...]
    derivative_rank: int
    component_rank: int

    @property
    def full_rank(self) -> bool:
        return self.derivative_rank == self.components.dim


class VerifyReport(NamedTuple):
    """Result of replaying a solution against the equation."""

    degree: int
    clean_degree: int
    first_failure: Optional[Tuple[int, MultiIndex, Scalar]]
    derivative_rank: int
    component_rank: int

    @property
    def passed(self) -> bool:
        return self.first_failure is None


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


class _Kept:
    """What one map determines whatever the work degree, and what its requests found.

    `coeffs` are copies of the map's coefficient dicts; the transition,
    its inverse and the operator at K follow from them, and `op.source`
    is the map conjugated to K, the only degree `_prepare` conjugates it
    to.  Nothing here depends on the work degree; the lifter conjugates
    the map past K itself (`_lifted_blocks`).  `chains` is None
    until the first sweep, and then holds the operator's chains, complete
    for every eigenvalue in `swept` (`_chains`); `report` is None until a
    request forms the analysis report.  Requests set these three in
    place; the entry is never rebuilt for them.
    """

    __slots__ = ("coeffs", "conjugator", "conjugator_inv", "op", "swept", "chains", "report")

    def __init__(
        self,
        coeffs: List[Dict[MultiIndex, Scalar]],
        conjugator: ExactMatrix,
        conjugator_inv: ExactMatrix,
        op: TruncatedCompOp,
    ):
        self.coeffs = coeffs
        self.conjugator = conjugator
        self.conjugator_inv = conjugator_inv
        self.op = op
        self.swept: Set[Scalar] = set()
        self.chains: Optional[JordanBasis] = None
        self.report: Optional[AnalysisReport] = None


#: The last map `_prepare` prepared: copies of its coefficient dicts and what
#: they determine.  One entry, replaced by the next map that differs.
_kept: Optional[_Kept] = None


def _prepare(phi: PolyMap) -> _Kept:
    """The kept entry of phi: its Jordan transition, K and the operator at K.

    A map whose coefficient dicts are `==` to the kept copies reuses the
    kept entry, whatever degree the request asks for; any other map
    replaces it, with phi conjugated to K alone.
    """
    global _kept
    live = [c.coeffs for c in phi.components]
    if _kept is None or _kept.coeffs != live:
        linear = validate_map(phi)
        chain_matrix, jordan = transition_to_jordan_triangular(linear.transpose())
        conj = chain_matrix.transpose()
        conj_inv = inverse(conj)
        diag = jordan.diagonal_entries()
        k = truncation_degree(diag)
        psi = _to_jordan(phi, k, conj, conj_inv, diag)
        _kept = _Kept([dict(c) for c in live], conj, conj_inv, build(psi, k))
    return _kept


def _to_jordan(
    phi: PolyMap, degree: int, conj: ExactMatrix, conj_inv: ExactMatrix, diag: Tuple[Scalar, ...]
) -> PolyMap:
    """phi through `degree` in Jordan coordinates, checked to carry the Jordan diagonal `diag`."""
    psi = _conjugate(phi.truncate(degree), conj, conj_inv)
    # K was searched on the Jordan diagonal; it holds for psi if psi carries it.
    if psi.linear_part().diagonal_entries() != diag:
        raise RuntimeError("conjugation changed the diagonal of the derivative")
    return psi


def _chains(kept: _Kept, sweep: Set[Scalar]) -> JordanBasis:
    """The kept operator's chains, complete for every eigenvalue in `sweep`.

    Each eigenvalue is swept at most once per kept map: only those that
    the kept chains lack are swept, and the result is merged into them.
    A corner chain comes from the sweep that covered its eigenvalue, and
    the new sweep's appended chains go after the kept ones.  A chain
    merges only with chains of its own eigenvalue (`incremental_jordanize`),
    so for each eigenvalue the merged chains are those of one sweep over
    the union, in the same order.  Only the interleaving of appended
    chains of different eigenvalues can differ, and no reader looks at
    it: `_report` reads the chains per eigenvalue, `_lifted_blocks` the
    corner chains alone.
    """
    missing = sweep - kept.swept
    if kept.chains is not None and not missing:
        return kept.chains
    op = kept.op
    chains = incremental_jordanize(op.lower, op.diag, op.dim, sweep=missing)
    old = kept.chains
    if old is not None:
        blocks = chains.original_blocks
        corner = tuple(
            new if b.eigenvalue in missing else was
            for new, was, b in zip(chains.chains, old.chains, blocks)
        )
        appended = old.chains[len(blocks):] + chains.chains[len(blocks):]
        chains = JordanBasis(corner + appended, blocks)
    kept.swept |= missing
    kept.chains = chains
    return chains


def _report(kept: _Kept, chains: JordanBasis) -> AnalysisReport:
    op = kept.op
    n = op.dim
    # The geometric multiplicity of mu is its number of blocks in the
    # n x n Jordan corner.  The eigenvectors of the mu-chains are a basis
    # of ker(C - mu), so their count is its dimension and their first n
    # coordinates give its projection to the linear monomials.
    multiplicity = Counter(b.eigenvalue for b in chains.original_blocks)
    # The rows of degree >= 2 follow the n linear ones; grouped by diagonal entry.
    by_value = defaultdict(list)
    for alpha, x in zip(op.basis[n:], op.diag[n:]):
        by_value[x].append(alpha)
    records = []
    for mu, orig in multiplicity.items():
        kb = [dict(c.vectors[0]) for c in chains.chains if c.eigenvalue == mu]
        proj = vectors_rank([[v.get(j, ZERO) for j in range(n)] for v in kb])
        witnesses = tuple(by_value.get(mu, ()))
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


def _analysis(kept: _Kept, sweep: Set[Scalar]) -> AnalysisReport:
    """The kept map's report, formed once from chains complete for `sweep`.

    Any sweep that holds the corner eigenvalues a row past the corner
    repeats gives the same report (see `analyze`).
    """
    if kept.report is None:
        kept.report = _report(kept, _chains(kept, sweep))
    return kept.report


def analyze(phi: PolyMap) -> AnalysisReport:
    """Exact verdict on the existence of a solution with invertible derivative.

    The report needs complete chains only for the corner eigenvalues that
    a row past the corner has on its diagonal: the chains of any other mu
    gain only coordinates past the corner, which `_report` does not read.
    So `analyze` sweeps only those, and of them only the ones the kept
    chains lack; the report is kept too, so a later `analyze` or
    full-rank `solve` of the same map reuses it.
    """
    kept = _prepare(phi)
    op, n = kept.op, phi.dim
    return _analysis(kept, set(op.diag[:n]) & set(op.diag[n:]))


def truncated_operator(phi: PolyMap) -> TruncatedCompOp:
    """The truncated operator the engine works with, in its Jordan coordinates."""
    return _prepare(phi).op


class _Lifter:
    """Extends chain components beyond the operator degree, one slice at a time.

    For each new degree m the unknown homogeneous part x solves
    x(Lz) - lambda x = (known right-hand side), a system that is lower
    triangular in monomial order with diagonal lambda^alpha - lambda;
    those divisors cannot vanish because every eigenvalue collision
    happens at or below the operator degree.

    Each coefficient is computed once from those already known.  `lift`
    keeps the composition g(psi(z)) running in one Gaussian-integer sum
    (`maps.IntSum`) over the common denominator of g's terms: it starts
    as g0(psi(z)), and each solved layer adds x*psi^alpha for its terms,
    above degree m, after one rescale if the layer's denominators grow
    it.  The sum is keyed by the power table's packed monomials, and
    `IntSum.pop` hands layer m back keyed by exponent tuples, so
    `composed`, the target and the solved terms all share tuple keys.
    The degree-m part of psi^alpha is (Lz)^alpha, which is
    lambda^alpha z^alpha alone unless L has a Jordan block; only then do
    the terms of a layer feed later exponents of the same layer, through
    the layer's `Scalar` coefficients.  An exponent with neither a composed
    nor a target coefficient has x = 0 and is skipped, and its divisor is
    never formed: the table from `eigenvalue_products` holds the powers
    lambda_i^e and multiplies out lambda^alpha at its first lookup.  The
    powers of psi and that table are shared by every chain lifted with
    one lifter, so each lambda^alpha is formed at most once, and both are
    dropped with it.
    """

    def __init__(self, psi: PolyMap, base_degree: int, out_degree: int):
        self.base = base_degree
        self.out = out_degree
        self.n = psi.dim
        self.powers = PowerTable(psi)
        linear = psi.linear_part()
        self.jordan = not (linear.is_lower_triangular() and linear.is_upper_triangular())
        self.diag_power = eigenvalue_products(linear.diagonal_entries(), out_degree)

    def lift(self, g0: Jet, rhs: Optional[Jet], lam: Scalar) -> Jet:
        """Solve g(psi(z)) = lambda g + rhs through the output degree.

        `g0` must satisfy the equation through the base degree and `rhs`
        must already be complete through the output degree.
        """
        out, mul = self.out, Scalar.__mul__  # read per call, as in `series.add_into`
        g = dict(g0.truncate(out).coeffs)
        target = rhs.coeffs if rhs is not None else {}
        acc = IntSum(self.powers)
        acc.add(g.items(), self.base + 1, out)
        for m in range(self.base + 1, out + 1):
            composed = acc.pop(m)
            new_terms: Dict[MultiIndex, Scalar] = {}
            for alpha in monomials_of_degree(self.n, m):
                if alpha not in composed and alpha not in target:
                    continue  # a zero numerator: x = 0
                divisor = self.diag_power[alpha] - lam
                if divisor.is_zero():
                    raise RuntimeError(
                        f"divisor vanished at exponent {alpha} above the truncation degree"
                    )
                x = (target.get(alpha, ZERO) - composed.get(alpha, ZERO)) / divisor
                if x.is_zero():
                    continue
                new_terms[alpha] = x
                if self.jordan:
                    # (Lz)^alpha past z^alpha feeds later exponents of this layer.
                    for gamma, s in self.powers.linear_power(alpha).items():
                        if gamma != alpha:
                            composed[gamma] = mul(x, s, composed.get(gamma))
            g.update(new_terms)
            if m < out and new_terms:
                acc.add(new_terms.items(), m + 1, out)
        return Jet(self.n, out, g)


def _lifted_blocks(
    phi: PolyMap, kept: _Kept, chains: JordanBasis, power: int, work: int
) -> List[Tuple[Scalar, List[Jet]]]:
    """Per original block, in corner order: (eigenvalue, [f_1..f_s]) lifted as `power` reads them.

    Within a block the components satisfy f_i(psi(z)) = lambda f_i + f_{i+1}
    and the last one is an eigenfunction; they are lifted last-first so
    each right-hand side is already complete.  Every f_i vanishes at 0,
    so f_s^(power - 1) has order power - 1, and through the work degree
    the products f_i * f_s^(power - 1) of `_remix` read each f_i only
    through work - power + 1.  So the chains are lifted to
    top = max(K, work - power + 1), which is the work degree for power 1.
    Only then, and only when top > K, is phi conjugated past K: to top,
    through the kept transition, for the lifter alone.  At the operator
    degree K there is nothing to lift, phi is not conjugated again, and
    the chain jets are returned as they are.
    """
    op = kept.op
    k = op.degree
    top = max(k, work - power + 1)
    lifter = None
    if top > k:
        psi = _to_jordan(phi, top, kept.conjugator, kept.conjugator_inv, op.diag[:op.dim])
        lifter = _Lifter(psi, k, top)
    out = []
    for bi, block in enumerate(chains.original_blocks):
        chain = chains.chains[bi]
        s = block.length
        base = [vector_jet(op, v) for v in reversed(chain.vectors[:s])]
        if lifter is None:
            out.append((block.eigenvalue, base))
            continue
        lifted: List[Optional[Jet]] = [None] * s
        for i in range(s, 0, -1):
            rhs = lifted[i] if i < s else None
            lifted[i - 1] = lifter.lift(base[i - 1], rhs, block.eigenvalue)
        out.append((block.eigenvalue, [j for j in lifted if j is not None]))
    return out


def component_rank(components: PolyMap) -> int:
    """The rank of the components' coefficient rows, read column by column.

    Column alpha holds every component's coefficient of z^alpha.  The
    linear columns come first, then the other monomials the components
    carry; a monomial that no component carries is a zero column and
    never pivots.  `vectors_rank` forms the columns lazily and stops once
    the rank is the number of components, so an F whose derivative has
    that rank reads its linear columns only.
    """
    comps = components.components
    n = components.source_dim
    linear = [unit_index(n, i) for i in range(n)]
    support = dict.fromkeys(chain(linear, *(c.coeffs for c in comps)))
    return vectors_rank([c.coeffs.get(a, ZERO) for c in comps] for a in support)


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
    kept = _prepare(phi)
    work = max(kept.op.degree, DEFAULT_DEGREE if degree is None else degree, power)
    corner = set(kept.op.diag[:phi.dim])
    chains = _chains(kept, corner)
    if gate:
        report = _analysis(kept, corner)
        if not report.full_rank:
            raise NoFullRankError(report)
    comps: List[Jet] = []
    infos: List[ComponentInfo] = []
    for bi, (lam, block_jets) in enumerate(_lifted_blocks(phi, kept, chains, power, work)):
        if power >= 2:
            block_jets = _remix(block_jets, lam, power, work)
        s = len(block_jets)
        for i, jet in enumerate(block_jets, start=1):
            infos.append(ComponentInfo(len(comps), lam, bi, i, s))
            comps.append(jet)
    f_phi = _conjugate(PolyMap(tuple(comps)), kept.conjugator_inv, kept.conjugator)
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
        power=power,
        degree=work,
        components=f_phi,
        component_info=tuple(infos),
        derivative_rank=rank_d,
        component_rank=comp_rank,
    )


def _remix(block_jets: List[Jet], lam: Scalar, power: int, work: int) -> List[Jet]:
    """Turn one block's chain [f_1..f_s] into components for the factor J^power.

    h_i = f_i * f_s^(power - 1) / lambda^((power - 1)(s - i)) satisfies
    h_i(psi) = lambda^power h_i + h_{i+1}: a chain of one Jordan block of
    lambda^power.  Recombining the h_i by the chain of J^power from
    `_power_chain`, for J the block of lambda, makes the components
    follow J^power itself.

    The f_i need only be exact through work - power + 1 (`_lifted_blocks`).
    Every f_i vanishes at 0, so f_s^(power - 1) has order power - 1 and no
    term of f_i or f_s past that degree reaches the work degree; each f_i
    is declared at the work degree first, its missing terms taken as
    zero.  For the same reason f_s^(power - 1) is read only through
    work - 1, and is formed only that far.  At power 2 it is f_s itself,
    so f_s * f_s stays a square (`series.jet_mul`).
    """
    block_jets = [f.truncate(work) for f in block_jets]
    s = len(block_jets)
    top_pow = block_jets[s - 1]
    if power > 2:
        top_pow = _jet_pow(top_pow.truncate(work - 1), power - 1).truncate(work)
    products = [f * top_pow for f in block_jets]
    scales = [scalar_inv(lam ** ((power - 1) * (s - i))) for i in range(1, s + 1)]
    chain = _power_chain(lam, s, power)
    out = []
    for i in range(s):
        acc: Dict[MultiIndex, Scalar] = {}
        for j in range(s):
            c = chain[j][i]
            if not c.is_zero():
                c = c * scales[j]
                add_into(acc, products[j].coeffs, None if c == ONE else c)
        out.append(Jet(block_jets[0].dim, work, acc))
    return out


def _power_chain(lam: Scalar, s: int, power: int) -> List[List[Scalar]]:
    """The normalized Jordan chain of J^power, for J the upper s x s block of lambda.

    J^power - lambda^power carries c_t = C(power, t) lambda^(power - t) on
    its t-th superdiagonal, t >= 1.  The chain starts at v_1 = e_1, and
    each v_{j+1} solves (J^power - lambda^power) v_{j+1} = v_j from the
    bottom up with a zero first coordinate, dividing by c_1 =
    power * lambda^(power - 1), which is nonzero since lambda is.  That
    solution is unique, so it is the chain the kernel filtration returns
    after normalization, and J^power stays a single block.
    """
    c = [Scalar(comb(power, t), 0) * lam ** (power - t) if t <= power else ZERO for t in range(s)]
    chain = [[ONE] + [ZERO] * (s - 1)]
    for _ in range(1, s):
        prev = chain[-1]
        v = [ZERO] * s
        for i in range(s - 2, -1, -1):
            acc = prev[i]
            for t in range(2, s - i):
                acc = acc - c[t] * v[i + t]
            v[i + 1] = acc / c[1]
        chain.append(v)
    return chain


def _jet_pow(f: Jet, e: int) -> Jet:
    """f^e for e >= 1, by binary powering: about log2(e) squares, each `f * f`.

    A square multiplies each unordered pair of terms once (`series.jet_mul`).
    """
    out = None
    while True:
        if e & 1:
            out = f if out is None else out * f
        e >>= 1
        if not e:
            return out
        f = f * f


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
    residuals = [(lhs.component(i) - rhs.component(i)).coeffs for i in range(f.dim)]
    keys = [(order_key(alpha), i, alpha) for i, r in enumerate(residuals) for alpha in r]
    failure: Optional[Tuple[int, MultiIndex, Scalar]] = None
    if keys:
        _, i, alpha = min(keys)
        failure = (i, alpha, residuals[i][alpha])
    clean = d if failure is None else sum(failure[1]) - 1
    return VerifyReport(
        degree=d,
        clean_degree=clean,
        first_failure=failure,
        derivative_rank=rank(f.linear_part()),
        component_rank=component_rank(f),
    )
