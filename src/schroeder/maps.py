"""Polynomial self-maps of C^n fixing the origin, truncated to a degree.

A `PolyMap` is a tuple of jets with no constant terms, all sharing one
dimension and one truncation degree.  Composition and monomial powers
are the workhorses here; both truncate every intermediate product so the
cost stays bounded by the truncation degree.

Composition runs over the Gaussian integers.  `PowerTable` scales phi by
the lcm D of its denominators, so P = D*phi has integer coefficients,
and memoizes the powers P^alpha; an `IntSum` adds multiples of them
degree by degree on one denominator.  `compose`, `map_compose` and the
engine's lifter go through these two, `compop.build` scatters its
columns from a table's powers, and `monomial_power` reads one power as
a `Jet`.  A monomial inner map, each component c_i * z_t(i) with the
t(i) distinct, forms neither: `map_compose` relabels the outer map's
terms, so `conjugate_map` by a scaled permutation, the identity
included, costs a relabel.  Inside tables and sums, a monomial gamma
of phi's source variables is the int key sum gamma_i * B^i, with
B = phi.degree + 1, so multiplying two monomials adds two ints.  A key
becomes a tuple again, and a coefficient a canonical `Scalar`, once,
when it is read; nothing here multiplies `Scalar` jets.
"""

from __future__ import annotations

from functools import partial
from math import lcm
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .linalg import ExactMatrix, inverse
from .scalars import ONE, Scalar, from_ints
from .series import Jet, MultiIndex, add_into, unit_index


# A NamedTuple body may not define `__new__`, so `PolyMap` checks its
# field in a subclass of this one.
class _PolyMapFields(NamedTuple):
    components: Tuple[Jet, ...]


class PolyMap(_PolyMapFields):
    __slots__ = ()

    def __new__(cls, components: Tuple[Jet, ...]) -> PolyMap:
        if not components:
            raise ValueError("map needs at least one component")
        dim = components[0].dim
        deg = components[0].degree
        for i, c in enumerate(components):
            if c.dim != dim:
                raise ValueError(f"component {i} has dimension {c.dim}, expected {dim}")
            if c.degree != deg:
                raise ValueError(f"component {i} has degree {c.degree}, expected {deg}")
            if not c.constant_term().is_zero():
                raise ValueError(f"component {i} does not vanish at the origin")
        return super().__new__(cls, components)

    @classmethod
    def _make(cls, iterable: Iterable[Tuple[Jet, ...]]) -> PolyMap:
        """`_replace` builds through this, so a replaced map is checked too."""
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def source_dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return self.components[0].degree

    def component(self, i: int) -> Jet:
        return self.components[i]

    def truncate(self, degree: int) -> PolyMap:
        return PolyMap(tuple(c.truncate(degree) for c in self.components))

    def linear_part(self) -> ExactMatrix:
        """The derivative at the origin as an n x n matrix."""
        n = self.source_dim
        if self.dim != n:
            raise ValueError("linear part requires a self-map")
        units = [unit_index(n, j) for j in range(n)]
        return ExactMatrix(
            n, n, tuple(tuple(c.coefficient(u) for u in units) for c in self.components)
        )


def matrix_map(m: ExactMatrix, degree: int) -> PolyMap:
    """The linear map z -> M z as a PolyMap of the given degree."""
    comps = []
    for i in range(m.rows):
        terms = [
            (unit_index(m.cols, j), m.at(i, j))
            for j in range(m.cols)
            if not m.at(i, j).is_zero()
        ]
        comps.append(Jet.build(m.cols, degree, terms))
    return PolyMap(tuple(comps))


#: A polynomial held by degree, {degree: {key: value}}, each monomial
#: packed into an int key by its `PowerTable`: int values over a real
#: map, (re, im) pairs of ints over a Gaussian one.
Graded = Dict[int, Dict[int, Any]]


class _Memo(dict[Any, Any]):
    """A mapping whose value at each key is `form(key)`, formed on its first lookup."""

    def __init__(self, form: Callable[[Any], Any]):
        super().__init__()
        self.form = form

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.form(key)
        return value


def _decode(base: int, dim: int, key: int) -> MultiIndex:
    """The monomial of `dim` variables whose key in base `base` is `key`."""
    digits = []
    for _ in range(dim):
        key, e = divmod(key, base)
        digits.append(e)
    return tuple(digits)


class PowerTable:
    """The powers of P = D*phi over the Gaussian integers, truncated at phi's degree.

    D (`denom`) is the lcm of the denominators of phi's coefficients, so P
    has Gaussian-integer coefficients and phi^alpha = P^alpha / D^|alpha|.
    `power(alpha)` is P^alpha, graded; each power is one graded product
    away from one already in the table.  A real map (`real`) holds plain
    ints and never forms an imaginary part.  Every composition with phi,
    and every operator column read from phi, that shares a table shares
    its powers.

    The powers are keyed by the outer exponent alpha, a tuple.  Within a
    power, the monomial gamma of phi's source variables is keyed by
    `encode(gamma)` = sum gamma_i * B^i with B = phi.degree + 1.  Every
    stored monomial has total degree at most phi.degree < B, so no
    digit of a product's key carries and `_mul` adds keys as ints.
    `decode[key]` gives the tuple back, memoized; `scalars` and
    `IntSum.pop`, where coefficients leave the table, are its readers.
    `denom_powers[e]` = D^e is memoized the same way, so a map of high
    declared degree forms only the powers of D that are read.
    """

    def __init__(self, phi: PolyMap):
        self.phi = phi
        terms = [
            (i, alpha, s.ints()) for i, c in enumerate(phi.components) for alpha, s in c.coeffs.items()
        ]
        self.denom = denom = lcm(*[d for _, _, (_, _, d) in terms])
        self.real = real = not any(b for _, _, (_, b, _) in terms)
        self.denom_powers = _Memo(denom.__pow__)
        self.base = phi.degree + 1
        self.decode = _Memo(partial(_decode, self.base, phi.source_dim))
        self._units: List[Graded] = [{} for _ in phi.components]
        for i, alpha, (a, b, d) in terms:
            k = denom // d
            self._units[i].setdefault(sum(alpha), {})[self.encode(alpha)] = (
                a * k if real else (a * k, b * k)
            )
        self._powers: Dict[MultiIndex, Graded] = {
            unit_index(phi.dim, i): unit for i, unit in enumerate(self._units)
        }
        self._powers[(0,) * phi.dim] = {0: {0: 1 if real else (1, 0)}}

    def encode(self, gamma: MultiIndex) -> int:
        """The key of the monomial gamma: sum gamma_i * B^i, B = phi.degree + 1."""
        key = 0
        for e in reversed(gamma):
            key = key * self.base + e
        return key

    def power(self, alpha: MultiIndex) -> Graded:
        """P^alpha truncated at phi's degree; callers must not change it.

        P^alpha = P^(alpha - e_i) * P_i with i the first nonzero index: the
        walk steps down to a power in the table, at worst a unit, and
        multiplies back up, memoizing each power, without recursing.
        """
        table = self._powers
        steps = []
        while alpha not in table:
            i = next(j for j, e in enumerate(alpha) if e)
            steps.append((alpha, i))
            alpha = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
        out = table[alpha]
        for beta, i in reversed(steps):
            out = self._mul(out, self._units[i])
            table[beta] = out
        return out

    def linear_power(self, alpha: MultiIndex) -> Dict[MultiIndex, Scalar]:
        """(Lz)^alpha, the degree-|alpha| part of phi^alpha, as `Scalar`s; L = phi'(0)."""
        k = sum(alpha)
        return self.scalars(self.power(alpha).get(k, {}), self.denom_powers[k])

    def scalars(self, part: Dict[int, Any], d: int) -> Dict[MultiIndex, Scalar]:
        """The nonzero entries of a graded part over the denominator d, reduced, by tuple."""
        decode = self.decode
        if self.real:
            return {decode[key]: from_ints(v, 0, d) for key, v in part.items() if v}
        return {decode[key]: from_ints(a, b, d) for key, (a, b) in part.items() if a or b}

    def _mul(self, f: Graded, g: Graded) -> Graded:
        """The graded product f*g truncated at phi's degree.

        A sum that cancels stays as a zero entry; it adds nothing where
        the power is used, and most products never cancel.
        """
        deg = self.phi.degree
        out: Graded = {}
        for df, pf in f.items():
            for dg, pg in g.items():
                e = df + dg
                if e > deg:
                    continue
                part = out.setdefault(e, {})
                get = part.get
                if self.real:
                    for a, x in pf.items():
                        for b, y in pg.items():
                            gamma = a + b
                            part[gamma] = get(gamma, 0) + x * y
                else:
                    for a, (xa, xb) in pf.items():
                        for b, (ya, yb) in pg.items():
                            gamma = a + b
                            re, im = xa * ya - xb * yb, xa * yb + xb * ya
                            prev = get(gamma)
                            part[gamma] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        return out


class IntSum:
    """A sum of terms x*phi^alpha, held as Gaussian integers by degree.

    Like the table's powers, each part is keyed by packed monomials.
    The degree-e part stands for (re + i*im) / (den * D^e), with D the
    table's `denom` and `den` the lcm of the denominators of every x
    added so far: `add` rescales the sum once when a batch of terms
    grows `den`.  A sum over a real map writes `im` only for a term with
    an imaginary part.
    """

    def __init__(self, table: PowerTable):
        self.table = table
        self.den = 1
        self.re: Graded = {}
        self.im: Graded = {}

    def add(self, terms: Iterable[Tuple[MultiIndex, Scalar]], lo: int, hi: int) -> None:
        """Add x*phi^alpha for each (alpha, x) of `terms`, at the degrees lo..hi only."""
        ints = [(alpha, x.ints()) for alpha, x in terms]
        den = lcm(self.den, *[d for _, (_, _, d) in ints])
        k, self.den = den // self.den, den
        if k != 1:
            for parts in (self.re, self.im):
                for part in parts.values():
                    for gamma in part:
                        part[gamma] *= k
        for alpha, (a, b, d) in ints:
            k = den // d
            self._add_power(alpha, a * k, b * k, lo, hi)

    def _add_power(self, alpha: MultiIndex, a: int, b: int, lo: int, hi: int) -> None:
        """Add ((a + b*i) / den) * phi^alpha at the degrees lo..hi."""
        table = self.table
        k = sum(alpha)
        for e, part in table.power(alpha).items():
            if e < lo or e > hi:
                continue
            s = table.denom_powers[e - k]
            ma, mb = a * s, b * s
            r = self.re.setdefault(e, {})
            rget = r.get
            if table.real:
                for gamma, v in part.items():
                    r[gamma] = rget(gamma, 0) + ma * v
                if mb:
                    i = self.im.setdefault(e, {})
                    iget = i.get
                    for gamma, v in part.items():
                        i[gamma] = iget(gamma, 0) + mb * v
            else:
                i = self.im.setdefault(e, {})
                iget = i.get
                for gamma, (va, vb) in part.items():
                    r[gamma] = rget(gamma, 0) + ma * va - mb * vb
                    i[gamma] = iget(gamma, 0) + ma * vb + mb * va

    def pop(self, e: int) -> Dict[MultiIndex, Scalar]:
        """Remove the degree-e part and return its nonzero coefficients, reduced.

        The sum is keyed by the table's packed monomials; the result is
        keyed by exponent tuples, through the table's memoized `decode`.
        """
        re = self.re.pop(e, None)
        if re is None:
            return {}
        im = self.im.pop(e, {})
        d = self.den * self.table.denom_powers[e]
        decode = self.table.decode
        out = {}
        for key, a in re.items():
            b = im.get(key, 0)
            if a or b:
                out[decode[key]] = from_ints(a, b, d)
        return out


def monomial_power(phi: PolyMap, alpha: MultiIndex, memo: Optional[PowerTable] = None) -> Jet:
    """The jet of phi_1^a1 * ... * phi_n^an, truncated to phi's degree.

    Read from P^alpha = D^|alpha| * phi^alpha in a `PowerTable` of phi
    (`memo`, shared by callers that read many powers), each coefficient
    reduced once over D^|alpha|.
    """
    if len(alpha) != phi.dim:
        raise ValueError(f"exponent length {len(alpha)} does not match {phi.dim} components")
    table = _table_of(phi, memo)
    coeffs: Dict[MultiIndex, Scalar] = {}
    for part in table.power(alpha).values():
        coeffs.update(table.scalars(part, table.denom_powers[sum(alpha)]))
    return Jet(phi.source_dim, phi.degree, coeffs)


def _table_of(phi: PolyMap, memo: Optional[PowerTable]) -> PowerTable:
    """`memo`, checked to be a table of phi, or a new table of phi."""
    if memo is None:
        return PowerTable(phi)
    if memo.phi is not phi:
        raise ValueError("power table was built for another map")
    return memo


def compose(f: Jet, phi: PolyMap, memo: Optional[PowerTable] = None) -> Jet:
    """The jet of f(phi(z)) truncated to min(f.degree, phi.degree).

    Exact through the truncation degree because phi has no constant term:
    a monomial of f of degree d only contributes terms of degree >= d.
    The terms of f go on one denominator D_f; each adds
    f_alpha * D_f * D^(e - |alpha|) * P^alpha, degree e by degree e, into
    one Gaussian-integer sum over D_f * D^e (see `PowerTable` and
    `IntSum`), and each output coefficient is reduced once.  `memo`, a
    `PowerTable` of phi, lets compositions with the same phi share the
    powers.
    """
    if f.dim != phi.dim:
        raise ValueError(f"jet in {f.dim} variables fed a {phi.dim}-component map")
    table = _table_of(phi, memo)
    degree = min(f.degree, phi.degree)
    terms = f.coeffs.items()
    if f.degree > degree:
        terms = [(alpha, c) for alpha, c in terms if sum(alpha) <= degree]
    acc = IntSum(table)
    acc.add(terms, 0, degree)
    coeffs: Dict[MultiIndex, Scalar] = {}
    for e in sorted(acc.re):
        coeffs.update(acc.pop(e))
    return Jet(phi.source_dim, degree, coeffs)


def _monomial_targets(g: PolyMap) -> Optional[List[Tuple[int, Scalar]]]:
    """(t, c) for each component g_i = c * z_t, if every one is such a term and no t repeats."""
    terms = [list(c.coeffs.items()) for c in g.components]
    if any(len(t) != 1 or sum(t[0][0]) != 1 for t in terms):
        return None
    out = [(alpha.index(1), x) for [(alpha, x)] in terms]
    return out if len({t for t, _ in out}) == len(out) else None


def map_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Componentwise composition f(g(z)), truncated to min(f.degree, g.degree).

    A monomial g, g_i = c_i * z_t(i) with the t(i) distinct, relabels:
    each term x * z^alpha of f becomes x * prod c_i^alpha_i * z^t(alpha),
    one term, and the identity copies f.  Any other g goes through one
    power table of g.
    """
    if f.source_dim != g.dim:
        raise ValueError(
            f"inner map has {g.dim} components, outer expects {f.source_dim}"
        )
    targets = _monomial_targets(g)
    if targets is None:
        table = PowerTable(g)
        return PolyMap(tuple(compose(c, g, table) for c in f.components))
    f, m = f.truncate(min(f.degree, g.degree)), g.source_dim
    if targets == [(i, ONE) for i in range(m)]:
        return f
    powers = [_Memo(c.__pow__) for _, c in targets]
    comps = []
    for component in f.components:
        coeffs: Dict[MultiIndex, Scalar] = {}
        for alpha, x in component.coeffs.items():
            beta = [0] * m
            for (t, c), e, power in zip(targets, alpha, powers):
                if e:
                    beta[t] = e
                    if c != ONE:
                        x = x * power[e]
            coeffs[tuple(beta)] = x
        comps.append(Jet(m, f.degree, coeffs))
    return PolyMap(tuple(comps))


def matrix_apply(m: ExactMatrix, phi: PolyMap) -> PolyMap:
    """The map z -> M * phi(z), without composing; an entry 1 adds its component unscaled."""
    if m.cols != phi.dim:
        raise ValueError(f"matrix has {m.cols} columns, map has {phi.dim} components")
    comps = []
    for i in range(m.rows):
        acc: Dict[MultiIndex, Scalar] = {}
        for j in range(m.cols):
            s = m.at(i, j)
            if not s.is_zero():
                add_into(acc, phi.components[j].coeffs, None if s == ONE else s)
        comps.append(Jet(phi.source_dim, phi.degree, acc))
    return PolyMap(tuple(comps))


def conjugate_map(phi: PolyMap, d: ExactMatrix) -> PolyMap:
    """The conjugate D phi D^-1 as a map of the same truncation degree."""
    if phi.dim != phi.source_dim:
        raise ValueError("conjugation requires a self-map")
    if d.rows != d.cols or d.rows != phi.dim:
        raise ValueError("conjugator shape does not match the map")
    return _conjugate(phi, d, inverse(d))


def _conjugate(phi: PolyMap, d: ExactMatrix, d_inv: ExactMatrix) -> PolyMap:
    """D phi D^-1 for a self-map and a conjugator `d` of its size, given `d_inv`."""
    return matrix_apply(d, map_compose(phi, matrix_map(d_inv, phi.degree)))
