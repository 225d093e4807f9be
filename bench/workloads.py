"""The four benchmark workloads: their seeded inputs, jobs and checks.

A workload is a fixed list of jobs.  A job runs one operation through the
public API of `schroeder` (or one `schroeder` command through
`schroeder.cli.main`, in-process), and returns a payload; `digest` turns
the payload into bytes for the repeat check and `check` compares it with
the independent computations in `oracle`.

The seed changes the signs of the nonlinear coefficients, the conjugators
of the `cli` maps and the order of the jobs.  It never changes the
eigenvalues, the monomials present or the sizes of the coefficients, so
every seed asks for the same amount of work and every verdict is fixed by
the structure of the map.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle as O

Spec = List[Dict[Tuple[int, ...], O.Q]]


class Job:
    """One operation of a pass.

    `run` returns a payload, `digest(payload)` the bytes that must repeat
    exactly in every pass, and `check(payload)` a list of problems found
    by the independent checks (empty when the output is right).
    """

    def __init__(self, name: str, run: Callable[[], object],
                 digest: Callable[[object], bytes], check: Callable[[object], List[str]]):
        self.name = name
        self.run = run
        self.digest = digest
        self.check = check


def r(text: str) -> O.Q:
    """A real rational from "p/q"."""
    return (Fraction(text), O.F0)


def g(re: str, im: str) -> O.Q:
    return (Fraction(re), Fraction(im))


def spec(comps: Sequence[Sequence[Tuple[Tuple[int, ...], O.Q]]]) -> Spec:
    return [dict(terms) for terms in comps]


def seeded_signs(s: Spec, rng: random.Random) -> Spec:
    """Flip the sign of each nonlinear coefficient at random."""
    out = []
    for comp in s:
        new = {}
        for alpha, c in comp.items():
            if sum(alpha) >= 2 and rng.random() < 0.5:
                c = (-c[0], -c[1])
            new[alpha] = c
        out.append(new)
    return out


def interleave(groups: Sequence[Sequence[Job]], rng: random.Random) -> List[Job]:
    """Round-robin over the groups in a seeded order, keeping each group's order."""
    order = list(range(len(groups)))
    rng.shuffle(order)
    queues = [list(groups[i]) for i in order]
    out: List[Job] = []
    while any(queues):
        for qu in queues:
            if qu:
                out.append(qu.pop(0))
    return out


def to_polymap(s: Spec):
    from schroeder import Jet, PolyMap, Scalar

    n = len(s)
    deg = max(sum(a) for comp in s for a in comp)
    return PolyMap(tuple(
        Jet.build(n, deg, [(a, Scalar(c[0], c[1])) for a, c in comp.items()]) for comp in s
    ))


def qs(s) -> O.Q:
    """A `schroeder.Scalar` read as a pair."""
    return (s.re, s.im)


def jet_terms(f) -> Dict[Tuple[int, ...], O.Q]:
    return {a: qs(c) for a, c in f.coeffs.items()}


def doc_components(doc: dict) -> Spec:
    return [{tuple(t["monomial"]): O.parse_q(t["coefficient"]) for t in comp} for comp in doc["components"]]


def diag_of(s: Spec) -> List[O.Q]:
    n = len(s)
    return [s[i].get(O.unit(n, i), O.ZERO) for i in range(n)]


def fmt_q(c: O.Q):
    if c[1]:
        return {"re": str(c[0]), "im": str(c[1])}
    return str(c[0])


def map_document(s: Spec, conj: Optional[List[List[int]]] = None) -> str:
    n = len(s)
    doc = {
        "dimension": n,
        "components": [
            [{"monomial": list(a), "coefficient": fmt_q(c)} for a, c in sorted(comp.items(), key=lambda t: O.graded_key(t[0]))]
            for comp in s
        ],
    }
    if conj is not None:
        doc["conjugator"] = [[str(x) for x in row] for row in conj]
    return json.dumps(doc, indent=1)


# -- shared checks ------------------------------------------------------------


def check_solution(phi: Spec, comps: Spec, power: int, degree: int,
                   derivative_rank: int, component_rank: int, full_rank: bool) -> List[str]:
    """Residual, derivative rank and component rank of a constructed F."""
    n = len(phi)
    errs = []
    res = O.residual(phi, comps, power, degree)
    if res:
        key = min(res, key=lambda t: (O.graded_key(t[1:]), t[0]))
        errs.append(f"residual nonzero through degree {degree}: component {key[0]} at {key[1:]}")
    d_rank, c_rank = O.ranks(comps, n, degree)
    if power >= 2 and d_rank != 0:
        errs.append(f"derivative rank {d_rank} for power {power}, expected 0")
    if full_rank and d_rank != n:
        errs.append(f"derivative rank {d_rank}, expected {n}")
    if c_rank != n:
        errs.append(f"component rank {c_rank}, expected {n}")
    if (derivative_rank, component_rank) != (d_rank, c_rank):
        errs.append(f"reported ranks {(derivative_rank, component_rank)}, sympy gives {(d_rank, c_rank)}")
    return errs


def check_analysis(expect: dict, got: dict) -> List[str]:
    """Compare an analysis (as in the machine document) with the oracle's."""
    errs = []
    for key in ("truncation_degree", "basis_size", "full_rank"):
        if got[key] != expect[key]:
            errs.append(f"{key} {got[key]}, expected {expect[key]}")
    records = {O.parse_q(rec["value"]): rec for rec in got["eigenvalues"]}
    if set(records) != set(expect["eigenvalues"]):
        errs.append(f"eigenvalues {sorted(records)}, expected {sorted(expect['eigenvalues'])}")
        return errs
    for mu, want in expect["eigenvalues"].items():
        rec = records[mu]
        for key, value in want.items():
            if rec[key] != value:
                errs.append(f"eigenvalue {mu}: {key} {rec[key]}, expected {value}")
        if rec["resonant"] != bool(want["witnesses"]):
            errs.append(f"eigenvalue {mu}: resonant flag {rec['resonant']}")
    return errs


def report_dict(rep) -> dict:
    """An `AnalysisReport` as plain data, without the documents module."""
    return {
        "truncation_degree": rep.truncation_degree,
        "basis_size": rep.basis_size,
        "full_rank": rep.full_rank,
        "eigenvalues": [
            {
                "value": {"re": str(rec.value.re), "im": str(rec.value.im)},
                "resonant": rec.resonant,
                "witnesses": [list(w) for w in rec.witnesses],
                "geometric_multiplicity": rec.geometric_multiplicity,
                "kernel_dimension": rec.kernel_dimension,
                "projected_dimension": rec.projected_dimension,
                "full_rank_possible": rec.full_rank_possible,
            }
            for rec in rep.eigenvalues
        ],
    }


def rep_bytes(x) -> bytes:
    return repr(x).encode()


# -- lift -----------------------------------------------------------------------


def lift_maps() -> Dict[str, Spec]:
    u3 = lambda i: O.unit(3, i)
    u4 = lambda i: O.unit(4, i)
    return {
        # ROADMAP's three3: eigenvalues 1/2, 1/3, 1/6 with a z1*z2 resonance.
        "three3": spec([
            [(u3(0), r("1/2")), (u3(1), r("1/5"))],
            [(u3(1), r("1/3")), ((2, 0, 0), r("1/7")), ((1, 1, 1), r("2/3"))],
            [(u3(2), r("1/6")), ((1, 1, 0), r("1/2")), ((0, 3, 0), r("-1/9"))],
        ]),
        # ROADMAP's coupled4: the coupled fixture plus z1*z2/3 in component 4.
        "coupled4": spec([
            [(u4(0), r("1/2"))],
            [(u4(1), r("1/4")), (u4(2), r("1/8")), ((2, 0, 0, 0), r("1/8"))],
            [(u4(2), r("1/4"))],
            [(u4(3), r("1/8")), ((1, 1, 0, 0), r("1/3"))],
        ]),
        # Gaussian, non-diagonal, no resonance.
        "gauss2": spec([
            [((1, 0), g("1/2", "1/2")), ((0, 1), r("1/3")), ((1, 1), g("1/5", "-1/5"))],
            [((0, 1), g("0", "1/3")), ((2, 0), g("0", "1/4")), ((0, 2), r("1/2"))],
        ]),
        # Gaussian diagonal: (i/2)^2 = -1/4 resonates, uncoupled.
        "gauss3": spec([
            [((1, 0, 0), g("0", "1/2")), ((1, 0, 1), r("1/3"))],
            [((0, 1, 0), r("-1/4")), ((1, 0, 1), g("1/2", "1/2"))],
            [((0, 0, 1), r("1/3")), ((2, 0, 0), g("1/3", "-1/3"))],
        ]),
    }


#: (map, power, output degree).  three3 and coupled4 are obstructed, so
#: their k = 1 solutions are built in "independent" mode.
LIFT_JOBS = (
    ("three3", 1, 8),
    ("coupled4", 1, 10),
    ("coupled4", 3, 10),
    ("gauss2", 2, 10),
    ("gauss3", 1, 12),
    ("gauss3", 3, 10),
)
OBSTRUCTED = {"three3", "coupled4"}


def build_lift(seed: int, workdir: str, select: Optional[int] = None) -> List[Job]:
    import schroeder
    from schroeder import documents

    rng = random.Random(f"lift:{seed}")
    specs = {k: seeded_signs(v, rng) for k, v in lift_maps().items()}
    maps = {k: to_polymap(v) for k, v in specs.items()}
    groups: Dict[str, List[Job]] = {}
    for name, power, degree in LIFT_JOBS[:select]:
        phi, s = maps[name], specs[name]

        mode = "independent" if name in OBSTRUCTED else "full-rank"

        def run(phi=phi, power=power, degree=degree, mode=mode):
            if power == 1:
                sol = schroeder.solve(phi, degree=degree, mode=mode)
            else:
                sol = schroeder.solve_power(phi, power, degree=degree)
            text = documents.dump(documents.solution_json(sol))
            f, p = documents.parse_solution_document(json.loads(text))
            return text, schroeder.verify(phi, f, p)

        def check(payload, s=s, power=power, degree=degree, mode=mode):
            text, rep = payload
            doc = json.loads(text)
            errs = check_solution(s, doc_components(doc), power, degree, doc["derivative_rank"],
                                  doc["component_rank"], power == 1 and mode == "full-rank")
            if doc["degree"] != degree or doc["power"] != power:
                errs.append(f"document degree/power {doc['degree']}/{doc['power']}")
            if not rep.passed or rep.clean_degree != degree:
                errs.append(f"verify of the parsed document: passed {rep.passed}, clean {rep.clean_degree}")
            if (rep.derivative_rank, rep.component_rank) != (doc["derivative_rank"], doc["component_rank"]):
                errs.append("verify ranks differ from the document's")
            return errs

        groups.setdefault(name, []).append(Job(
            f"{name} k={power} d={degree}", run,
            lambda p: p[0].encode() + rep_bytes(p[1]), check))
    return interleave(list(groups.values()), rng)


# -- kernel ---------------------------------------------------------------------


def diagonal_family(ds: Sequence[int]) -> Spec:
    """ROADMAP's family: lambda_i = 1/d_i, plus z1^2/3 in components 2..n."""
    n = len(ds)
    sq = (2,) + (0,) * (n - 1)
    return spec([
        [(O.unit(n, i), (Fraction(1, d), O.F0))] + ([(sq, r("1/3"))] if i else [])
        for i, d in enumerate(ds)
    ])


def kernel_maps() -> Dict[str, Spec]:
    u3 = lambda i: O.unit(3, i)
    u4 = lambda i: O.unit(4, i)
    return {
        "diag-2-4-16": diagonal_family((2, 4, 16)),
        "diag-2-3-32": diagonal_family((2, 3, 32)),
        "diag-2-3-64": diagonal_family((2, 3, 64)),
        # A 2-block at 1/2, and 1/32 = (1/2)^5 hit by all six degree-5
        # monomials in z1, z2: the chains at 1/32 merge as rows are appended.
        "rep-2-2-32": spec([
            [(u3(0), r("1/2")), (u3(1), r("1"))],
            [(u3(1), r("1/2")), ((0, 0, 2), r("1/5"))],
            [(u3(2), r("1/32")), ((1, 1, 0), r("1/3")), ((2, 0, 0), r("1/7"))],
        ]),
        # A 2-block at 1/2, then 1/4 and 1/8 reached in degrees 2 and 3.
        "rep-2-2-4-8": spec([
            [(u4(0), r("1/2")), (u4(1), r("1"))],
            [(u4(1), r("1/2")), ((0, 0, 0, 2), r("1/3"))],
            [(u4(2), r("1/4")), ((1, 1, 0, 0), r("1/5"))],
            [(u4(3), r("1/8")), ((0, 0, 2, 0), r("1/3")), ((2, 1, 0, 0), r("1/7"))],
        ]),
    }


def build_kernel(seed: int, workdir: str, select: Optional[int] = None) -> List[Job]:
    import schroeder

    rng = random.Random(f"kernel:{seed}")
    jobs = []
    for name, s in list(kernel_maps().items())[:select]:
        s = seeded_signs(s, rng)
        phi = to_polymap(s)

        def run(phi=phi):
            rep = schroeder.analyze(phi)
            mode = "full-rank" if rep.full_rank else "independent"
            sol = schroeder.solve(phi, degree=rep.truncation_degree, mode=mode)
            return rep, sol, schroeder.verify(phi, sol.components)

        def check(payload, s=s):
            rep, sol, ver = payload
            expect = O.analysis(s)
            errs = check_analysis(expect, report_dict(rep))
            k = expect["truncation_degree"]
            comps = [jet_terms(c) for c in sol.components.components]
            if sol.degree != k:
                errs.append(f"solution degree {sol.degree}, expected {k}")
            errs += check_solution(s, comps, 1, k, sol.derivative_rank,
                                   sol.component_rank, expect["full_rank"])
            if not ver.passed or ver.clean_degree != k:
                errs.append(f"verify: passed {ver.passed}, clean {ver.clean_degree}")
            return errs

        jobs.append(Job(name, run, rep_bytes, check))
    rng.shuffle(jobs)
    return jobs


# -- spectrum -------------------------------------------------------------------


def spectrum_maps() -> Dict[str, Spec]:
    return {
        "99/100,1/2": spec([
            [((1, 0), r("99/100")), ((0, 2), r("1/3"))],
            [((0, 1), r("1/2")), ((2, 0), r("1/5"))],
        ]),
        "97/100,1/2,2/3": spec([
            [((1, 0, 0), r("97/100")), ((0, 1, 0), r("1/4"))],
            [((0, 1, 0), r("1/2")), ((1, 0, 1), r("1/3"))],
            [((0, 0, 1), r("2/3")), ((2, 0, 0), r("1/5"))],
        ]),
        # A Gaussian eigenvalue of modulus 19/20: (57 + 76i)/100.
        "(57+76i)/100,1/5": spec([
            [((1, 0), g("57/100", "76/100")), ((1, 1), r("1/2"))],
            [((0, 1), r("1/5")), ((2, 0), g("1/3", "1/3"))],
        ]),
        # 1/4 = (1/2)^2 resonates, and the z2^2 term obstructs.
        "19/20,1/2,1/4": spec([
            [((1, 0, 0), r("19/20")), ((0, 1, 1), r("1/3"))],
            [((0, 1, 0), r("1/2"))],
            [((0, 0, 1), r("1/4")), ((0, 2, 0), r("1/7"))],
        ]),
    }


def build_spectrum(seed: int, workdir: str, select: Optional[int] = None) -> List[Job]:
    import schroeder

    rng = random.Random(f"spectrum:{seed}")
    groups = []
    for name, s in list(spectrum_maps().items())[:select]:
        s = seeded_signs(s, rng)
        phi = to_polymap(s)

        def check_analyze(rep, s=s):
            return check_analysis(O.analysis(s), report_dict(rep))

        def check_detect(found, s=s):
            got = [(tuple(a), qs(p)) for a, p in found]
            want = O.resonances(diag_of(s))
            return [] if got == want else [f"detect_resonance {got}, expected {want}"]

        groups.append([
            Job(f"analyze {name}", lambda phi=phi: schroeder.analyze(phi), rep_bytes, check_analyze),
            Job(f"detect_resonance {name}", lambda phi=phi: schroeder.detect_resonance(phi), rep_bytes, check_detect),
        ])
    return interleave(groups, rng)


# -- cli ------------------------------------------------------------------------

#: Unimodular conjugators with their inverses, 2x2 and 3x3.  The conjugated
#: maps of one dimension take them in turn, so every seed conjugates each
#: map by the same matrix up to signs (see `signed_conjugator`).
CONJUGATORS = {
    2: [([[1, 1], [1, 2]], [[2, -1], [-1, 1]]),
        ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
        ([[1, 0], [1, 1]], [[1, 0], [-1, 1]])],
    3: [([[1, 0, 0], [1, 1, 0], [0, 1, 1]], [[1, 0, 0], [-1, 1, 0], [1, -1, 1]]),
        ([[1, 1, 0], [0, 1, 0], [1, 0, 1]], [[1, -1, 0], [0, 1, 0], [-1, 1, 1]]),
        ([[1, 0, 1], [0, 1, 0], [1, 1, 2]], [[2, 1, -1], [0, 1, 0], [-1, -1, 1]])],
}


def cli_maps() -> List[Tuple[str, Spec, bool]]:
    """(name, triangular map, needs a conjugator)."""
    u3 = lambda i: O.unit(3, i)
    return [
        ("obstructed", spec([[((1, 0), r("1/2"))], [((0, 1), r("1/4")), ((2, 0), r("1/16"))]]), False),
        ("diagonal", spec([[((1, 0), r("1/2")), ((1, 1), r("1/3"))], [((0, 1), r("1/4"))]]), False),
        ("three-conj", spec([
            [(u3(0), r("1/2")), (u3(2), r("1/3"))],
            [(u3(1), r("1/3")), ((2, 0, 0), r("1/5"))],
            [(u3(2), r("2/5")), ((1, 1, 0), r("1/7"))],
        ]), True),
        ("gauss-conj", spec([[((1, 0), g("0", "1/2")), ((0, 2), r("1/3"))], [((0, 1), r("1/3")), ((1, 1), g("1/4", "1/4"))]]), True),
        ("resonant-conj", spec([
            [(u3(0), r("1/2")), ((0, 0, 2), r("1/5"))],
            [(u3(1), r("1/3")), (u3(2), r("1/2"))],
            [(u3(2), r("1/6")), ((1, 1, 0), r("1/4"))],
        ]), True),
        ("thirds", spec([[((1, 0), r("1/3")), ((2, 0), r("1/2"))], [((0, 1), r("1/9")), ((1, 1), r("1/5"))]]), False),
        ("block", spec([
            [(u3(0), r("1/2")), (u3(1), r("1"))],
            [(u3(1), r("1/2"))],
            [(u3(2), r("1/4")), ((2, 0, 0), r("1/3"))],
        ]), False),
        ("real-conj", spec([[((1, 0), r("2/3")), ((0, 1), r("1/2")), ((0, 2), r("1/5"))], [((0, 1), r("1/5")), ((2, 0), r("1/3"))]]), True),
    ]


def signed_conjugator(pair, rng: random.Random):
    """(C D, D C^-1) for a seeded diagonal D of signs.

    Conjugating by C D instead of C gives D phi(D z): the same coefficients
    up to sign, so every seed asks for the same work.
    """
    c, c_inv = pair
    d = [rng.choice((1, -1)) for _ in c]
    return ([[x * d[k] for k, x in enumerate(row)] for row in c],
            [[x * d[i] for x in row] for i, row in enumerate(c_inv)])


def conjugate(psi: Spec, c: List[List[int]], c_inv: List[List[int]]) -> Spec:
    """The map phi = C^-1 psi(C z), so that C phi C^-1 = psi."""
    n = len(psi)
    deg = max(sum(a) for comp in psi for a in comp)
    linear = [{O.unit(n, k): (Fraction(c[j][k]), O.F0) for k in range(n) if c[j][k]} for j in range(n)]
    pw = O.Powers(linear, deg)
    inner: Spec = []
    for comp in psi:
        acc: O.Poly = {}
        for alpha, coeff in comp.items():
            O.padd_into(acc, pw(alpha), coeff)
        inner.append(acc)
    out: Spec = []
    for i in range(n):
        acc = {}
        for j in range(n):
            if c_inv[i][j]:
                O.padd_into(acc, inner[j], (Fraction(c_inv[i][j]), O.F0))
        out.append(acc)
    return out


CLI_DEGREE = 5


def build_cli(seed: int, workdir: str, select: Optional[int] = None) -> List[Job]:
    import schroeder.cli

    rng = random.Random(f"cli:{seed}")
    groups = []
    turn = {2: 0, 3: 0}
    for name, psi, conj in cli_maps()[:select]:
        psi = seeded_signs(psi, rng)
        n = len(psi)
        if conj:
            c, c_inv = signed_conjugator(CONJUGATORS[n][turn[n] % len(CONJUGATORS[n])], rng)
            turn[n] += 1
            phi = conjugate(psi, c, c_inv)
        else:
            c, phi = None, psi
        path = os.path.join(workdir, f"{name}.json")
        sol_path = os.path.join(workdir, f"{name}.sol.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(map_document(phi, c))
        groups.append(_cli_requests(name, path, sol_path, psi, phi))
    return interleave(groups, rng)


def call_cli(argv: List[str], out_path: Optional[str] = None):
    """Run `schroeder.cli.main` in-process; returns (exit code, stdout, stderr, file bytes)."""
    import schroeder.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["schroeder"] + argv
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            schroeder.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    written = b""
    if out_path is not None and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
    return code, out.getvalue(), err.getvalue(), written


def _cli_requests(name: str, path: str, sol_path: str, psi: Spec, phi: Spec) -> List[Job]:
    """The requests for one map document, in dependency order."""
    n = len(psi)
    cache: Dict[str, dict] = {}

    def expect() -> dict:
        if "a" not in cache:
            cache["a"] = O.analysis(psi)
        return cache["a"]

    def verdict_code() -> int:
        return 0 if expect()["full_rank"] else 2

    def request(label: str, argv: List[str], check_out: Callable[[str, bytes], List[str]],
                code: Callable[[], int] = lambda: 0, out_path: Optional[str] = None) -> Job:
        def check(payload):
            got, stdout, stderr, written = payload
            errs = [] if got == code() else [f"exit {got}, expected {code()}: {stderr.strip()}"]
            return errs + check_out(stdout, written)

        return Job(f"{name}: {label}", lambda: call_cli(argv, out_path),
                   lambda p: repr(p).encode(), check)

    def analysis_machine(stdout: str, _w: bytes) -> List[str]:
        return check_analysis(expect(), json.loads(stdout))

    def analysis_text(stdout: str, _w: bytes) -> List[str]:
        want = "a full-rank solution exists" if expect()["full_rank"] else "no full-rank solution exists"
        return [] if stdout.endswith(f"verdict: {want}\n") else [f"text verdict line missing: {want}"]

    def solution_file(stdout: str, written: bytes) -> List[str]:
        doc = json.loads(written)
        return check_solution(phi, doc_components(doc), 1, doc["degree"], doc["derivative_rank"],
                              doc["component_rank"], expect()["full_rank"])

    def power_machine(stdout: str, _w: bytes) -> List[str]:
        doc = json.loads(stdout)
        return check_solution(phi, doc_components(doc), 2, doc["degree"], doc["derivative_rank"],
                              doc["component_rank"], False)

    def verify_machine(stdout: str, _w: bytes) -> List[str]:
        doc = json.loads(stdout)
        ok = doc["passed"] and doc["clean_degree"] == doc["degree"] == max(CLI_DEGREE, expect()["truncation_degree"])
        return [] if ok else [f"verification document {doc}"]

    def verify_text(stdout: str, _w: bytes) -> List[str]:
        return [] if "verdict: exact through degree" in stdout else ["verify text verdict missing"]

    def matrix_machine(stdout: str, _w: bytes) -> List[str]:
        doc = json.loads(stdout)
        k = expect()["truncation_degree"]
        basis = O.monomials(n, k)
        errs = []
        if [tuple(a) for a in doc["basis"]] != basis:
            errs.append("operator basis differs from the graded monomials up to K")
        m = [[O.parse_q(x) for x in row] for row in doc["matrix"]]
        if any(m[i][j] != O.ZERO for i in range(len(m)) for j in range(i + 1, len(m))):
            errs.append("operator matrix is not lower triangular")
        diag = diag_of(psi)
        want = sorted(_product(diag, a) for a in basis)
        if sorted(m[i][i] for i in range(len(m))) != want:
            errs.append("operator diagonal is not the eigenvalue products")
        return errs

    def matrix_text(stdout: str, _w: bytes) -> List[str]:
        return [] if stdout.startswith(f"dimension: {n}\n") else ["matrix text header missing"]

    degree = ["--degree", str(CLI_DEGREE)]
    jobs = [
        request("analyze text", ["analyze", path], analysis_text, verdict_code),
        request("analyze machine", ["analyze", path, "--format", "machine"], analysis_machine, verdict_code),
        request("solve text", ["solve", path] + degree, lambda s, w: [] if s else ["empty output"], verdict_code),
        request("solve --out", ["solve", path, "--mode", "independent", "--format", "machine", "--out", sol_path] + degree,
                solution_file, out_path=sol_path),
        request("verify text", ["verify", path, sol_path], verify_text),
        request("verify machine", ["verify", path, sol_path, "--format", "machine"], verify_machine),
        request("solve-power machine", ["solve-power", path, "--k", "2", "--format", "machine"] + degree, power_machine),
        request("matrix text", ["matrix", path], matrix_text),
        request("matrix machine", ["matrix", path, "--format", "machine"], matrix_machine),
    ]
    return jobs


def _product(diag: Sequence[O.Q], alpha: Tuple[int, ...]) -> O.Q:
    out = O.ONE
    for lam, e in zip(diag, alpha):
        out = O.qmul(out, O.qpow(lam, e))
    return out


JOB_LISTS = {
    "lift": build_lift,
    "kernel": build_kernel,
    "spectrum": build_spectrum,
    "cli": build_cli,
}
