"""Command line front end.

Subcommands read a map document (JSON) and print either a human
readable report or a machine document (--format machine).  Exit codes:
0 on success, 2 for a definite negative verdict (no full-rank solution,
or a verification failure), 1 for unreadable documents, unsupported
maps, or bad invocations.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Callable, List, Optional, Tuple

import click

from . import __version__, documents
from .compop import TruncatedCompOp, UnsupportedSpectrumError
from .documents import DocumentError
from .engine import (
    DEFAULT_DEGREE,
    AnalysisReport,
    InvalidMapError,
    NoFullRankError,
    SchroederSolution,
    VerifyReport,
    analyze,
    solve,
    solve_power,
    truncated_operator,
    verify,
)
from .linalg import ExactMatrix, SingularMatrixError, inverse
from .maps import PolyMap, _conjugate
from .scalars import Scalar
from .series import Jet, MultiIndex


def _format_monomial(alpha: MultiIndex) -> str:
    parts = []
    for i, e in enumerate(alpha):
        if e == 1:
            parts.append(f"z{i + 1}")
        elif e > 1:
            parts.append(f"z{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _format_term(alpha: MultiIndex, c: Scalar) -> str:
    mono = _format_monomial(alpha)
    s = str(c)
    if s == "1":
        return mono
    if s == "-1":
        return f"-{mono}"
    if any(ch in s[1:] for ch in "+-"):
        return f"({s})*{mono}"
    return f"{s}*{mono}"


def _format_jet(f: Jet) -> str:
    terms = f.terms()
    if not terms:
        return "0"
    return " + ".join(_format_term(a, c) for a, c in terms)


def _analysis_text(report: AnalysisReport) -> str:
    lines = [
        f"dimension: {report.dimension}",
        f"truncation degree: {report.truncation_degree}",
        f"basis size: {report.basis_size}",
    ]
    for rec in report.eigenvalues:
        if rec.resonant:
            witnesses = ", ".join(_format_monomial(w) for w in rec.witnesses)
            nature = f"resonant at {witnesses}"
        else:
            nature = "nonresonant"
        status = "full rank possible" if rec.full_rank_possible else "obstructed"
        lines.append(
            f"eigenvalue {rec.value}: {nature}; "
            f"multiplicity {rec.geometric_multiplicity}, "
            f"kernel {rec.kernel_dimension}, projected {rec.projected_dimension}; "
            f"{status}"
        )
    verdict = (
        "a full-rank solution exists"
        if report.full_rank
        else "no full-rank solution exists"
    )
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _solution_text(sol: SchroederSolution) -> str:
    full = "full rank" if sol.full_rank else "singular"
    lines = [
        f"power: {sol.power}",
        f"degree: {sol.degree}",
        f"derivative rank: {sol.derivative_rank} ({full})",
        f"component rank: {sol.component_rank}",
    ]
    for info in sol.component_info:
        lines.append(
            f"component {info.index + 1} "
            f"[eigenvalue {info.eigenvalue}, block {info.block + 1}, "
            f"position {info.position} of {info.block_size}]:"
        )
        lines.append(f"  F{info.index + 1} = {_format_jet(sol.components.component(info.index))}")
    return "\n".join(lines) + "\n"


def _verify_text(report: VerifyReport) -> str:
    lines = [
        f"degree checked: {report.degree}",
        f"clean through degree: {report.clean_degree}",
        f"derivative rank: {report.derivative_rank}",
        f"component rank: {report.component_rank}",
    ]
    if report.passed:
        lines.append(f"verdict: exact through degree {report.degree}")
    else:
        comp, alpha, value = report.first_failure
        lines.append(
            f"verdict: first failure in component {comp + 1} "
            f"at {_format_monomial(alpha)} (residual {value})"
        )
    return "\n".join(lines) + "\n"


def _operator_text(op: TruncatedCompOp) -> str:
    labels = [_format_monomial(a) for a in op.basis]
    cells = [[str(e) for e in row] for row in op.matrix.entries]
    label_w = max(len(l) for l in labels)
    col_w = [
        max(len(labels[j]), max(len(cells[i][j]) for i in range(op.size)))
        for j in range(op.size)
    ]
    lines = [
        f"dimension: {op.dim}",
        f"truncation degree: {op.degree}",
        f"basis size: {op.size}",
        " ".join([" " * label_w] + [labels[j].rjust(col_w[j]) for j in range(op.size)]),
    ]
    for i in range(op.size):
        lines.append(
            " ".join(
                [labels[i].rjust(label_w)]
                + [cells[i][j].rjust(col_w[j]) for j in range(op.size)]
            )
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False, file=sys.stdout)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _render(obj: Any, to_json: Callable, to_text: Callable, fmt: str, out: Optional[str]) -> None:
    """Emit obj as a machine document or as text.

    Callers pass `documents.*_json` looked up when the command runs, so
    a rebound module attribute is the one called.
    """
    _emit(documents.dump(to_json(obj)) if fmt == "machine" else to_text(obj), out)


def _load_map(path: str) -> Tuple[PolyMap, PolyMap, Callable[[PolyMap], PolyMap]]:
    """The map phi as given, the map C phi C^-1 the engine sees, and F -> C^-1 F C.

    The last takes a solution back to the coordinates of phi.  Both ranks
    survive: z -> Cz maps each homogeneous degree onto itself.
    """
    phi, conj = documents.parse_map_document(documents.load(path))
    if conj is None:
        return phi, phi, lambda f: f
    try:
        conj_inv = inverse(conj)
    except SingularMatrixError:
        raise DocumentError("conjugator is singular", "$.conjugator") from None
    return phi, _conjugate(phi, conj, conj_inv), lambda f: _conjugate(f, conj_inv, conj)


def _eval_jet(f: Jet, z: List[complex]) -> complex:
    acc = 0j
    for alpha, c in f.terms():
        a, b, d = c.ints()
        term = complex(a / d, b / d)
        for zi, e in zip(z, alpha):
            term *= zi**e
        acc += term
    return acc


def _sample_check(phi: PolyMap, seed: int, samples: int = 8, radius: float = 0.01) -> None:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(phi.source_dim)]
        norm = sum(abs(x) ** 2 for x in raw) ** 0.5
        if norm == 0:
            continue
        z = [x * radius / norm for x in raw]
        # A value too large for a float, or a NaN, is a failed sample.
        try:
            w = [_eval_jet(c, z) for c in phi.components]
            contracts = sum(abs(x) ** 2 for x in w) < sum(abs(x) ** 2 for x in z)
        except OverflowError:
            contracts = False
        if not contracts:
            bad += 1
    if bad:
        click.echo(
            f"warning: map failed to contract {bad} of {samples} float samples "
            f"at radius {radius}; the fixed point may not be attracting",
            file=sys.stderr,
        )


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "machine"]),
    default="text",
    show_default=True,
    help="Human readable text or a JSON document.",
)
out_option = click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the output to a file instead of stdout.",
)
sample_option = click.option(
    "--sample-check",
    is_flag=True,
    help="Float-sample the map near 0 and warn if it fails to contract.",
)
degree_option = click.option(
    "--degree",
    type=click.IntRange(min=1),
    default=DEFAULT_DEGREE,
    show_default=True,
    help="Output degree; raised to the operator truncation degree when smaller.",
)
seed_option = click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    help="Seed for --sample-check sampling.",
)


def _print_and_exit(text: Callable[[click.Context], str]) -> Callable:
    """The callback of an eager flag that prints text(ctx) to stdout and exits.

    Click's own --help and --version callbacks echo with no file, which
    caches a wrapper per stream that keeps every redirected stdout alive;
    this one names the current `sys.stdout`.
    """

    def callback(ctx: click.Context, param: click.Parameter, value: bool) -> None:
        if value and not ctx.resilient_parsing:
            click.echo(text(ctx), file=sys.stdout, color=ctx.color)
            ctx.exit()

    return callback


help_option = click.help_option(callback=_print_and_exit(lambda ctx: ctx.get_help()))
version_option = click.option(
    "--version",
    is_flag=True,
    expose_value=False,
    is_eager=True,
    help="Show the version and exit.",
    callback=_print_and_exit(
        lambda ctx: f"{ctx.find_root().info_name}, version {__version__}"
    ),
)


@click.group()
@version_option
@help_option
def cli() -> None:
    """Exact solver for the equation F(phi(z)) = phi'(0)^k F(z).

    Maps are read from JSON documents holding exact rational
    coefficients; see the package README for the format.
    """


@cli.command("analyze")
@click.argument("map_path", metavar="MAP")
@format_option
@out_option
@sample_option
@seed_option
@help_option
def analyze_cmd(map_path: str, fmt: str, out: Optional[str], sample_check: bool, seed: int) -> int:
    """Decide whether a full-rank solution exists for k = 1."""
    original, phi, _ = _load_map(map_path)
    if sample_check:
        _sample_check(original, seed)
    report = analyze(phi)
    _render(report, documents.analysis_json, _analysis_text, fmt, out)
    return 0 if report.full_rank else 2


@cli.command("solve")
@click.argument("map_path", metavar="MAP")
@degree_option
@click.option(
    "--mode",
    type=click.Choice(["full-rank", "independent"]),
    default="full-rank",
    show_default=True,
    help="Gate on the full-rank verdict, or always construct independent components.",
)
@format_option
@out_option
@sample_option
@seed_option
@help_option
def solve_cmd(
    map_path: str,
    degree: int,
    mode: str,
    fmt: str,
    out: Optional[str],
    sample_check: bool,
    seed: int,
) -> int:
    """Construct a truncated solution for k = 1."""
    original, phi, back = _load_map(map_path)
    if sample_check:
        _sample_check(original, seed)
    try:
        sol = solve(phi, degree=degree, mode=mode)
    except NoFullRankError as exc:
        _render(exc.report, documents.analysis_json, _analysis_text, fmt, out)
        return 2
    sol = sol._replace(components=back(sol.components))
    _render(sol, documents.solution_json, _solution_text, fmt, out)
    return 0


@cli.command("solve-power")
@click.argument("map_path", metavar="MAP")
@click.option(
    "--k",
    "power",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Exponent on the derivative factor.",
)
@degree_option
@format_option
@out_option
@help_option
def solve_power_cmd(
    map_path: str, power: int, degree: int, fmt: str, out: Optional[str]
) -> int:
    """Construct a truncated solution of F(phi(z)) = phi'(0)^k F(z)."""
    _, phi, back = _load_map(map_path)
    sol = solve_power(phi, power, degree=degree)
    sol = sol._replace(components=back(sol.components))
    _render(sol, documents.solution_json, _solution_text, fmt, out)
    return 0


@cli.command("verify")
@click.argument("map_path", metavar="MAP")
@click.argument("solution_path", metavar="SOLUTION")
@format_option
@out_option
@help_option
def verify_cmd(map_path: str, solution_path: str, fmt: str, out: Optional[str]) -> int:
    """Check a solution document against the equation, term by term.

    The check runs against the map exactly as given, ignoring any
    conjugator field, because emitted solutions are already in the
    original coordinates.
    """
    phi, _ = documents.parse_map_document(documents.load(map_path))
    f, power = documents.parse_solution_document(documents.load(solution_path))
    try:
        report = verify(phi, f, power)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    _render(report, documents.verify_json, _verify_text, fmt, out)
    return 0 if report.passed else 2


@cli.command("matrix")
@click.argument("map_path", metavar="MAP")
@format_option
@out_option
@help_option
def matrix_cmd(map_path: str, fmt: str, out: Optional[str]) -> int:
    """Print the truncated operator matrix in the engine's Jordan coordinates."""
    _, phi, _ = _load_map(map_path)
    _render(truncated_operator(phi), documents.operator_json, _operator_text, fmt, out)
    return 0


def main() -> None:
    # Exact coefficients can outgrow CPython's int <-> str digit limit;
    # lift it for this run and give the caller back its own.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (
        DocumentError,
        InvalidMapError,
        UnsupportedSpectrumError,
        SingularMatrixError,
        RuntimeError,
    ) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.exit(int(code) if isinstance(code, int) else 0)


if __name__ == "__main__":
    main()
