"""Command line front end.

Subcommands read a map document (JSON) and print either a human
readable report or a machine document (--format machine).  Exit codes:
0 on success, 2 for a definite negative verdict (no full-rank solution,
or a verification failure), 1 for unreadable documents, unsupported
maps, or bad invocations.

Two tables describe the command line.  `_OPTIONS` gives each flag its
metavar (None for a switch), default and help line; `_COMMANDS` gives
each subcommand its function, its positional arguments and its flags in
help order.  `_parse` reads argv against them in one loop: it takes
`--opt value` and `--opt=value`, options among the arguments, and `--`,
and checks each value by its metavar.  `_help` renders the `--help`
pages from the same tables and the commands' docstrings, in click's
layout at 78 columns, and each refusal keeps click's wording.  Only the
standard library is used.
"""

from __future__ import annotations

import os
import random
import sys
import textwrap
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

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
        sys.stdout.write(text)
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
        sys.stderr.write(
            f"warning: map failed to contract {bad} of {samples} float samples "
            f"at radius {radius}; the fixed point may not be attracting\n"
        )


def analyze_cmd(map_path: str, fmt: str, out: Optional[str], sample_check: bool, seed: int) -> int:
    """Decide whether a full-rank solution exists for k = 1."""
    original, phi, _ = _load_map(map_path)
    if sample_check:
        _sample_check(original, seed)
    report = analyze(phi)
    _render(report, documents.analysis_json, _analysis_text, fmt, out)
    return 0 if report.full_rank else 2


def solve_cmd(map_path: str, degree: int, mode: str, fmt: str, out: Optional[str],
              sample_check: bool, seed: int) -> int:
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


def solve_power_cmd(map_path: str, power: int, degree: int, fmt: str, out: Optional[str]) -> int:
    """Construct a truncated solution of F(phi(z)) = phi'(0)^k F(z)."""
    _, phi, back = _load_map(map_path)
    sol = solve_power(phi, power, degree=degree)
    sol = sol._replace(components=back(sol.components))
    _render(sol, documents.solution_json, _solution_text, fmt, out)
    return 0


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


def matrix_cmd(map_path: str, fmt: str, out: Optional[str]) -> int:
    """Print the truncated operator matrix in the engine's Jordan coordinates."""
    _, phi, _ = _load_map(map_path)
    _render(truncated_operator(phi), documents.operator_json, _operator_text, fmt, out)
    return 0


#: Each flag's metavar (None for a switch), default and help line.
_OPTIONS: Dict[str, Tuple[Optional[str], Any, str]] = {
    "--format": ("[text|machine]", "text", "Human readable text or a JSON document."),
    "--out": ("FILE", None, "Write the output to a file instead of stdout."),
    "--sample-check": (None, False,
                       "Float-sample the map near 0 and warn if it fails to contract."),
    "--seed": ("INTEGER", 0, "Seed for --sample-check sampling."),
    "--degree": ("INTEGER RANGE", DEFAULT_DEGREE,
                 "Output degree; raised to the operator truncation degree when smaller."),
    "--mode": ("[full-rank|independent]", "full-rank",
               "Gate on the full-rank verdict, or always construct independent components."),
    "--k": ("INTEGER RANGE", 1, "Exponent on the derivative factor."),
    "--version": (None, False, "Show the version and exit."),
    "--help": (None, False, "Show this message and exit."),
}


class _UsageError(Exception):
    """A command line that names no command, or that its command refuses."""


def _show(text: str) -> NoReturn:
    sys.stdout.write(text + "\n")
    sys.exit(0)


def _rows(rows: List[Tuple[str, str]]) -> List[str]:
    """A definition list: each term padded to the widest, its text wrapped within 78 columns."""
    width = max(len(term) for term, _ in rows) + 2
    lines = []
    for term, text in rows:
        first, *rest = textwrap.wrap(text, 76 - width) or [""]
        lines += [f"  {term:<{width}}{first}"] + [" " * (width + 2) + line for line in rest]
    return lines


def _help(command: Optional[str]) -> str:
    """The `--help` page of a subcommand, or of the group for None."""
    fn, names, flags = _COMMANDS[command]
    rows = []
    for flag in (*flags, "--help"):
        metavar, default, text = _OPTIONS[flag]
        if metavar is not None:
            flag += " " + metavar
            if default is not None:
                text += f"  [default: {default}{'; x>=1' if metavar.endswith('RANGE') else ''}]"
        rows.append((flag, text))
    # Under `python -OO` there are no docstrings, and the pages go without.
    paragraphs = [textwrap.indent(textwrap.fill(" ".join(p.split()), 76), "  ")
                  for p in (fn.__doc__ or "").split("\n\n")]
    usage = " ".join(["Usage: schroeder", *filter(None, [command]), "[OPTIONS]", *names])
    lines = [usage, "", "\n\n".join(paragraphs), "", "Options:", *_rows(rows)]
    if command is None:
        commands = sorted(filter(None, _COMMANDS))
        width = 72 - max(map(len, commands))
        docs = [_COMMANDS[name][0].__doc__ or "" for name in commands]
        short = [textwrap.shorten(d.split("\n\n")[0], width, placeholder="...") for d in docs]
        lines += ["", "Commands:", *_rows(list(zip(commands, short)))]
    return "\n".join(lines)


def _value(flag: str, text: str) -> Any:
    """The value of flag given as text, checked by the flag's metavar."""
    metavar = _OPTIONS[flag][0]
    invalid = f"Invalid value for {flag!r}: "
    if metavar == "FILE" and os.path.isdir(text):
        raise _UsageError(f"{invalid}File {text!r} is a directory.")
    choices = metavar[1:-1].split("|")
    if metavar.startswith("[") and text not in choices:
        raise _UsageError(f"{invalid}{text!r} is not one of {', '.join(map(repr, choices))}.")
    if not metavar.startswith("INTEGER"):
        return text
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"{invalid}{text!r} is not a valid {metavar.lower()}.") from None
    if metavar == "INTEGER RANGE" and value < 1:
        raise _UsageError(f"{invalid}{value} is not in the range x>=1.")
    return value


def _parse(argv: List[str]) -> Tuple[Callable[..., int], List[Any]]:
    """The command function that argv names, and its arguments in order.

    These are the positionals, then each flag's value in the command's
    flag order, which is the order of its parameters.  A `--help` before
    any `--` prints the command's page and exits, whatever else argv
    holds; so do `--help` and `--version` in place of the command.
    """
    command, *rest = argv or [None]
    if command == "--":
        command, *rest = rest or [None]
    elif command in ("--help", "--version"):
        _show(_help(None) if command == "--help" else f"schroeder, version {__version__}")
    elif command and command.startswith("-") and command != "-":
        flag = command.partition("=")[0]
        if flag in ("--help", "--version"):
            raise _UsageError(f"Option {flag!r} does not take a value.")
        raise _UsageError(f"No such option {flag!r}.")
    if command is None:
        raise _UsageError("Missing command.")
    if command not in _COMMANDS:
        raise _UsageError(f"No such command {command!r}.")
    fn, names, flags = _COMMANDS[command]
    if "--help" in rest[: rest.index("--") if "--" in rest else len(rest)]:
        _show(_help(command))
    values = {flag: _OPTIONS[flag][1] for flag in flags}
    args: List[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            args += tokens
        elif not token.startswith("-") or token == "-":
            args.append(token)
        else:
            flag, eq, text = token.partition("=")
            if flag not in values and flag != "--help":
                raise _UsageError(f"No such option {flag!r}.")
            switch = _OPTIONS[flag][0] is None
            if switch and eq:
                raise _UsageError(f"Option {flag!r} does not take a value.")
            if not switch and not eq:
                text = next(tokens, None)
                if text is None:
                    raise _UsageError(f"Option {flag!r} requires an argument.")
            values[flag] = True if switch else _value(flag, text)
    if len(args) < len(names):
        raise _UsageError(f"Missing argument '{names[len(args)]}'.")
    extra = args[len(names):]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise _UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return fn, [*args, *values.values()]


def main() -> None:
    """Exact solver for the equation F(phi(z)) = phi'(0)^k F(z).

    Maps are read from JSON documents holding exact rational
    coefficients; see the package README for the format.
    """
    # The docstring above is the group's help page.  Exact coefficients
    # can outgrow CPython's int <-> str digit limit; lift it for this run
    # and give the caller back its own.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        fn, args = _parse(sys.argv[1:])
        code = fn(*args)
    except KeyboardInterrupt:
        sys.stderr.write("\n")
        sys.exit(1)
    except (_UsageError, DocumentError, InvalidMapError, UnsupportedSpectrumError,
            SingularMatrixError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.exit(code)


#: Each subcommand's function, positional arguments and flags in help
#: order; None is the group itself, whose page lists the subcommands.
_COMMANDS = {
    None: (main, ("COMMAND", "[ARGS]..."), ("--version",)),
    "analyze": (analyze_cmd, ("MAP",), ("--format", "--out", "--sample-check", "--seed")),
    "solve": (solve_cmd, ("MAP",),
              ("--degree", "--mode", "--format", "--out", "--sample-check", "--seed")),
    "solve-power": (solve_power_cmd, ("MAP",), ("--k", "--degree", "--format", "--out")),
    "verify": (verify_cmd, ("MAP", "SOLUTION"), ("--format", "--out")),
    "matrix": (matrix_cmd, ("MAP",), ("--format", "--out")),
}


if __name__ == "__main__":
    main()
