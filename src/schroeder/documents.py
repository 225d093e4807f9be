"""JSON documents for maps, solutions, and reports.

All numbers travel as rational strings ("-3/4", "2"), never as floats,
so a round trip through a document loses nothing.  Serialization emits
dictionaries in a fixed key order and terms in monomial order, making
the output byte-stable for identical inputs.

A coefficient is either an object {"re": "...", "im": "..."} (either
key may be omitted and reads as 0) or a bare rational string for real
values.  Output always uses the two-key object form.

`dump` renders a document as `json.dumps(data, indent=2)` plus a final
newline, byte for byte, without the pure-Python encoder that `json` falls
back to when an indent is set: a list of terms in the output form goes
through one `str.format` template per dimension, and everything else
through a short recursion.

Parsing has one reader per element, each running every check in order:
`_parse_term` for a solution or map term, `parse_scalar` for a
coefficient or matrix entry, `_rational` for a rational.  A term's
refusal carries a path relative to the term, and `_parse_components`
puts the term's own path in front of it only when it refuses, so an
accepted term formats no path; `parse_matrix` does the same for its
entries, and `parse_scalar` for the ".re" and ".im" parts of an object.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Optional, Tuple

from .engine import AnalysisReport, SchroederSolution, VerifyReport
from .compop import TruncatedCompOp
from .linalg import ExactMatrix
from .maps import PolyMap
from .scalars import Scalar, from_ints, ratio_str, read_rational
from .series import Jet, MultiIndex


class DocumentError(ValueError):
    """A malformed document; `path` locates the offending element."""

    def __init__(self, message: str, path: Optional[str] = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not valid UTF-8: {exc}") from exc


def dump(data: Any) -> str:
    """`json.dumps(data, indent=2) + "\\n"`, byte for byte, for JSON trees of
    str-keyed dicts, lists, tuples, strings, numbers, booleans and None."""
    return _emit(data, "") + "\n"


def _emit(value: Any, indent: str) -> str:
    """`value` rendered as by `json.dumps(indent=2)`, its first line at `indent`."""
    if type(value) is str:
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ["\n" + inner + _quote(k) + ": " + _emit(v, inner) for k, v in value.items()]
        return "{" + ",".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _emit_terms(value, inner)
        if items is None:
            items = ["\n" + inner + _emit(v, inner) for v in value]
        return "[" + ",".join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


_TERM_KEYS = ("monomial", "coefficient")
_COEFF_KEYS = ("re", "im")


def _emit_terms(items: Any, inner: str) -> Optional[List[str]]:
    """Each item as a canonical term from one template per dimension, or None.

    A canonical term is {"monomial": [ints], "coefficient": {"re": str,
    "im": str}} with its keys in that order; a list holding anything else
    is left to `_emit`.
    """
    templates: Dict[int, str] = {}
    out = []
    for term in items:
        if type(term) is not dict or tuple(term) != _TERM_KEYS:
            return None
        alpha, coeff = term["monomial"], term["coefficient"]
        if type(alpha) is not list or type(coeff) is not dict or tuple(coeff) != _COEFF_KEYS:
            return None
        re, im = coeff["re"], coeff["im"]
        if type(re) is not str or type(im) is not str:
            return None
        for e in alpha:
            if type(e) is not int:
                return None
        template = templates.get(len(alpha))
        if template is None:
            template = templates[len(alpha)] = _term_template(len(alpha), inner)
        out.append(template.format(*alpha, _quote(re), _quote(im)))
    return out


def _term_template(dim: int, inner: str) -> str:
    """The `str.format` template of a `dim`-variable term whose brace opens at `inner`."""
    i1, i2 = inner + "  ", inner + "    "
    monomial = "[" + ",".join(["\n" + i2 + "{}"] * dim) + "\n" + i1 + "]" if dim else "[]"
    return (
        "\n" + inner + "{{\n" + i1 + '"monomial": ' + monomial + ",\n"
        + i1 + '"coefficient": {{\n' + i2 + '"re": {},\n' + i2 + '"im": {}\n'
        + i1 + "}}\n" + inner + "}}"
    )


def _under(exc: DocumentError, prefix: str) -> DocumentError:
    """The refusal `exc`, whose path is relative, at `prefix` followed by that path."""
    return DocumentError(exc.message, prefix + (exc.path or ""))


def _rational(value: Any, at: str) -> Tuple[int, int]:
    """(n, d) in lowest terms, d > 0, by `scalars.read_rational`'s grammar; refused at `at`."""
    if isinstance(value, str):
        try:
            return read_rational(value)
        except ValueError as exc:
            raise DocumentError(f"not a rational: {value!r}", at) from exc
    if isinstance(value, bool):
        raise DocumentError("expected a rational string, got a boolean", at)
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise DocumentError(
            "floating point numbers are not accepted; write the value as a rational string", at
        )
    raise DocumentError(f"expected a rational string, got {type(value).__name__}", at)


def parse_scalar(value: Any, at: str) -> Scalar:
    """A coefficient, refused at `at` or a part of it."""
    if isinstance(value, dict):
        if len(value) != 2 or "re" not in value or "im" not in value:
            extra = set(value) - {"re", "im"}
            if extra:
                raise DocumentError(f"unexpected keys {sorted(extra)}", at)
        # A part's path is formed only when the part is refused.
        part = ".re"
        try:
            a, d = _rational(value.get("re", 0), "")
            part = ".im"
            b, e = _rational(value.get("im", 0), "")
        except DocumentError as exc:
            raise _under(exc, at + part) from exc.__cause__
        return from_ints(a * e, b * d, d * e)
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        a, d = _rational(value, at)
        return from_ints(a, 0, d)
    raise DocumentError(
        f"expected a coefficient object or rational string, got {type(value).__name__}", at
    )


def scalar_json(s: Scalar) -> Dict[str, str]:
    a, b, d = s.ints()
    return {"re": ratio_str(a, d), "im": ratio_str(b, d)}


def _parse_term(
    term: Any, dim: int, degree: Optional[int], terms: Dict[MultiIndex, Scalar]
) -> None:
    """One term into its component's `terms`, with every check in order.

    A refusal's path is relative to the term.  Each monomial may occur
    once per component, and none above a declared `degree`.
    """
    if not isinstance(term, dict):
        raise DocumentError("a term is an object with monomial and coefficient", "")
    if len(term) != 2 or "monomial" not in term or "coefficient" not in term:
        extra = set(term) - {"monomial", "coefficient"}
        if extra:
            raise DocumentError(f"unexpected keys {sorted(extra)}", "")
        raise DocumentError("a term needs both monomial and coefficient", "")
    alpha = term["monomial"]
    if not isinstance(alpha, list):
        raise DocumentError("monomial must be a list of exponents", ".monomial")
    if len(alpha) != dim:
        raise DocumentError(f"monomial has {len(alpha)} exponents, expected {dim}", ".monomial")
    for e in alpha:
        if type(e) is not int or e < 0:
            # Any earlier element that is `e` would have been refused first.
            i = next(i for i, x in enumerate(alpha) if x is e)
            raise DocumentError("exponents must be nonnegative integers", f".monomial[{i}]")
    alpha = tuple(alpha)
    d = sum(alpha)
    if not d:
        raise DocumentError("constant terms are not allowed", ".monomial")
    if degree is not None and d > degree:
        raise DocumentError(
            f"monomial of degree {d} is above the declared degree {degree}", ".monomial"
        )
    if alpha in terms:
        raise DocumentError("monomial repeats an earlier term", ".monomial")
    terms[alpha] = parse_scalar(term["coefficient"], ".coefficient")


def _parse_components(
    value: Any, dim: int, path: str, degree: Optional[int] = None
) -> Tuple[Jet, ...]:
    """Jets of the declared `degree`, or else of the highest term's degree (at least 1).

    The terms are already unique and within the degree, so each jet is
    built from them directly, without zeros.
    """
    if not isinstance(value, list):
        raise DocumentError("components must be a list", path)
    if len(value) != dim:
        raise DocumentError(f"{len(value)} components for dimension {dim}", path)
    term_maps = []
    for i, comp in enumerate(value):
        if not isinstance(comp, list):
            raise DocumentError("expected a list of terms", f"{path}[{i}]")
        terms: Dict[MultiIndex, Scalar] = {}
        for j, term in enumerate(comp):
            try:
                _parse_term(term, dim, degree, terms)
            except DocumentError as exc:
                raise _under(exc, f"{path}[{i}][{j}]") from exc.__cause__
        term_maps.append(terms)
    if degree is None:
        degree = max([1] + [sum(a) for terms in term_maps for a in terms])
    return tuple(
        Jet(dim, degree, {a: c for a, c in terms.items() if c}) for terms in term_maps
    )


def _positive(data: Dict[str, Any], key: str) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DocumentError(f"{key} must be a positive integer", f"$.{key}")
    return value


def _components_map(data: Dict[str, Any], dim: int, degree: Optional[int]) -> PolyMap:
    if "components" not in data:
        raise DocumentError("missing components", "$")
    comps = _parse_components(data["components"], dim, "$.components", degree)
    try:
        return PolyMap(comps)
    except ValueError as exc:
        raise DocumentError(str(exc), "$.components") from exc


def parse_matrix(value: Any, n: int, path: str) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != n:
        raise DocumentError(f"expected {n} rows", path)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"expected {n} entries", f"{path}[{i}]")
        entries = []
        for j, e in enumerate(row):
            try:
                entries.append(parse_scalar(e, ""))
            except DocumentError as exc:
                raise _under(exc, f"{path}[{i}][{j}]") from exc.__cause__
        rows.append(entries)
    return ExactMatrix.from_rows(rows)


def matrix_json(m: ExactMatrix) -> List[List[Dict[str, str]]]:
    return [[scalar_json(e) for e in row] for row in m.entries]


def parse_map_document(data: Any) -> Tuple[PolyMap, Optional[ExactMatrix]]:
    """A self-map plus an optional conjugator matrix."""
    if not isinstance(data, dict):
        raise DocumentError("top level must be an object")
    extra = set(data) - {"dimension", "components", "conjugator"}
    if extra:
        raise DocumentError(f"unexpected keys {sorted(extra)}")
    dim = _positive(data, "dimension")
    phi = _components_map(data, dim, None)
    conj = None
    if "conjugator" in data:
        conj = parse_matrix(data["conjugator"], dim, "$.conjugator")
    return phi, conj


def parse_solution_document(data: Any) -> Tuple[PolyMap, int]:
    """The components and power of a previously emitted solution."""
    if not isinstance(data, dict):
        raise DocumentError("top level must be an object")
    if data.get("kind") != "solution":
        raise DocumentError('expected a document with "kind": "solution"', "$.kind")
    dim = _positive(data, "dimension")
    power = _positive(data, "power")
    return _components_map(data, dim, _positive(data, "degree")), power


def jet_json(f: Jet) -> List[Dict[str, Any]]:
    return [
        {"monomial": list(alpha), "coefficient": scalar_json(c)}
        for alpha, c in f.terms()
    ]


def analysis_json(report: AnalysisReport) -> Dict[str, Any]:
    return {
        "kind": "analysis",
        "dimension": report.dimension,
        "truncation_degree": report.truncation_degree,
        "basis_size": report.basis_size,
        "full_rank": report.full_rank,
        "eigenvalues": [
            {
                "value": scalar_json(rec.value),
                "resonant": rec.resonant,
                "witnesses": [list(w) for w in rec.witnesses],
                "geometric_multiplicity": rec.geometric_multiplicity,
                "kernel_dimension": rec.kernel_dimension,
                "projected_dimension": rec.projected_dimension,
                "full_rank_possible": rec.full_rank_possible,
            }
            for rec in report.eigenvalues
        ],
    }


def solution_json(sol: SchroederSolution) -> Dict[str, Any]:
    return {
        "kind": "solution",
        "dimension": sol.components.dim,
        "power": sol.power,
        "degree": sol.degree,
        "full_rank": sol.full_rank,
        "derivative_rank": sol.derivative_rank,
        "component_rank": sol.component_rank,
        "components": [jet_json(c) for c in sol.components.components],
        "component_details": [
            {
                "index": info.index,
                "eigenvalue": scalar_json(info.eigenvalue),
                "block": info.block,
                "position": info.position,
                "block_size": info.block_size,
            }
            for info in sol.component_info
        ],
    }


def verify_json(report: VerifyReport) -> Dict[str, Any]:
    failure = None
    if report.first_failure is not None:
        comp, alpha, value = report.first_failure
        failure = {
            "component": comp,
            "monomial": list(alpha),
            "value": scalar_json(value),
        }
    return {
        "kind": "verification",
        "degree": report.degree,
        "clean_degree": report.clean_degree,
        "passed": report.passed,
        "first_failure": failure,
        "derivative_rank": report.derivative_rank,
        "component_rank": report.component_rank,
    }


def operator_json(op: TruncatedCompOp) -> Dict[str, Any]:
    return {
        "kind": "operator",
        "dimension": op.dim,
        "degree": op.degree,
        "basis": [list(alpha) for alpha in op.basis],
        "matrix": matrix_json(op.matrix),
    }
