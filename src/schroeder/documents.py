"""JSON documents for maps, solutions, and reports.

All numbers travel as rational strings ("-3/4", "2"), never as floats,
so a round trip through a document loses nothing.  Serialization emits
dictionaries in a fixed key order and terms in monomial order, making
the output byte-stable for identical inputs.

A coefficient is either an object {"re": "...", "im": "..."} (the "im"
key may be omitted) or a bare rational string for real values.  Output
always uses the two-key object form.

`dump` renders a document as `json.dumps(data, indent=2)` plus a final
newline, byte for byte, without the pure-Python encoder that `json` falls
back to when an indent is set: a list of terms in the output form goes
through one `str.format` template per dimension, and everything else
through a short recursion.  Parsing reads each distinct coefficient
string once per list of components, and formats the path of a term only
when it refuses it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Optional, Tuple

from .engine import AnalysisReport, SchroederSolution, VerifyReport
from .compop import TruncatedCompOp
from .linalg import ExactMatrix
from .maps import PolyMap
from .scalars import Scalar, ratio_str
from .series import Jet, MultiIndex


class DocumentError(ValueError):
    """A malformed document; `path` locates the offending element."""

    def __init__(self, message: str, path: Optional[str] = None):
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


def parse_rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational string, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            "floating point numbers are not accepted; write the value as a rational string",
            path,
        )
    if isinstance(value, str):
        try:
            # Fraction also reads exponents, and "1e-1000000" is ten bytes
            # for a million-digit denominator.
            if "e" in value or "E" in value:
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"not a rational: {value!r}", path) from exc
    raise DocumentError(f"expected a rational string, got {type(value).__name__}", path)


def parse_scalar(value: Any, path: str) -> Scalar:
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise DocumentError(f"unexpected keys {sorted(extra)}", path)
        re = parse_rational(value.get("re", 0), f"{path}.re")
        im = parse_rational(value.get("im", 0), f"{path}.im")
        return Scalar(re, im)
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        return Scalar(parse_rational(value, path), 0)
    raise DocumentError(
        f"expected a coefficient object or rational string, got {type(value).__name__}",
        path,
    )


def scalar_json(s: Scalar) -> Dict[str, str]:
    a, b, d = s.ints()
    return {"re": ratio_str(a, d), "im": ratio_str(b, d)}


def _parse_monomial(value: Any, dim: int, path: str) -> MultiIndex:
    if not isinstance(value, list):
        raise DocumentError("monomial must be a list of exponents", path)
    if len(value) != dim:
        raise DocumentError(
            f"monomial has {len(value)} exponents, expected {dim}", path
        )
    for i, e in enumerate(value):
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise DocumentError("exponents must be nonnegative integers", f"{path}[{i}]")
    return tuple(value)


def _parse_terms(
    value: Any, dim: int, path: str, degree: Optional[int], rationals: Dict[str, Fraction]
) -> Dict[MultiIndex, Scalar]:
    """One component's terms, each monomial once and none above a declared `degree`.

    A term of the shape `dump` writes, or with a bare string coefficient,
    is read by `_read_term` without formatting a path; every other term,
    valid or not, goes through `_check_term`, which names the path of what
    it refuses.
    """
    if not isinstance(value, list):
        raise DocumentError("expected a list of terms", path)
    out: Dict[MultiIndex, Scalar] = {}
    for i, term in enumerate(value):
        parsed = _read_term(term, dim, degree, rationals)
        if parsed is None:
            parsed = _check_term(term, dim, f"{path}[{i}]", degree, out)
        alpha, coeff = parsed
        if alpha in out:
            raise DocumentError("monomial repeats an earlier term", f"{path}[{i}].monomial")
        out[alpha] = coeff
    return out


def _read_term(
    term: Any, dim: int, degree: Optional[int], rationals: Dict[str, Fraction]
) -> Optional[Tuple[MultiIndex, Scalar]]:
    """A term with string coefficients, or None when `_check_term` must look."""
    if type(term) is not dict or len(term) != 2:
        return None
    alpha, coeff = term.get("monomial"), term.get("coefficient")
    if type(alpha) is not list or len(alpha) != dim:
        return None
    for e in alpha:
        if type(e) is not int or e < 0:
            return None
    d = sum(alpha)
    if not d or (degree is not None and d > degree):
        return None
    if type(coeff) is dict:
        if len(coeff) != 2:
            return None
        re = _rational(coeff.get("re"), rationals)
        im = _rational(coeff.get("im"), rationals)
        if re is None or im is None:
            return None
        return tuple(alpha), Scalar(re, im)
    re = _rational(coeff, rationals)
    return None if re is None else (tuple(alpha), Scalar(re, 0))


def _rational(text: Any, rationals: Dict[str, Fraction]) -> Optional[Fraction]:
    """A rational string's value, parsed once per document; None if it is not one."""
    if type(text) is not str:
        return None
    value = rationals.get(text)
    if value is None and "e" not in text and "E" not in text:
        try:
            value = rationals[text] = Fraction(text)
        except (ValueError, ZeroDivisionError):
            return None
    return value


def _check_term(
    term: Any, dim: int, tpath: str, degree: Optional[int], seen: Dict[MultiIndex, Scalar]
) -> Tuple[MultiIndex, Scalar]:
    """A term read with every check in order, refusing the first that fails at its path."""
    if not isinstance(term, dict):
        raise DocumentError("a term is an object with monomial and coefficient", tpath)
    extra = set(term) - {"monomial", "coefficient"}
    if extra:
        raise DocumentError(f"unexpected keys {sorted(extra)}", tpath)
    if "monomial" not in term or "coefficient" not in term:
        raise DocumentError("a term needs both monomial and coefficient", tpath)
    alpha = _parse_monomial(term["monomial"], dim, f"{tpath}.monomial")
    if sum(alpha) == 0:
        raise DocumentError("constant terms are not allowed", f"{tpath}.monomial")
    if degree is not None and sum(alpha) > degree:
        raise DocumentError(
            f"monomial of degree {sum(alpha)} is above the declared degree {degree}",
            f"{tpath}.monomial",
        )
    if alpha in seen:
        raise DocumentError("monomial repeats an earlier term", f"{tpath}.monomial")
    return alpha, parse_scalar(term["coefficient"], f"{tpath}.coefficient")


def _parse_components(
    value: Any, dim: int, path: str, degree: Optional[int] = None
) -> Tuple[Jet, ...]:
    """Jets of the declared `degree`, or else of the highest term's degree (at least 1).

    Each distinct coefficient string is parsed once for the whole list.
    The terms are already unique and within the degree, so each jet is
    built from them directly, without zeros.
    """
    if not isinstance(value, list):
        raise DocumentError("components must be a list", path)
    if len(value) != dim:
        raise DocumentError(f"{len(value)} components for dimension {dim}", path)
    rationals: Dict[str, Fraction] = {}
    term_maps = [
        _parse_terms(comp, dim, f"{path}[{i}]", degree, rationals)
        for i, comp in enumerate(value)
    ]
    if degree is None:
        degree = max([1] + [sum(a) for terms in term_maps for a in terms])
    return tuple(
        Jet(dim, degree, {a: c for a, c in terms.items() if c}) for terms in term_maps
    )


def _parse_dimension(data: Dict[str, Any], path: str) -> int:
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError("dimension must be a positive integer", f"{path}.dimension")
    return dim


def parse_matrix(value: Any, n: int, path: str) -> ExactMatrix:
    if not isinstance(value, list) or len(value) != n:
        raise DocumentError(f"expected {n} rows", path)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"expected {n} entries", f"{path}[{i}]")
        rows.append(
            [parse_scalar(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)]
        )
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
    dim = _parse_dimension(data, "$")
    if "components" not in data:
        raise DocumentError("missing components", "$")
    comps = _parse_components(data["components"], dim, "$.components")
    try:
        phi = PolyMap(comps)
    except ValueError as exc:
        raise DocumentError(str(exc), "$.components") from exc
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
    dim = _parse_dimension(data, "$")
    power = data.get("power")
    if not isinstance(power, int) or isinstance(power, bool) or power < 1:
        raise DocumentError("power must be a positive integer", "$.power")
    degree = data.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise DocumentError("degree must be a positive integer", "$.degree")
    if "components" not in data:
        raise DocumentError("missing components", "$")
    comps = _parse_components(data["components"], dim, "$.components", degree)
    try:
        f = PolyMap(comps)
    except ValueError as exc:
        raise DocumentError(str(exc), "$.components") from exc
    return f, power


def jet_json(f: Jet) -> List[Dict[str, Any]]:
    return [
        {"monomial": list(alpha), "coefficient": scalar_json(c)}
        for alpha, c in f.terms()
    ]


def map_json(phi: PolyMap) -> Dict[str, Any]:
    return {
        "dimension": phi.dim,
        "components": [jet_json(c) for c in phi.components],
    }


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
