"""JSON document parsing and byte-stable serialization."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeder import documents
from schroeder.documents import (
    DocumentError,
    dump,
    load,
    matrix_json,
    parse_map_document,
    parse_matrix,
    parse_scalar,
    parse_solution_document,
    scalar_json,
    solution_json,
    verify_json,
)
from schroeder.engine import solve, verify
from schroeder.linalg import ExactMatrix
from schroeder.scalars import Scalar

from conftest import main_in_process, sc
from document_oracles import map_json, parse_rational


def test_parse_rational_accepted_forms():
    assert parse_rational("3/4", "$") == Fraction(3, 4)
    assert parse_rational("-2", "$") == Fraction(-2)
    assert parse_rational(5, "$") == Fraction(5)
    assert parse_rational("0.25", "$") == Fraction(1, 4)


@pytest.mark.parametrize("bad", [1.5, True, None, [], "a/b", "1/0", "1e-1000000", "3E2"])
def test_parse_rational_rejections(bad):
    with pytest.raises(DocumentError):
        parse_rational(bad, "$")


def test_float_rejection_message_is_actionable():
    with pytest.raises(DocumentError) as info:
        parse_rational(0.25, "$.x")
    assert "rational string" in str(info.value)
    assert "$.x" in str(info.value)


def test_parse_scalar_forms():
    assert parse_scalar({"re": "1/2", "im": "-1/3"}, "$") == Scalar.of(
        Fraction(1, 2), Fraction(-1, 3)
    )
    assert parse_scalar({"re": "2"}, "$") == sc(2)
    assert parse_scalar({"im": "1"}, "$") == Scalar.of(0, 1)
    assert parse_scalar({}, "$") == sc(0)
    assert parse_scalar("7/8", "$") == sc(7, 8)
    assert parse_scalar(3, "$") == sc(3)
    with pytest.raises(DocumentError):
        parse_scalar({"re": "1", "imaginary": "2"}, "$")
    with pytest.raises(DocumentError):
        parse_scalar([1, 2], "$")


def test_scalar_json_round_trip():
    s = Scalar.of(Fraction(-5, 7), Fraction(2, 3))
    assert parse_scalar(scalar_json(s), "$") == s


#: Spellings the grammar accepts, each with its value as (numerator, denominator).
ACCEPTED_SPELLINGS = [
    ("1_000", 1000, 1),
    ("1 / 2", 1, 2),
    ("1/0_1", 1, 1),
    (" +3 ", 3, 1),
    (".5", 1, 2),
    ("1.", 1, 1),
    ("5.5_5", 111, 20),
    ("\u0661/\u0662", 1, 2),  # Arabic-Indic one and two, as `int` reads them
    ("1/2\n", 1, 2),
]

REFUSED_SPELLINGS = ["1e5", "3E2", "_1", "1__0", "1_", "/2", "1/-2", "- 1", "0x10", "1/0", "", " "]


def _spelled_map(spelling: str) -> dict:
    """A map with `spelling` as a bare coefficient and as an imaginary part."""
    return {
        "dimension": 2,
        "components": [
            [
                {"monomial": [1, 0], "coefficient": "1/2"},
                {"monomial": [2, 0], "coefficient": spelling},
            ],
            [
                {"monomial": [0, 1], "coefficient": "1/3"},
                {"monomial": [1, 1], "coefficient": {"re": "0", "im": spelling}},
            ],
        ],
    }


def _solve_in_process(doc: dict, tmp_path: Path) -> tuple:
    """(exit code, stdout, stderr) of `schroeder solve` on `doc` at degree 3, machine format."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main_in_process("solve", str(path), "--degree", "3", "--format", "machine")
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("spelling, n, d", ACCEPTED_SPELLINGS)
def test_an_accepted_spelling_reads_as_its_plain_ratio(spelling, n, d, tmp_path):
    value, plain = Fraction(n, d), f"{n}/{d}"
    assert parse_rational(spelling, "$") == value
    assert parse_scalar(spelling, "$") == parse_scalar(plain, "$")
    assert parse_scalar({"re": spelling, "im": spelling}, "$") == Scalar.of(value, value)
    spelled = _solve_in_process(_spelled_map(spelling), tmp_path)
    assert spelled == _solve_in_process(_spelled_map(plain), tmp_path)
    assert spelled[0] == 0 and spelled[1]


@pytest.mark.parametrize("spelling", REFUSED_SPELLINGS)
def test_a_refused_spelling_is_not_a_rational(spelling, tmp_path):
    message = f"not a rational: {spelling!r}"
    with pytest.raises(DocumentError) as info:
        parse_rational(spelling, "$")
    assert str(info.value) == "$: " + message
    with pytest.raises(DocumentError) as info:
        parse_scalar({"re": "1", "im": spelling}, "$")
    assert str(info.value) == "$.im: " + message
    code, out, err = _solve_in_process(_spelled_map(spelling), tmp_path)
    assert (code, out) == (1, "")
    assert err == f"error: $.components[0][1].coefficient: {message}\n"


_blank = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def spelled_rationals(draw):
    """(a rational string, its value), both built from drawn integers, not from `Fraction(str)`."""

    def digits(text: str) -> str:
        cuts = draw(st.sets(st.integers(1, len(text) - 1))) if len(text) > 1 else set()
        return "".join(("_" if i in cuts else "") + c for i, c in enumerate(text))

    def padded(n: int) -> str:
        return digits("0" * draw(st.integers(0, 3)) + str(n))

    sign = draw(st.sampled_from(["", "+", "-"]))
    n = draw(st.integers(0, 10**30))
    form = draw(st.sampled_from(["integer", "ratio", "decimal"]))
    if form == "integer":
        body, value = padded(n), Fraction(n)
    elif form == "ratio":
        d = draw(st.integers(1, 10**30))
        body, value = padded(n) + draw(_blank) + "/" + draw(_blank) + padded(d), Fraction(n, d)
    else:
        width = draw(st.integers(0, 12))
        frac = draw(st.integers(0, 10**width - 1))
        whole = not width or draw(st.booleans())
        body = (padded(n) if whole else "") + "." + (digits(str(frac).zfill(width)) if width else "")
        value = Fraction((n if whole else 0) * 10**width + frac, 10**width)
    return draw(_blank) + sign + body + draw(_blank), -value if sign == "-" else value


@settings(max_examples=300, deadline=None)
@given(spelled_rationals())
def test_a_spelling_built_from_integers_reads_as_those_integers(case):
    text, value = case
    assert parse_rational(text, "$") == value
    assert parse_scalar({"re": "0", "im": text}, "$") == Scalar.of(0, value)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int <-> str digit limit"
)
def test_more_digits_than_int_reads_is_refused_in_process():
    many = "1" * (sys.get_int_max_str_digits() + 1)
    for text in (many, "1/" + many, "0." + many):
        with pytest.raises(DocumentError) as info:
            parse_rational(text, "$")
        assert str(info.value) == f"$: not a rational: {text!r}"
    doc = {"dimension": 1, "components": [[{"monomial": [1], "coefficient": many}]]}
    with pytest.raises(DocumentError) as info:
        parse_map_document(doc)
    assert info.value.path == "$.components[0][0].coefficient"
    assert info.value.message == f"not a rational: {many!r}"


def test_map_and_solution_documents_parse_without_fraction(monkeypatch, diagonal_map):
    """No document is read through a `Fraction`: `documents` has none, and `scalars`' goes unused."""
    doc = dict(MAP_DOC, conjugator=[["1", "0"], ["1/2", {"re": "1", "im": "-1/3"}]])
    solution = json.loads(dump(solution_json(solve(diagonal_map, degree=4))))
    expected = parse_map_document(doc), parse_solution_document(solution)

    def no_fraction(*args):
        raise AssertionError("a document was read through Fraction")

    assert not hasattr(documents, "Fraction")
    monkeypatch.setattr("schroeder.scalars.Fraction", no_fraction)
    assert (parse_map_document(doc), parse_solution_document(solution)) == expected


MAP_DOC = {
    "dimension": 2,
    "components": [
        [{"monomial": [1, 0], "coefficient": {"re": "1/2", "im": "0"}}],
        [
            {"monomial": [0, 1], "coefficient": "1/4"},
            {"monomial": [2, 0], "coefficient": "1/16"},
        ],
    ],
}


def test_parse_map_document(obstructed_map):
    phi, conj = parse_map_document(MAP_DOC)
    assert conj is None
    assert phi.truncate(2) == obstructed_map
    assert phi.degree == 2


def test_parse_map_document_with_conjugator():
    doc = dict(MAP_DOC)
    doc["conjugator"] = [["1", "0"], ["1", "1"]]
    phi, conj = parse_map_document(doc)
    assert conj == ExactMatrix.from_rows([[sc(1), sc(0)], [sc(1), sc(1)]])


def test_parse_map_document_rejections():
    with pytest.raises(DocumentError):
        parse_map_document([])
    with pytest.raises(DocumentError):
        parse_map_document({"dimension": 2})
    with pytest.raises(DocumentError):
        parse_map_document({**MAP_DOC, "extra": 1})
    with pytest.raises(DocumentError):
        parse_map_document({**MAP_DOC, "dimension": 3})
    constant = {
        "dimension": 1,
        "components": [[{"monomial": [0], "coefficient": "1"}]],
    }
    with pytest.raises(DocumentError) as info:
        parse_map_document(constant)
    assert "constant" in str(info.value)


def test_repeated_monomial_is_refused_not_summed():
    # Summed, 1/4 + 1/4 would read as eigenvalue 1/2, and 1/2 - 1/2 as zero.
    for first, second in (("1/4", "1/4"), ("1/2", "-1/2")):
        doc = {
            "dimension": 2,
            "components": [
                [
                    {"monomial": [1, 0], "coefficient": first},
                    {"monomial": [0, 2], "coefficient": "1"},
                    {"monomial": [1, 0], "coefficient": second},
                ],
                [{"monomial": [0, 1], "coefficient": "1/3"}],
            ],
        }
        with pytest.raises(DocumentError) as info:
            parse_map_document(doc)
        assert info.value.path == "$.components[0][2].monomial"
        assert "repeats an earlier term" in str(info.value)
    # Solution documents too; the same monomial in another component is
    # no repeat, so the refusal names the second term of component 1.
    sol = {
        "kind": "solution",
        "dimension": 2,
        "power": 1,
        "degree": 2,
        "components": [
            [{"monomial": [1, 0], "coefficient": "1"}],
            [{"monomial": [1, 0], "coefficient": "1"}, {"monomial": [1, 0], "coefficient": "2"}],
        ],
    }
    with pytest.raises(DocumentError) as info:
        parse_solution_document(sol)
    assert info.value.path == "$.components[1][1].monomial"


def test_parse_map_degree_is_the_highest_term_degree():
    doc = {
        "dimension": 1,
        "components": [
            [
                {"monomial": [1], "coefficient": "1/2"},
                {"monomial": [5], "coefficient": "1/3"},
            ]
        ],
    }
    phi, _ = parse_map_document(doc)
    assert phi.degree == 5


def test_solution_document_round_trip(diagonal_map):
    sol = solve(diagonal_map, degree=4)
    doc = json.loads(dump(solution_json(sol)))
    f, power = parse_solution_document(doc)
    assert power == 1
    assert f == sol.components
    again = verify(diagonal_map, f, power)
    assert again.passed


def test_parse_solution_document_rejections():
    with pytest.raises(DocumentError):
        parse_solution_document({"kind": "analysis"})
    base = {
        "kind": "solution",
        "dimension": 1,
        "power": 1,
        "degree": 2,
        "components": [[{"monomial": [1], "coefficient": "1"}]],
    }
    f, power = parse_solution_document(base)
    assert f.degree == 2 and power == 1
    for field, bad in (("power", 0), ("degree", "2"), ("power", True)):
        with pytest.raises(DocumentError):
            parse_solution_document({**base, field: bad})
    # A term above the declared degree is refused, not dropped.
    high = [[{"monomial": [1], "coefficient": "1"}, {"monomial": [7], "coefficient": "123"}]]
    with pytest.raises(DocumentError) as info:
        parse_solution_document({**base, "components": high})
    assert info.value.path == "$.components[0][1].monomial"
    assert "above the declared degree 2" in str(info.value)


def test_matrix_parse_and_json():
    m = ExactMatrix.from_rows([[sc(1, 2), sc(0)], [sc(-1), sc(2, 3)]])
    assert parse_matrix(matrix_json(m), 2, "$") == m
    with pytest.raises(DocumentError):
        parse_matrix([[{"re": "1"}]], 2, "$")
    with pytest.raises(DocumentError):
        parse_matrix([[{"re": "1"}, "0"], ["0"]], 2, "$")


def test_map_json_round_trip(coupled_map):
    doc = map_json(coupled_map)
    phi, conj = parse_map_document(json.loads(dump(doc)))
    assert phi == coupled_map and conj is None


def test_dump_is_byte_stable(diagonal_map):
    sol = solve(diagonal_map, degree=3)
    first = dump(solution_json(sol))
    second = dump(solution_json(solve(diagonal_map, degree=3)))
    assert first == second
    assert first.endswith("\n")
    reordered = json.loads(first)
    assert dump(reordered) == first


def test_verify_json_failure_shape(diagonal_map, obstructed_map):
    good = verify_json(verify(diagonal_map, solve(diagonal_map, degree=3).components))
    assert good["passed"] is True and good["first_failure"] is None
    sol = solve(diagonal_map, degree=3)
    bad = verify_json(verify(obstructed_map, sol.components))
    assert bad["passed"] is False
    assert bad["first_failure"]["monomial"] == [2, 0]
    assert bad["first_failure"]["component"] == 1


def test_load_error_paths(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(DocumentError):
        load(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError):
        load(str(bad))
    good = tmp_path / "good.json"
    good.write_text(dump(MAP_DOC), encoding="utf-8")
    assert load(str(good)) == MAP_DOC


# -- dump against json.dumps -------------------------------------------------

_exponent = st.integers(0, 9)
_odd_exponent = st.one_of(st.booleans(), st.integers(-5, -1))
_string = st.text(max_size=6)
_canonical_term = st.builds(
    lambda m, re, im: {"monomial": m, "coefficient": {"re": re, "im": im}},
    st.lists(_exponent, max_size=4), _string, _string,
)
#: Dicts that look like terms but are not canonical, so `dump` must take
#: its generic route for the whole list holding them.
_near_term = st.one_of(
    st.builds(lambda m, c: {"monomial": m, "coefficient": c}, st.lists(_exponent, max_size=3), _string),
    st.builds(lambda m, re: {"monomial": m, "coefficient": {"re": re}}, st.lists(_exponent, max_size=3), _string),
    st.builds(
        lambda t: {"coefficient": t["coefficient"], "monomial": t["monomial"]}, _canonical_term
    ),
    st.builds(
        lambda t: {"monomial": t["monomial"], "coefficient": dict(reversed(t["coefficient"].items()))},
        _canonical_term,
    ),
    st.builds(lambda t, x: {**t, "extra": x}, _canonical_term, st.integers()),
    st.builds(
        lambda t, e: {**t, "monomial": t["monomial"] + [e]}, _canonical_term, _odd_exponent
    ),
    st.builds(lambda t: {**t, "monomial": tuple(t["monomial"])}, _canonical_term),
    st.builds(
        lambda t, n: {**t, "coefficient": {"re": n, "im": "0"}}, _canonical_term, st.integers()
    ),
)
_leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_json_tree = st.recursive(
    st.one_of(_leaf, _canonical_term, _near_term),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.lists(_canonical_term, min_size=1, max_size=4),
        st.lists(st.one_of(_canonical_term, _near_term), min_size=1, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_json_tree)
def test_dump_equals_json_dumps_with_indent_2(value):
    assert dump(value) == json.dumps(value, indent=2) + "\n"


def test_dump_reproduces_every_golden_document():
    texts = sorted(Path(__file__).parent.joinpath("golden").glob("*.json"))
    assert texts
    for path in texts:
        text = path.read_text(encoding="utf-8")
        assert dump(json.loads(text)) == text, path.name


# -- parse refusals -----------------------------------------------------------

_GOOD_TERMS = [
    {"monomial": [1, 0], "coefficient": {"re": "1/2", "im": "0"}},
    {"monomial": [0, 1], "coefficient": "1/3"},
]

#: (the third term of component 1, the path refused, the message after it),
#: in a two-variable solution document of degree 3.
_REFUSALS = [
    ("x", "", "a term is an object with monomial and coefficient"),
    ({"monomial": [1, 1], "coefficient": "1", "z": 1}, "", "unexpected keys ['z']"),
    ({"monomial": [1, 1]}, "", "a term needs both monomial and coefficient"),
    ({"monomial": 3, "coefficient": "1"}, ".monomial", "monomial must be a list of exponents"),
    ({"monomial": [1, 1, 0], "coefficient": "1"}, ".monomial", "monomial has 3 exponents, expected 2"),
    ({"monomial": [1, -1], "coefficient": "1"}, ".monomial[1]", "exponents must be nonnegative integers"),
    ({"monomial": [True, 1], "coefficient": "1"}, ".monomial[0]", "exponents must be nonnegative integers"),
    ({"monomial": [0, 0], "coefficient": "1"}, ".monomial", "constant terms are not allowed"),
    (
        {"monomial": [3, 1], "coefficient": "1"},
        ".monomial",
        "monomial of degree 4 is above the declared degree 3",
    ),
    ({"monomial": [0, 1], "coefficient": "1"}, ".monomial", "monomial repeats an earlier term"),
    # The repeat is named before the coefficient is read.
    ({"monomial": [0, 1], "coefficient": "x"}, ".monomial", "monomial repeats an earlier term"),
    ({"monomial": [1, 1], "coefficient": {"re": "1/2", "im": "x"}}, ".coefficient.im", "not a rational: 'x'"),
    ({"monomial": [1, 1], "coefficient": {"re": "1e5", "im": "0"}}, ".coefficient.re", "not a rational: '1e5'"),
    ({"monomial": [1, 1], "coefficient": {"re": "1", "im": "1/0"}}, ".coefficient.im", "not a rational: '1/0'"),
    (
        {"monomial": [1, 1], "coefficient": {"re": 0.5, "im": "0"}},
        ".coefficient.re",
        "floating point numbers are not accepted; write the value as a rational string",
    ),
    (
        {"monomial": [1, 1], "coefficient": {"re": "1", "im": None}},
        ".coefficient.im",
        "expected a rational string, got NoneType",
    ),
    (
        {"monomial": [1, 1], "coefficient": {"re": True}},
        ".coefficient.re",
        "expected a rational string, got a boolean",
    ),
    (
        {"monomial": [1, 1], "coefficient": {"re": "1", "imaginary": "2"}},
        ".coefficient",
        "unexpected keys ['imaginary']",
    ),
    (
        {"monomial": [1, 1], "coefficient": {"re": "1", "im": "0", "x": "2"}},
        ".coefficient",
        "unexpected keys ['x']",
    ),
    (
        {"monomial": [1, 1], "coefficient": True},
        ".coefficient",
        "expected a coefficient object or rational string, got bool",
    ),
    (
        {"monomial": [1, 1], "coefficient": ["1", "0"]},
        ".coefficient",
        "expected a coefficient object or rational string, got list",
    ),
    ({"monomial": [1, 1], "coefficient": "3E2"}, ".coefficient", "not a rational: '3E2'"),
    ({"monomial": [1, 1], "coefficient": " "}, ".coefficient", "not a rational: ' '"),
]


@pytest.mark.parametrize("term, where, message", _REFUSALS)
def test_a_refused_term_is_named_by_its_path(term, where, message):
    doc = {
        "kind": "solution",
        "dimension": 2,
        "power": 1,
        "degree": 3,
        "components": [list(_GOOD_TERMS), _GOOD_TERMS + [term]],
    }
    with pytest.raises(DocumentError) as info:
        parse_solution_document(doc)
    path = "$.components[1][2]" + where
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "term, where, message", [row for row in _REFUSALS if "declared degree" not in row[2]]
)
def test_a_refused_map_term_is_named_by_its_path(term, where, message):
    # A map document declares no degree, so no term is above one.
    doc = {"dimension": 2, "components": [list(_GOOD_TERMS), _GOOD_TERMS + [term]]}
    with pytest.raises(DocumentError) as info:
        parse_map_document(doc)
    path = "$.components[1][2]" + where
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


#: (entry [1][0] of a 2 x 2 conjugator, the path refused after
#: "$.conjugator[1][0]", the message after it).
_CONJUGATOR_REFUSALS = [
    ("x", "", "not a rational: 'x'"),
    ("1e2", "", "not a rational: '1e2'"),
    (0.5, "", "expected a coefficient object or rational string, got float"),
    ({"re": 0.5}, ".re", "floating point numbers are not accepted; write the value as a rational string"),
    (True, "", "expected a coefficient object or rational string, got bool"),
    (None, "", "expected a coefficient object or rational string, got NoneType"),
    ({"re": "1", "z": "0"}, "", "unexpected keys ['z']"),
    ({"re": "1/0"}, ".re", "not a rational: '1/0'"),
    ({"re": False, "im": "1"}, ".re", "expected a rational string, got a boolean"),
    ({"re": "1", "im": "y"}, ".im", "not a rational: 'y'"),
    ({"im": [1]}, ".im", "expected a rational string, got list"),
]


@pytest.mark.parametrize("entry, where, message", _CONJUGATOR_REFUSALS)
def test_a_refused_conjugator_entry_is_named_by_its_path(entry, where, message):
    doc = {
        "dimension": 2,
        "components": [list(_GOOD_TERMS), list(_GOOD_TERMS)],
        "conjugator": [["1", "0"], [entry, "1"]],
    }
    with pytest.raises(DocumentError) as info:
        parse_map_document(doc)
    path = "$.conjugator[1][0]" + where
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


_GOOD_SOLUTION = {
    "kind": "solution",
    "dimension": 2,
    "power": 1,
    "degree": 3,
    "components": [list(_GOOD_TERMS), list(_GOOD_TERMS)],
}


@pytest.mark.parametrize("key", ["dimension", "power", "degree"])
@pytest.mark.parametrize("value", [0, -1, "2", 2.0, True, None, "missing"])
def test_a_count_that_is_not_a_positive_integer_is_refused(key, value):
    docs = [(parse_solution_document, dict(_GOOD_SOLUTION))]
    if key == "dimension":
        docs.append((parse_map_document, {"dimension": 2, "components": _GOOD_SOLUTION["components"]}))
    for parse, doc in docs:
        if value == "missing":
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(DocumentError) as info:
            parse(doc)
        assert info.value.path == f"$.{key}"
        assert str(info.value) == f"$.{key}: {key} must be a positive integer"


def test_repeated_coefficient_strings_parse_as_each_term_alone():
    coefficients = [
        {"re": "1/2", "im": "0"},
        {"re": "0", "im": "1/2"},
        "1/2",
        {"re": "-3/4", "im": "0"},
        {"re": "1/2", "im": "1/2"},
        "0",
        {"re": "0", "im": "0"},
        {"re": "-3/4"},
        3,
        {"re": "6/8", "im": "-0"},
    ]
    monomials = [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3], [4, 0]]
    components = [
        [
            {"monomial": m, "coefficient": coefficients[(i + shift) % len(coefficients)]}
            for i, m in enumerate(monomials)
        ]
        for shift in (0, 3)
    ]
    for doc, degree in (
        ({"dimension": 2, "components": components}, 4),
        ({"kind": "solution", "dimension": 2, "power": 1, "degree": 5, "components": components}, 5),
    ):
        f = parse_solution_document(doc)[0] if "kind" in doc else parse_map_document(doc)[0]
        for comp, terms in zip(f.components, components):
            expected = {
                tuple(t["monomial"]): parse_scalar(t["coefficient"], "$") for t in terms
            }
            assert comp.degree == degree
            assert comp.coeffs == {a: c for a, c in expected.items() if not c.is_zero()}
