"""Strict document parsing, canonical parsed values, and error context."""

import json
import sys
from fractions import Fraction

import pytest

from matident.bench import CountingRing
from matident.document import DocumentError, parse_document
from matident.matrices import CubeMatrix, SquareMatrix
from matident.methods import lift
from matident.rings import MATRIX2, RATIONAL, MatrixElement, Poly


def test_rational_matrix_round_trip_is_canonical():
    text = '{"kind":"matrix","ring":"rational","n":2,"entries":[[1,"2/4"],["-3/1",4]]}'
    document = parse_document(text)
    assert isinstance(document.content, SquareMatrix)
    assert document.content.entries[0][1] == Fraction(1, 2)
    assert document.content.entries == ((1, Fraction(1, 2)), (-3, 4))
    minus_three = document.content.entries[1][0]
    assert isinstance(minus_three, Fraction) and minus_three.denominator == 1


def test_symbolic_matrix_round_trip():
    text = '{"kind":"matrix","ring":"symbolic","n":2,"entries":[["a","b"],[3,"1/2"]]}'
    document = parse_document(text)
    assert document.content.entries[0][0] == Poly.variable("a")
    assert document.content.entries[1][1] == Poly.constant(Fraction(1, 2))
    assert document.content.entries[0][1] == Poly.variable("b")
    assert document.content.entries[1][0] == Poly.constant(3)


def test_matrix2_matrix_round_trip():
    payload = {
        "kind": "matrix",
        "ring": "matrix2",
        "n": 2,
        "entries": [
            [[[1, 0], [0, 1]], [[0, "1/2"], [1, 0]]],
            [[[2, 0], [0, 2]], [[1, 1], [0, 1]]],
        ],
    }
    document = parse_document(json.dumps(payload))
    assert document.content.entries[0][1] == MatrixElement([[0, Fraction(1, 2)], [1, 0]])
    assert document.content.entries[1][0] == MatrixElement([[2, 0], [0, 2]])


def test_cube_round_trip():
    payload = {
        "kind": "cube",
        "ring": "rational",
        "n": 2,
        "entries": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    }
    document = parse_document(json.dumps(payload))
    assert isinstance(document.content, CubeMatrix)
    assert document.content.sections[1][0][1] == 6
    assert document.content.sections == (((1, 2), (3, 4)), ((5, 6), (7, 8)))


def _fields(obj):
    cells = obj.entries if isinstance(obj, SquareMatrix) else obj.sections
    return type(obj), obj.ring, obj.n, cells


@pytest.mark.parametrize(
    "ring, kind, entries",
    [
        ("rational", "matrix", [[1, "2/4"], ["-3/1", 4]]),
        ("symbolic", "matrix", [["a", "b"], [3, "1/2"]]),
        ("matrix2", "matrix", [[[[1, 0], [0, "1/3"]]]]),
        ("rational", "cube", [[[1, "1/2"], [3, 4]], [[5, 6], [7, "8/3"]]]),
        ("symbolic", "cube", [[["a"]]]),
    ],
)
def test_lifted_and_rebound_containers_equal_what_the_public_constructors_build(
    ring, kind, entries
):
    payload = {"kind": kind, "ring": ring, "n": len(entries), "entries": entries}
    obj = parse_document(json.dumps(payload)).content
    lifted = lift(obj)[0]
    assert lifted.ring is not obj.ring
    rebound = obj.with_ring(CountingRing(obj.ring))
    for built in (lifted, rebound, lifted.with_ring(CountingRing(lifted.ring))):
        cls, built_ring, _, cells = _fields(built)
        assert _fields(built) == _fields(cls(built_ring, cells))
    assert _fields(rebound)[2:] == _fields(obj)[2:]


def test_the_public_constructors_refuse_what_is_no_matrix():
    cases = [
        (lambda: SquareMatrix(RATIONAL, [[Fraction(1), "x"]]), "entry 'x' is not an element"),
        (lambda: SquareMatrix(RATIONAL, [[True]]), "entry True is not an element of rationals"),
        (lambda: SquareMatrix(RATIONAL, [[1, 2], [3]]), "matrix rows must all have length n"),
        (lambda: SquareMatrix(RATIONAL, []), "matrix must have at least one row"),
        (lambda: CubeMatrix(RATIONAL, [[[1, 2], [3, 4]], [[5]]]), "sections must all be n x n"),
        (lambda: CubeMatrix(RATIONAL, [[[False]]]), "entry False is not an element"),
        (lambda: CubeMatrix(RATIONAL, []), "cube must have at least one section"),
        (lambda: CubeMatrix(MATRIX2, [[[1]]]), "cube matrices require a commutative ring"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def _refusal(text):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    return str(excinfo.value)


def _rejects(text, fragment):
    assert fragment in _refusal(text)


def test_shape_errors_name_the_offending_row():
    _rejects(
        '{"kind":"matrix","ring":"rational","n":2,"entries":[[1,2,3],[4,5]]}',
        "row 1 has 3 columns, expected 2",
    )
    _rejects(
        '{"kind":"matrix","ring":"rational","n":2,"entries":[[1,2]]}',
        "has 1 rows, expected 2",
    )
    _rejects(
        '{"kind":"cube","ring":"rational","n":2,"entries":[[[1,2],[3,4]],[[5,6]]]}',
        "section 2 has 1 rows",
    )


_GOOD_ROWS = [[1, 2], [3, 4]]


@pytest.mark.parametrize(
    "kind, ring, entries, message",
    [
        ("matrix", "rational", 5, "entries must be an array of rows"),
        ("matrix", "rational", [[1, 2]], "entries has 1 rows, expected 2"),
        ("matrix", "rational", [[1, 2], "x"], "entries row 2 must be an array"),
        ("matrix", "rational", [[1, 2], [3]], "entries row 2 has 1 columns, expected 2"),
        ("cube", "rational", "x", "entries must be an array of sections"),
        ("cube", "rational", [_GOOD_ROWS] * 3, "entries has 3 sections, expected 2"),
        ("cube", "rational", [_GOOD_ROWS, {}], "entries section 2 must be an array of rows"),
        ("cube", "rational", [[[1, 2]], _GOOD_ROWS], "entries section 1 has 1 rows, expected 2"),
        ("cube", "rational", [_GOOD_ROWS, [None, [3, 4]]],
         "entries section 2 row 1 must be an array"),
        ("cube", "rational", [_GOOD_ROWS, [[1, 2], [3, 4, 5]]],
         "entries section 2 row 2 has 3 columns, expected 2"),
        ("matrix", "rational", [[1, 2], ["x", 4]],
         "row 2, column 1: cannot parse 'x' as a rational"),
        ("matrix", "symbolic", [["a", 1.5], ["c", "d"]],
         "row 1, column 2: expected an integer, 'p/q' string, or variable name, got 1.5"),
        ("matrix", "matrix2", [[[[1, 0], [0, "1/0"]], [[1, 0], [0, 1]]], [[[1, 0], [0, 1]]] * 2],
         "row 1, column 1, cell (2,2): zero denominator in '1/0'"),
        ("cube", "rational", [_GOOD_ROWS, [[1, True], [3, 4]]],
         "section 2, row 1, column 2: expected an integer or 'p/q' string, got a boolean"),
        ("cube", "symbolic", [_GOOD_ROWS, [[1, 2], [3, "2x"]]],
         "section 2, row 2, column 2: cannot parse '2x' as a rational"),
    ],
)
def test_shape_and_cell_errors_have_exact_text(kind, ring, entries, message):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(json.dumps({"kind": kind, "ring": ring, "n": 2, "entries": entries}))
    assert str(excinfo.value) == message


def test_unknown_and_missing_fields_are_rejected():
    _rejects(
        '{"kind":"matrix","ring":"rational","n":2,"entries":[[1,2],[3,4]],"note":"x"}',
        "unknown document fields: note",
    )
    _rejects('{"kind":"matrix","ring":"rational","n":2}', "missing document fields: entries")
    _rejects('{"kind":"matrix","ring":"rational","entries":[[1]]}', "missing document fields: n")


def test_duplicate_keys_are_rejected():
    _rejects(
        '{"kind":"matrix","kind":"matrix","ring":"rational","n":1,"entries":[[1]]}',
        "duplicate field 'kind'",
    )


def test_malformed_json_reports_position():
    _rejects('{"kind": "matrix",', "line 1")
    _rejects("[]", "must be a JSON object")


def test_bad_scalars_carry_cell_context():
    cases = [
        ('"rational","n":2,"entries":[[1,2],[3,"x"]]',
         "row 2, column 2: cannot parse 'x' as a rational"),
        ('"rational","n":1,"entries":[["1/0"]]', "row 1, column 1: zero denominator in '1/0'"),
        ('"rational","n":1,"entries":[[1.5]]',
         "row 1, column 1: expected an integer or 'p/q' string, got 1.5"),
        ('"symbolic","n":1,"entries":[["2x"]]', "row 1, column 1: cannot parse '2x' as a rational"),
        ('"matrix2","n":1,"entries":[[[[1,0],[0]]]]',
         "row 1, column 1: expected a 2x2 array of rationals"),
        ('"rational","n":1,"entries":[[true]]',
         "row 1, column 1: expected an integer or 'p/q' string, got a boolean"),
    ]
    for text, message in cases:
        assert _refusal('{"kind":"matrix","ring":%s}' % text) == message


_RATIONAL_REFUSAL = "expected an integer or 'p/q' string, got"
_SYMBOLIC_REFUSAL = "expected an integer, 'p/q' string, or variable name, got"
_MATRIX2_REFUSAL = "expected a 2x2 array of rationals"


@pytest.mark.parametrize(
    "kind, ring, entries, message",
    [
        ("matrix", "rational", [[None]], f"row 1, column 1: {_RATIONAL_REFUSAL} None"),
        ("matrix", "rational", [[1.5]], f"row 1, column 1: {_RATIONAL_REFUSAL} 1.5"),
        ("matrix", "rational", [[False]], f"row 1, column 1: {_RATIONAL_REFUSAL} a boolean"),
        ("matrix", "rational", [[[1]]], f"row 1, column 1: {_RATIONAL_REFUSAL} [1]"),
        ("matrix", "rational", [["1/-2"]], "row 1, column 1: cannot parse '1/-2' as a rational"),
        ("matrix", "rational", [[" 1"]], "row 1, column 1: cannot parse ' 1' as a rational"),
        ("matrix", "symbolic", [[None]], f"row 1, column 1: {_SYMBOLIC_REFUSAL} None"),
        ("matrix", "symbolic", [[1.5]], f"row 1, column 1: {_SYMBOLIC_REFUSAL} 1.5"),
        ("matrix", "symbolic", [[True]], f"row 1, column 1: {_SYMBOLIC_REFUSAL} a boolean"),
        ("matrix", "symbolic", [["+x"]], "row 1, column 1: cannot parse '+x' as a rational"),
        ("matrix", "symbolic", [["2/0"]], "row 1, column 1: zero denominator in '2/0'"),
        ("matrix", "matrix2", [[None]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[1.5]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[True]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [["x"]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[{"a": 1}]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[[1, 2, 3, 4]]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[[[1, 2], [3, 4], [5, 6]]]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[[[1, 2], 3]]], f"row 1, column 1: {_MATRIX2_REFUSAL}"),
        ("matrix", "matrix2", [[[[1, None], [0, 1]]]],
         f"row 1, column 1, cell (1,2): {_RATIONAL_REFUSAL} None"),
        ("matrix", "matrix2", [[[[1, 0], [2.5, 1]]]],
         f"row 1, column 1, cell (2,1): {_RATIONAL_REFUSAL} 2.5"),
        ("matrix", "matrix2", [[[[True, 0], [0, 1]]]],
         f"row 1, column 1, cell (1,1): {_RATIONAL_REFUSAL} a boolean"),
        ("cube", "symbolic", [[["a", "b"], ["c", "d"]], [["e", "f"], [None, "h"]]],
         f"section 2, row 2, column 1: {_SYMBOLIC_REFUSAL} None"),
        ("cube", "symbolic", [[["a", "b"], ["c", "d"]], [["e", "f"], ["g", True]]],
         f"section 2, row 2, column 2: {_SYMBOLIC_REFUSAL} a boolean"),
        ("cube", "symbolic", [[["a", "b"], ["c", "d"]], [["e", "1/0"], ["g", "h"]]],
         "section 2, row 1, column 2: zero denominator in '1/0'"),
    ],
)
def test_each_refused_cell_has_its_exact_text(kind, ring, entries, message):
    # A symbolic cell's refusal names all it accepts, a boolean's too.
    payload = {"kind": kind, "ring": ring, "n": len(entries), "entries": entries}
    assert _refusal(json.dumps(payload)) == message


def _cells(obj):
    rows = obj.entries if isinstance(obj, SquareMatrix) else [
        row for section in obj.sections for row in section
    ]
    return [cell for row in rows for cell in row]


@pytest.mark.parametrize(
    "ring, kind, entries, expected",
    [
        ("rational", "matrix", [["+2/4", "007"], ["-3/1", "0/5"]],
         [Fraction(1, 2), Fraction(7), Fraction(-3), Fraction(0)]),
        ("rational", "cube", [[[1, "-0"], [2, 3]], [[4, "5/1"], ["6/2", "-7"]]],
         [Fraction(v) for v in (1, 0, 2, 3, 4, 5, 3, -7)]),
        ("symbolic", "matrix", [["+2/4", "007"], ["-3/1", "0/5"]],
         [Poly.constant(Fraction(1, 2)), Poly.constant(7), Poly.constant(-3), Poly()]),
        ("symbolic", "cube", [[["a"]]], [Poly.variable("a")]),
        ("matrix2", "matrix", [[[["+2/4", "007"], ["-3/1", "0/5"]]]],
         [MatrixElement([[Fraction(1, 2), 7], [-3, 0]])]),
    ],
)
def test_canonical_values_parse_to_fractions_in_tuples(ring, kind, entries, expected):
    payload = {"kind": kind, "ring": ring, "n": len(entries), "entries": entries}
    obj = parse_document(json.dumps(payload)).content
    nested = obj.entries if isinstance(obj, SquareMatrix) else obj.sections
    assert type(nested) is tuple and all(type(row) is tuple for row in nested)
    if isinstance(obj, CubeMatrix):
        assert all(type(row) is tuple for section in nested for row in section)
    cells = _cells(obj)
    assert cells == expected
    for cell in cells:
        if isinstance(cell, Poly):
            assert all(type(c) is Fraction for _, c in cell.terms())
        elif isinstance(cell, MatrixElement):
            assert type(cell.cells) is tuple and all(type(c) is Fraction for c in cell.cells)
        else:
            assert type(cell) is Fraction


def test_kind_ring_and_n_validation():
    _rejects('{"kind":"tensor","ring":"rational","n":1,"entries":[[1]]}', "kind")
    _rejects('{"kind":"matrix","ring":"real","n":1,"entries":[[1]]}', "ring")
    _rejects('{"kind":"matrix","ring":"rational","n":0,"entries":[]}', "positive integer")
    _rejects('{"kind":"matrix","ring":"rational","n":true,"entries":[[1]]}', "positive integer")
    _rejects(
        '{"kind":"matrix","ring":"rational","n":11,"entries":[]}',
        "exceeds the supported maximum",
    )
    _rejects('{"kind":"cube","ring":"matrix2","n":1,"entries":[[[[[1,0],[0,1]]]]]}', "commutative")


def test_document_exposes_its_ring():
    document = parse_document('{"kind":"matrix","ring":"rational","n":1,"entries":[[7]]}')
    assert document.content.ring.commutative
    assert document.content.n == 1 and isinstance(document.content, SquareMatrix)


@pytest.fixture
def digit_limit():
    """CPython's default int-from-str digit limit, restored afterwards."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter reads integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


_LONG = "1" * 5000


@pytest.mark.parametrize(
    "ring, cell, message",
    [
        ("rational", _LONG, "document: integer has more than 4300 digits"),
        ("rational", f'"{_LONG}/3"', "row 1, column 1: integer has more than 4300 digits"),
        ("symbolic", f'"3/{_LONG}"', "row 1, column 1: integer has more than 4300 digits"),
        ("matrix2", f'[[1,"{_LONG}"],[0,1]]',
         "row 1, column 1, cell (1,2): integer has more than 4300 digits"),
    ],
    ids=["json-number", "rational-string", "symbolic-denominator", "matrix2-cell"],
)
def test_an_integer_over_the_digit_limit_is_a_document_error(digit_limit, ring, cell, message):
    text = '{"kind":"matrix","ring":"%s","n":1,"entries":[[%s]]}' % (ring, cell)
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    assert str(excinfo.value) == message
