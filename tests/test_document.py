"""Strict document parsing, canonical parsed values, and error context."""

import json
import sys
from fractions import Fraction

import pytest

from matident.document import DocumentError, parse_document
from matident.matrices import CubeMatrix, SquareMatrix
from matident.rings import MatrixElement, Poly


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


def _rejects(text, fragment):
    with pytest.raises(DocumentError) as excinfo:
        parse_document(text)
    assert fragment in str(excinfo.value)


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
    _rejects(
        '{"kind":"matrix","ring":"rational","n":2,"entries":[[1,2],[3,"x"]]}',
        "row 2, column 2",
    )
    _rejects(
        '{"kind":"matrix","ring":"rational","n":1,"entries":[["1/0"]]}',
        "zero denominator",
    )
    _rejects(
        '{"kind":"matrix","ring":"rational","n":1,"entries":[[1.5]]}',
        "row 1, column 1",
    )
    _rejects(
        '{"kind":"matrix","ring":"symbolic","n":1,"entries":[["2x"]]}',
        "cannot parse",
    )
    _rejects(
        '{"kind":"matrix","ring":"matrix2","n":1,"entries":[[[[1,0],[0]]]]}',
        "expected a 2x2 array",
    )
    _rejects(
        '{"kind":"matrix","ring":"rational","n":1,"entries":[[true]]}',
        "boolean",
    )


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
