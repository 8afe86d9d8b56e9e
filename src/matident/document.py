"""Strict JSON documents describing matrix and cube inputs.

A document is a single JSON object {"kind", "ring", "n", "entries"} and
nothing else: unknown or duplicate fields, shape mismatches, and malformed
scalars are rejected with positional context.  A cube is a matrix one level
deeper, so one walker checks the shape of both.  Parsed rationals are
canonical Fractions: "2/4" and "-3/1" read as 1/2 and -3.  This module reads
every scalar a user types: the cells, and through MatrixDocument.scalar the
CLI's shift flags, which take the document ring's cell syntax.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .combinatorics import MAX_ENUMERATION_N
from .matrices import CubeMatrix, SquareMatrix
from .rings import (
    _ONE,
    MATRIX2,
    RATIONAL,
    SYMBOLIC,
    VARIABLE_NAME_RE,
    MatrixElement,
    Poly,
    Ring,
    _matrix,
    _poly,
)

RINGS: dict[str, Ring] = {
    "rational": RATIONAL,
    "symbolic": SYMBOLIC,
    "matrix2": MATRIX2,
}

_RATIONAL_TOKEN_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")

_REQUIRED_FIELDS = ("kind", "ring", "n", "entries")


class DocumentError(ValueError):
    """Malformed matrix document."""


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict:
    mapping: dict[str, Any] = {}
    for key, value in pairs:
        if key in mapping:
            raise DocumentError(f"duplicate field {key!r} in document")
        mapping[key] = value
    return mapping


def _long_integer_message(where: str) -> str:
    """The refusal of an integer longer than CPython's int-from-str digit limit.

    json.loads reports bad syntax as a JSONDecodeError and Fraction only sees
    checked syntax, so this limit is the only other ValueError they raise.
    """
    return f"{where}: integer has more than {sys.get_int_max_str_digits()} digits"


# A scalar parser takes the value alone.  Its refusal is a DocumentError whose
# text is what follows the value's position: ": <reason>", or ", cell (i,j):
# <reason>" for a cell of a 2x2 element.  The caller that knows the position
# (_parse_entries, MatrixDocument.scalar) puts it in front, so no position
# text is built for a value that parses.


def _rational_scalar(value: Any) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_TOKEN_RE.match(value):
            raise DocumentError(f": cannot parse {value!r} as a rational")
        numerator, _, denominator = value.partition("/")
        try:
            numerator, denominator = int(numerator), int(denominator or 1)
        except ValueError:
            raise DocumentError(_long_integer_message("")) from None
        if not denominator:
            raise DocumentError(f": zero denominator in {value!r}")
        return Fraction(numerator, denominator)
    got = "a boolean" if isinstance(value, bool) else repr(value)
    raise DocumentError(f": expected an integer or 'p/q' string, got {got}")


def _symbolic_scalar(value: Any) -> Poly:
    if isinstance(value, str) and VARIABLE_NAME_RE.match(value):
        return _poly({((value, 1),): _ONE})
    if isinstance(value, str) or type(value) is int:
        return _poly({(): _rational_scalar(value)})
    got = "a boolean" if isinstance(value, bool) else repr(value)
    raise DocumentError(f": expected an integer, 'p/q' string, or variable name, got {got}")


def _matrix2_scalar(value: Any) -> MatrixElement:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in value)
    ):
        raise DocumentError(": expected a 2x2 array of rationals")
    cells = []
    try:
        for row in value:
            for cell in row:
                cells.append(_rational_scalar(cell))
    except DocumentError as exc:
        i, j = divmod(len(cells), 2)
        raise DocumentError(f", cell ({i + 1},{j + 1}){exc}") from None
    return _matrix(tuple(cells))


_SCALAR_PARSERS = {
    "rational": _rational_scalar,
    "symbolic": _symbolic_scalar,
    "matrix2": _matrix2_scalar,
}


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed input document: its ring's name and its content.  scalar
    reads one more value, such as a shift flag, in the cells' syntax."""

    ring_name: str
    content: SquareMatrix | CubeMatrix

    def scalar(self, token: str, where: str) -> Any:
        """Read token as one cell of this document: as JSON when it parses
        (a number, a 2x2 array), else as the bare text (a variable name or
        'p/q').  Every refusal is a DocumentError that starts with where."""
        text = token.strip()
        if not text:
            raise DocumentError(f"{where}: empty scalar")
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = text
        except RecursionError:
            raise DocumentError(f"{where}: nested too deeply") from None
        except ValueError:
            raise DocumentError(_long_integer_message(where)) from None
        try:
            return _SCALAR_PARSERS[self.ring_name](data)
        except DocumentError as exc:
            raise DocumentError(f"{where}{exc}") from None


# A matrix walks the last two levels, a cube all three.
_LEVELS = ("section", "row", "column")


def _parse_entries(
    data: Any, parse: Callable, n: int, levels: tuple, position: str = "entries", where: str = ""
) -> tuple:
    """Check nested arrays of n items per level and parse the innermost cells
    into nested tuples.

    `position` names the array in shape errors ("entries section 1 row 2");
    `where` is the comma-joined prefix of a refused cell's position
    ("section 1, "), which is completed only when a cell is refused.
    """
    item = levels[0]
    if not isinstance(data, list):
        of_items = "" if item == "column" else f" of {item}s"
        raise DocumentError(f"{position} must be an array{of_items}")
    if len(data) != n:
        raise DocumentError(f"{position} has {len(data)} {item}s, expected {n}")
    if len(levels) > 1:
        return tuple(
            _parse_entries(
                value, parse, n, levels[1:], f"{position} {item} {k}", f"{where}{item} {k}, "
            )
            for k, value in enumerate(data, start=1)
        )
    cells = []
    try:
        for value in data:
            cells.append(parse(value))
    except DocumentError as exc:
        raise DocumentError(f"{where}{item} {len(cells) + 1}{exc}") from None
    return tuple(cells)


def parse_document(text: str) -> MatrixDocument:
    """Parse and validate a document, rejecting anything off-contract."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except DocumentError:
        raise
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None
    except ValueError:
        raise DocumentError(_long_integer_message("document")) from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    unknown = sorted(set(data) - set(_REQUIRED_FIELDS))
    if unknown:
        raise DocumentError(f"unknown document fields: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_FIELDS) - set(data))
    if missing:
        raise DocumentError(f"missing document fields: {', '.join(missing)}")
    kind = data["kind"]
    if kind not in ("matrix", "cube"):
        raise DocumentError(f"kind must be 'matrix' or 'cube', got {kind!r}")
    ring_name = data["ring"]
    if ring_name not in RINGS:
        raise DocumentError(
            f"ring must be one of {', '.join(sorted(RINGS))}, got {ring_name!r}"
        )
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"n must be a positive integer, got {n!r}")
    if n > MAX_ENUMERATION_N:
        raise DocumentError(f"n={n} exceeds the supported maximum {MAX_ENUMERATION_N}")
    if kind == "cube" and not RINGS[ring_name].commutative:
        raise DocumentError("cube documents require a commutative ring")
    levels = _LEVELS[1:] if kind == "matrix" else _LEVELS
    entries = _parse_entries(data["entries"], _SCALAR_PARSERS[ring_name], n, levels)
    content = (SquareMatrix if kind == "matrix" else CubeMatrix)._of(RINGS[ring_name], entries)
    return MatrixDocument(ring_name=ring_name, content=content)
