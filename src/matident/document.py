"""Strict JSON documents describing matrix and cube inputs.

A document is a single JSON object {"kind", "ring", "n", "entries"} and
nothing else: unknown or duplicate fields, shape mismatches, and malformed
scalars are rejected with positional context.  A cube is a matrix one level
deeper, so one walker checks the shape of both.  Parsed rationals are
canonical Fractions: "2/4" and "-3/1" read as 1/2 and -3.
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
    MATRIX2,
    RATIONAL,
    SYMBOLIC,
    VARIABLE_NAME_RE,
    MatrixElement,
    Poly,
    Ring,
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


def long_integer_message(where: str) -> str:
    """The refusal of an integer longer than CPython's int-from-str digit limit.

    json.loads reports bad syntax as a JSONDecodeError and Fraction only sees
    checked syntax, so this limit is the only other ValueError they raise.
    """
    return f"{where}: integer has more than {sys.get_int_max_str_digits()} digits"


def _rational_scalar(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected an integer or 'p/q' string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_TOKEN_RE.match(value):
            raise DocumentError(f"{where}: cannot parse {value!r} as a rational")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DocumentError(f"{where}: zero denominator in {value!r}") from None
        except ValueError:
            raise DocumentError(long_integer_message(where)) from None
    raise DocumentError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _symbolic_scalar(value: Any, where: str) -> Poly:
    if isinstance(value, str) and VARIABLE_NAME_RE.match(value):
        return Poly.variable(value)
    if isinstance(value, str) or isinstance(value, int):
        return Poly.constant(_rational_scalar(value, where))
    raise DocumentError(
        f"{where}: expected an integer, 'p/q' string, or variable name, got {value!r}"
    )


def _matrix2_scalar(value: Any, where: str) -> MatrixElement:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in value)
    ):
        raise DocumentError(f"{where}: expected a 2x2 array of rationals")
    return MatrixElement(
        [
            [_rational_scalar(value[i][j], f"{where}, cell ({i + 1},{j + 1})") for j in range(2)]
            for i in range(2)
        ]
    )


_SCALAR_PARSERS = {
    "rational": _rational_scalar,
    "symbolic": _symbolic_scalar,
    "matrix2": _matrix2_scalar,
}


def parse_scalar(ring_name: str, value: Any, where: str) -> Any:
    """Parse one entry in the named ring's document syntax."""
    return _SCALAR_PARSERS[ring_name](value, where)


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed input document: its ring's name and its content."""

    ring_name: str
    content: SquareMatrix | CubeMatrix


# A matrix walks the last two levels, a cube all three.
_LEVELS = ("section", "row", "column")


def _parse_entries(
    data: Any, parse: Callable, n: int, levels: tuple, position: str = "entries", where: str = ""
) -> list:
    """Check nested arrays of n items per level and parse the innermost cells.

    `position` names the array in shape errors ("entries section 1 row 2");
    `where` is the comma-joined prefix of each cell's context ("section 1, ").
    """
    item = levels[0]
    if not isinstance(data, list):
        of_items = "" if item == "column" else f" of {item}s"
        raise DocumentError(f"{position} must be an array{of_items}")
    if len(data) != n:
        raise DocumentError(f"{position} has {len(data)} {item}s, expected {n}")
    if len(levels) == 1:
        return [parse(value, f"{where}{item} {j}") for j, value in enumerate(data, start=1)]
    return [
        _parse_entries(
            value, parse, n, levels[1:], f"{position} {item} {k}", f"{where}{item} {k}, "
        )
        for k, value in enumerate(data, start=1)
    ]


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
        raise DocumentError(long_integer_message("document")) from None
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
    content = (SquareMatrix if kind == "matrix" else CubeMatrix)(RINGS[ring_name], entries)
    return MatrixDocument(ring_name=ring_name, content=content)
