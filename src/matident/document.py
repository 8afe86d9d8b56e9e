"""Strict JSON documents describing matrix and cube inputs.

A document is a single JSON object {"kind", "ring", "n", "entries"} and
nothing else: unknown or duplicate fields, shape mismatches, and malformed
scalars are rejected with positional context.  Parsing then printing yields a
canonical byte-identical form (integers stay bare, non-integral rationals
render as "p/q" with positive denominator).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

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


def _rational_to_json(value: Fraction) -> Any:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def scalar_to_json(ring_name: str, value: Any) -> Any:
    """Canonical JSON form of one entry (inverse of parse_scalar)."""
    if ring_name == "rational":
        return _rational_to_json(value)
    if ring_name == "symbolic":
        if value.is_constant():
            return _rational_to_json(value.constant_value())
        terms = value.terms()
        if len(terms) == 1:
            monomial, coeff = terms[0]
            if coeff == 1 and len(monomial) == 1 and monomial[0][1] == 1:
                return monomial[0][0]
        raise DocumentError(f"entry {value!r} is not representable as a document scalar")
    if ring_name == "matrix2":
        return [[_rational_to_json(entry) for entry in row] for row in value.rows]
    raise DocumentError(f"unknown ring {ring_name!r}")


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed input document: its kind, ring, size, and content."""

    kind: str
    ring_name: str
    n: int
    content: SquareMatrix | CubeMatrix

    def to_json(self) -> str:
        """Canonical single-line JSON rendering."""
        if self.kind == "matrix":
            entries = [
                [scalar_to_json(self.ring_name, entry) for entry in row]
                for row in self.content.entries
            ]
        else:
            entries = [
                [[scalar_to_json(self.ring_name, entry) for entry in row] for row in section]
                for section in self.content.sections
            ]
        payload = {
            "kind": self.kind,
            "ring": self.ring_name,
            "n": self.n,
            "entries": entries,
        }
        return json.dumps(payload)


def _parse_matrix_entries(data: Any, ring_name: str, n: int) -> SquareMatrix:
    if not isinstance(data, list):
        raise DocumentError("entries must be an array of rows")
    if len(data) != n:
        raise DocumentError(f"entries has {len(data)} rows, expected {n}")
    rows = []
    for i, row in enumerate(data, start=1):
        if not isinstance(row, list):
            raise DocumentError(f"entries row {i} must be an array")
        if len(row) != n:
            raise DocumentError(f"entries row {i} has {len(row)} columns, expected {n}")
        rows.append(
            [
                parse_scalar(ring_name, value, f"row {i}, column {j}")
                for j, value in enumerate(row, start=1)
            ]
        )
    return SquareMatrix(RINGS[ring_name], rows)


def _parse_cube_entries(data: Any, ring_name: str, n: int) -> CubeMatrix:
    if not isinstance(data, list):
        raise DocumentError("entries must be an array of sections")
    if len(data) != n:
        raise DocumentError(f"entries has {len(data)} sections, expected {n}")
    sections = []
    for k, section in enumerate(data, start=1):
        if not isinstance(section, list):
            raise DocumentError(f"entries section {k} must be an array of rows")
        if len(section) != n:
            raise DocumentError(f"entries section {k} has {len(section)} rows, expected {n}")
        rows = []
        for i, row in enumerate(section, start=1):
            if not isinstance(row, list):
                raise DocumentError(f"entries section {k} row {i} must be an array")
            if len(row) != n:
                raise DocumentError(
                    f"entries section {k} row {i} has {len(row)} columns, expected {n}"
                )
            rows.append(
                [
                    parse_scalar(ring_name, value, f"section {k}, row {i}, column {j}")
                    for j, value in enumerate(row, start=1)
                ]
            )
        sections.append(rows)
    return CubeMatrix(RINGS[ring_name], sections)


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
    if kind == "matrix":
        content: SquareMatrix | CubeMatrix = _parse_matrix_entries(data["entries"], ring_name, n)
    else:
        content = _parse_cube_entries(data["entries"], ring_name, n)
    return MatrixDocument(kind=kind, ring_name=ring_name, n=n, content=content)
