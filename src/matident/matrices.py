"""Square and cubic matrix containers over an explicit ring.

Entries are ring elements; the matrix carries the ring so evaluators can run
the same code over rationals, polynomials, or matrix-valued entries, and so
the benchmark layer can rebind a matrix to an instrumented ring without
copying entries.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .rings import Poly, Ring, SYMBOLIC


def _coerce_entry(ring: Ring, value: Any) -> Any:
    if ring.is_element(value):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return ring.from_int(value)
    raise ValueError(f"entry {value!r} is not an element of {ring.name}")


class SquareMatrix:
    """An n x n matrix of ring elements; entries[i][j] is row i, column j (0-based)."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring: Ring, rows: Iterable[Iterable[Any]]):
        entries = tuple(tuple(_coerce_entry(ring, value) for value in row) for row in rows)
        n = len(entries)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != n for row in entries):
            raise ValueError("matrix rows must all have length n")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("SquareMatrix instances are immutable")

    @classmethod
    def from_columns(cls, ring: Ring, columns: Sequence[Sequence[Any]]) -> "SquareMatrix":
        return cls(ring, zip(*columns))

    def columns(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.entries))

    def with_ring(self, ring: Ring) -> "SquareMatrix":
        """The same entries viewed through another ring (e.g. a counting wrapper)."""
        return SquareMatrix(ring, self.entries)

    def __repr__(self) -> str:
        return f"SquareMatrix(n={self.n}, ring={self.ring.name})"


class CubeMatrix:
    """An n x n x n array of commutative ring elements.

    The cube is stored as n square sections; sections[k][i][j] is row i,
    column j of section k (all indices 0-based).
    """

    __slots__ = ("ring", "n", "sections")

    def __init__(self, ring: Ring, sections: Iterable[Iterable[Iterable[Any]]]):
        if not ring.commutative:
            raise ValueError("cube matrices require a commutative ring")
        frozen = tuple(
            tuple(tuple(_coerce_entry(ring, value) for value in row) for row in section)
            for section in sections
        )
        n = len(frozen)
        if n == 0:
            raise ValueError("cube must have at least one section")
        for section in frozen:
            if len(section) != n or any(len(row) != n for row in section):
                raise ValueError("cube sections must all be n x n")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sections", frozen)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("CubeMatrix instances are immutable")

    def with_ring(self, ring: Ring) -> "CubeMatrix":
        return CubeMatrix(ring, self.sections)

    def __repr__(self) -> str:
        return f"CubeMatrix(n={self.n}, ring={self.ring.name})"


def symbolic_matrix(n: int) -> SquareMatrix:
    """The generic n x n matrix with distinct indeterminates a_i_j."""
    return SquareMatrix(
        SYMBOLIC,
        [[Poly.variable(f"a_{i}_{j}") for j in range(1, n + 1)] for i in range(1, n + 1)],
    )

def symbolic_cube(n: int) -> CubeMatrix:
    """The generic n x n x n cube with indeterminates a_i_j_k (k = section)."""
    return CubeMatrix(
        SYMBOLIC,
        [
            [[Poly.variable(f"a_{i}_{j}_{k}") for j in range(1, n + 1)] for i in range(1, n + 1)]
            for k in range(1, n + 1)
        ],
    )


def symbolic_gammas(n: int) -> tuple[Poly, ...]:
    """Free parameters g_1..g_n."""
    return tuple(Poly.variable(f"g_{i}") for i in range(1, n + 1))
