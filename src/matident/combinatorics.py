"""Permutation, diagonal, and submatrix streams with parity bookkeeping.

All enumerators are pure generators in a fixed, documented order, so they are
restartable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator, Literal, Sequence

from .rings import Ring

Parity = Literal["even", "odd"]

EVEN: Parity = "even"
ODD: Parity = "odd"

# Full permutation streams above this size are unreasonable on a desk machine.
MAX_ENUMERATION_N = 10


def _check_parity(parity: str) -> None:
    if parity not in (EVEN, ODD):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix order must be at least 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"matrix order {n} exceeds the enumeration cap {MAX_ENUMERATION_N}")


def inversion_count(mapping: Sequence[int]) -> int:
    """Number of out-of-order pairs in a 1-based permutation image tuple."""
    count = 0
    for i in range(len(mapping)):
        for j in range(i + 1, len(mapping)):
            if mapping[i] > mapping[j]:
                count += 1
    return count


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} with the parity of its inversion count."""

    mapping: tuple[int, ...]
    sign: int

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def is_even(self) -> bool:
        return self.sign == 1

    @property
    def parity(self) -> Parity:
        return EVEN if self.sign == 1 else ODD

    def image(self, i: int) -> int:
        """The image of 1-based index i."""
        return self.mapping[i - 1]


@dataclass(frozen=True)
class SignedDiagonal:
    """Positions picked from a parent diagonal, one per chosen row.

    A full diagonal of an n x n matrix is the position set
    ((1, s(1)), ..., (n, s(n))) of a permutation s; a subdiagonal of length k
    keeps the positions in k chosen rows.  The parent permutation is retained,
    so the same position set reached from different parents stays distinct.
    """

    parent: Permutation
    positions: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.positions)

    @property
    def sign(self) -> int:
        return self.parent.sign

    @property
    def parity(self) -> Parity:
        return self.parent.parity


@dataclass(frozen=True)
class SubmatrixSelector:
    """A nonempty set of rows and a nonempty set of columns, both sorted."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def sign(self) -> int:
        """(-1) ** (row count + column count)."""
        return 1 if (len(self.rows) + len(self.cols)) % 2 == 0 else -1


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic order of the image tuple."""
    _check_n(n)
    for mapping in itertools.permutations(range(1, n + 1)):
        sign = 1 if inversion_count(mapping) % 2 == 0 else -1
        yield Permutation(mapping, sign)


def enumerate_diagonals(n: int, parity: Parity) -> Iterator[SignedDiagonal]:
    """Full diagonals of the given parity, ordered by parent permutation."""
    _check_parity(parity)
    for perm in enumerate_permutations(n):
        if perm.parity == parity:
            positions = tuple((i, perm.image(i)) for i in range(1, n + 1))
            yield SignedDiagonal(perm, positions)


def enumerate_subdiagonals(n: int, k: int, parity: Parity) -> Iterator[SignedDiagonal]:
    """Length-k subdiagonals of the parity-matching parent diagonals.

    For each parent (lexicographic order) every k-subset of rows is selected
    in lexicographic order.  k = n reproduces the full diagonals; k = 0 yields
    one empty subdiagonal per parent (element sum zero).
    """
    _check_parity(parity)
    _check_n(n)
    if k < 0 or k > n:
        raise ValueError(f"subdiagonal length must be in 0..{n}, got {k}")
    for diagonal in enumerate_diagonals(n, parity):
        for row_subset in itertools.combinations(range(n), k):
            positions = tuple(diagonal.positions[i] for i in row_subset)
            yield SignedDiagonal(diagonal.parent, positions)


def enumerate_submatrices(n: int) -> Iterator[SubmatrixSelector]:
    """All (nonempty rows) x (nonempty columns) selectors of an n x n matrix.

    Ordered by row-set size, then column-set size, then lexicographically
    within each size; there are (2**n - 1)**2 selectors in total.
    """
    _check_n(n)
    indices = range(1, n + 1)
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for rows in itertools.combinations(indices, r):
                for cols in itertools.combinations(indices, s):
                    yield SubmatrixSelector(rows, cols)


def symmetrize(ring: Ring, factors: Sequence[Any]) -> Any:
    """Average the products of the factors over all orderings.

    For m factors this is (1/m!) * sum over all orderings of their product;
    with one factor it is the factor itself, and with equal factors x it
    collapses to x**m in any ring.
    """
    items = tuple(factors)
    if not items:
        raise ValueError("symmetrize needs at least one factor")
    total = None
    for ordering in itertools.permutations(range(len(items))):
        term = ring.product(items[index] for index in ordering)
        total = term if total is None else ring.add(total, term)
    return ring.div_int(total, math.factorial(len(items)))

