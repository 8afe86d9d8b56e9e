"""Permutation, diagonal, and submatrix streams as plain tuples.

Every index is 0-based and every stream is a generator in a fixed,
documented order, so it is restartable:

- enumerate_permutations(n) yields (image, sign): image[i] is the column
  picked in row i, and sign is EVEN (1) or ODD (-1).
- enumerate_subdiagonals(n, k, sign) yields a tuple of k (row, col)
  positions.
- enumerate_submatrices(n) yields (rows, cols), two sorted nonempty tuples.
- enumerate_subsets(n) yields (cols, sign): a sorted tuple of columns and
  (-1)**len(cols).
"""

from __future__ import annotations

import itertools
from typing import Iterator

EVEN = 1
ODD = -1

# Full permutation streams above this size are unreasonable on a desk machine.
MAX_ENUMERATION_N = 10


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"matrix order must be at least 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"matrix order {n} exceeds the enumeration cap {MAX_ENUMERATION_N}")


def enumerate_permutations(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All permutations of 0..n-1 with their signs, in lexicographic order.

    The images come from itertools.permutations, zipped with their Lehmer
    codes (r_0, ..., r_{n-1}): row i picks the r_i-th smallest column not used
    yet, and that pick adds r_i inversions, so the sign is
    (-1)**(r_0 + ... + r_{n-1}).  The codes are a mixed-radix counter, so the
    k-th code in lexicographic order belongs to the k-th image in
    lexicographic order, and itertools.product counts them in step.
    """
    _check_n(n)
    codes = itertools.product(*(range(n - i) for i in range(n)))
    for image, code in zip(itertools.permutations(range(n)), codes):
        yield image, ODD if sum(code) % 2 else EVEN


def enumerate_subdiagonals(n: int, k: int, sign: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Length-k subdiagonals of the full diagonals with the given sign.

    For each parent permutation (lexicographic order) every k-subset of rows
    is selected in lexicographic order, so the same positions reached from
    different parents come out once per parent.  k = n gives the full
    diagonals; k = 0 yields one empty subdiagonal per parent.
    """
    if sign not in (EVEN, ODD):
        raise ValueError(f"sign must be {EVEN} or {ODD}, got {sign!r}")
    _check_n(n)
    if k < 0 or k > n:
        raise ValueError(f"subdiagonal length must be in 0..{n}, got {k}")
    row_subsets = tuple(itertools.combinations(range(n), k))
    for image, parent_sign in enumerate_permutations(n):
        if parent_sign == sign:
            for rows in row_subsets:
                yield tuple((i, image[i]) for i in rows)


def enumerate_submatrices(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (nonempty rows, nonempty columns) selections of an n x n matrix.

    Ordered by row-set size, then column-set size, then lexicographically
    within each size; there are (2**n - 1)**2 selections in total.
    """
    _check_n(n)
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for rows in itertools.combinations(range(n), r):
                for cols in itertools.combinations(range(n), s):
                    yield rows, cols


def enumerate_subsets(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All 2**n subsets of 0..n-1 with the sign (-1)**size, in binary-counter order.

    Subset number m holds the columns j whose bit j is set in m, so the empty
    subset comes first.  The stream has only 2**n items, so no size cap
    applies.
    """
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    for mask in range(1 << n):
        # A list comprehension: on CPython 3.11 tuple() over a generator
        # expression here leaves garbage that only the cycle collector frees.
        cols = tuple([j for j in range(n) if mask >> j & 1])
        yield cols, ODD if len(cols) % 2 else EVEN
