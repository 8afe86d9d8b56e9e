"""Permutation, diagonal, and submatrix streams as plain tuples.

Every index is 0-based and every stream comes in a fixed, documented order;
each enumerate_* function is a generator, so it is restartable:

- enumerate_permutations(n) yields (image, sign): image[i] is the column
  picked in row i, and sign is EVEN (1) or ODD (-1).
- diagonals(n) returns (even, odd), the same permutations as C-level
  getters, split by sign and each half in that order: pick(flat) is the
  tuple of entries that a diagonal picks from a matrix's row-major entries
  flat.  For n up to TABLE_MAX_N both halves are tuples built once per
  process; above it they are one-shot iterators.
- enumerate_subdiagonals(n, k, sign) yields a tuple of k (row, col)
  positions.
- enumerate_submatrices(n) yields (rows, cols), two sorted nonempty tuples.
  No evaluator walks it or enumerate_subdiagonals any more; both stay for
  perfbench/micro.py's stream drains.
- enumerate_transpositions(n) yields the left index i of each adjacent swap
  (i, i+1) that walks all n! arrangements from the identity in
  Steinhaus-Johnson-Trotter order: the largest value sweeps across, and
  each turn takes one swap of the same walk on the smaller values.
- enumerate_gray_steps(n) yields (column, entering) for each step of the
  reflected Gray code, which walks all 2**n column subsets from the empty one.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, itemgetter, methodcaller
from typing import Callable, Iterable, Iterator

EVEN = 1
ODD = -1

# Full permutation streams above this size are unreasonable on a desk machine.
MAX_ENUMERATION_N = 10

# diagonals(n) keeps a table for n up to this size: the tables for n = 1..7
# take 0.99 MB together (tracemalloc), where one at n = 8 would take 7.4 MB.
TABLE_MAX_N = 7

# A diagonal's getter: the tuple of its entries from a row-major entry tuple.
Picker = Callable[[tuple], tuple]


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


def _blocks(n: int, m: int) -> tuple[Iterator[Picker], Iterator[Picker]]:
    """The pickers of the even and of the odd permutations of 0..n-1, each in
    lexicographic order, from the table of size m < n.

    The order comes in blocks, one per choice of the columns that the first
    n - m rows pick, in lexicographic order (itertools.permutations with
    r = n - m).  A block lists the permutations of the m columns left, which
    are those of 0..m-1 relabelled in order, so the last m rows take the
    table's positions read through the minor of those rows and columns.
    The first rows' picks are the first Lehmer digits, so the table's halves
    change sides when those digits have an odd sum.  Every loop per
    permutation runs in C.
    """
    halves = _table(m)
    sides: tuple[list, list] = ([], [])
    for prefix in itertools.permutations(range(n), n - m):
        others = [col for col in range(n) if col not in prefix]
        minor = tuple(i * n + col for i in range(n - m, n) for col in others)
        head = itertools.repeat(tuple(i * n + col for i, col in enumerate(prefix)))
        digits = sum(col - sum(map(col.__gt__, prefix[:i])) for i, col in enumerate(prefix))
        # Bound now: a generator expression would read minor late, when the
        # block is walked and the loop has moved on.
        read = methodcaller("__call__", minor)
        for side, pickers in zip(sides, halves[::-1] if digits % 2 else halves):
            side.append(map(add, head, map(read, pickers)))
    chain = itertools.chain.from_iterable
    return tuple(itertools.starmap(itemgetter, chain(side)) for side in sides)


@functools.cache
def _table(n: int) -> tuple[tuple[Picker, ...], tuple[Picker, ...]]:
    """diagonals(n) for n up to TABLE_MAX_N, each built from the table below."""
    if n == 1:
        return (itemgetter(slice(0, 1)),), ()
    return tuple(map(tuple, _blocks(n, n - 1)))


def diagonals(n: int) -> tuple[Iterable[Picker], Iterable[Picker]]:
    """The diagonal pickers of the even and of the odd permutations of
    enumerate_permutations(n), each half in its order.

    pick(flat) is the tuple of the entries that a permutation picks from a
    matrix's row-major entries flat, row i giving flat[i*n + image[i]] (a
    slice at n = 1, so the pick is a tuple there too).  The even half holds
    ceil(n!/2) pickers and the odd one floor(n!/2).  Up to TABLE_MAX_N both
    are tuples, built on the first call and returned by every later one.
    Above it they are fresh one-shot iterators, built block by block from
    the table at TABLE_MAX_N (see _blocks), so a consumer that walks the
    diagonals twice calls diagonals twice.
    """
    _check_n(n)
    if n <= TABLE_MAX_N:
        return _table(n)
    return _blocks(n, TABLE_MAX_N)


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


def enumerate_transpositions(n: int) -> Iterator[int]:
    """The n! - 1 adjacent swaps that walk all arrangements of 0..n-1 once.

    Steinhaus-Johnson-Trotter order (Johnson 1963; Trotter 1962), written as
    plain changes by recursive sweeps (Knuth, TAOCP 4A, 7.2.1.2): the
    largest value sweeps across the n positions, leftward first, and turns
    at either end.  Between two sweeps comes the next swap of the walk on
    the n - 1 other values, shifted right by one while the largest value
    rests at the left end.  Swapping positions i and i+1 of an arrangement
    flips its sign, so a consumer replaying the swaps from the identity
    knows every sign without computing one.  Yields i for each swap of
    positions (i, i+1).
    """
    _check_n(n)
    if n == 1:
        return
    inner = enumerate_transpositions(n - 1)
    leftward, rightward = range(n - 2, -1, -1), range(n - 1)
    for shift in itertools.cycle((1, 0)):
        yield from leftward if shift else rightward
        i = next(inner, None)
        if i is None:
            return
        yield i + shift


def enumerate_gray_steps(n: int) -> Iterator[tuple[int, bool]]:
    """The 2**n - 1 steps of the reflected Gray code on n columns.

    Step k (from 1) toggles column j, the number of trailing zero bits of k;
    the column enters the subset when bit j + 1 of k is clear and leaves it
    otherwise (Nijenhuis and Wilf, Combinatorial Algorithms, 1978).  Starting
    from the empty subset, every subset is reached exactly once, and the
    subset size changes parity at every step.  The stream has only 2**n
    items, so no size cap applies.
    """
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        yield j, (k >> (j + 1)) & 1 == 0
