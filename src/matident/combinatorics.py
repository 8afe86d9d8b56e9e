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
- laplace_plan(n, *signed) returns the row-by-row Laplace expansion of the
  permanent (False,), the determinant (True,) or the space determinant
  (False, True): one level per row, each a picker of the partial sums over
  column subsets that its steps extend, a picker of the entries they
  multiply by, and the number of steps per subset.
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
import math
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


def _axis_level(n: int, k: int, signed: bool) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The steps that lead to each k-subset of 0..n-1 from the (k-1)-subsets,
    one tuple per k-subset in lexicographic order.

    A step (source, col, sign) adds col to the source subset, which is the
    position of the k-subset without col among the (k-1)-subsets in
    lexicographic order.  signed gives a step the parity of the source's
    columns greater than col, each picked in an earlier row and so an
    inversion that the step adds; unsigned gives every step EVEN.
    """
    position = {subset: j for j, subset in enumerate(itertools.combinations(range(n), k - 1))}

    def step(subset: tuple[int, ...], p: int) -> tuple[int, int, int]:
        # The columns after place p are the ones greater than subset[p].
        sign = ODD if signed and (k - 1 - p) % 2 else EVEN
        return position[subset[:p] + subset[p + 1 :]], subset[p], sign

    return tuple(
        tuple(step(subset, p) for p in range(k)) for subset in itertools.combinations(range(n), k)
    )


def _getter(indices: list[int]) -> Picker:
    """itemgetter over indices that gives a tuple even for one index."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


@functools.cache
def laplace_plan(n: int, *signed: bool) -> tuple[tuple[Picker, Picker, int], ...]:
    """The row-by-row Laplace expansion of a sum over one or two permutation
    axes of 0..n-1, one level per row i in order.  Built on the first call
    for each n and axes, and kept.

    The sum is over permutations s_1, ..., s_a (a = len(signed)) of the
    product over rows i of entry[i][s_1(i)]...[s_a(i)], each axis signed
    (sgn(s)) or not: (False,) is the permanent of an n x n matrix, (True,)
    its determinant, and (False, True) the space determinant of an n x n x n
    cube, sum over s of sgn(s) times sum over sigma of the product over i of
    section i's (sigma(i), s(i)) entry.  The entries are flat in row-major
    (section-major) order, entry[i][c] at i*n + c (entry[i][r][c] at
    i*n*n + r*n + c), and then negated in the same order.

    After level i, partial[t] is the sum over the rows 0..i of the products
    whose columns on each axis form target t, one (i+1)-subset per axis;
    the targets are the product of the axes' subsets in lexicographic order.
    A level (sources, entries, steps) lists steps steps per target, target
    by target: sources(partial) picks each step's source partial sum, one
    column fewer on every axis, and entries(flat + negated flat) the entry
    of row i in the columns that it adds, negated for a step whose sign is
    -1 (the product of its axes' signs), so
    partial[t] = sum of source * entry over t's steps
    and the sum is partial[0] after level n - 1.  That is n * 2**(n-1) steps
    for one axis, where the diagonals are n!; for two, each step is a pair
    of one-axis steps (Minc, Permanents, 1978).
    """
    _check_n(n)
    size = n ** (len(signed) + 1)
    plan = []
    for i in range(n):
        width = math.comb(n, i)
        sources, entries = [], []
        axes = (_axis_level(n, i + 1, axis) for axis in signed)
        for target in itertools.product(*axes):
            for steps in itertools.product(*target):
                source, at, sign = 0, i, EVEN
                for axis_source, col, axis_sign in steps:
                    source, at, sign = source * width + axis_source, at * n + col, sign * axis_sign
                sources.append(source)
                entries.append(at if sign == EVEN else at + size)
        plan.append((_getter(sources), _getter(entries), (i + 1) ** len(signed)))
    return tuple(plan)


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
