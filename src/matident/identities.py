"""Matrix functions in two forms: definitional sums and power-sum identities.

Each function family pairs a brute-force definitional evaluator (the oracle)
with an algebraic identity that rebuilds the same value from sums of entries
raised to the n-th power.  Every evaluator is one signed sum over a stream
from `combinatorics`, folded by `Ring.signed_sum`, or by `Ring.diagonal_sum`
where each term is the product of one diagonal's entries.  The determinant and
symmetrized-permanent identities use only addition, subtraction, n-th powers
and one exact division by n!; the permanent and space-determinant identities
multiply row sums instead.  Their agreement with the definitional forms over
every supported ring is the package's central claim and is what the verify
suites check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import getitem
from typing import Any, Callable, Iterable, Iterator, Sequence

from .combinatorics import (
    EVEN,
    enumerate_gray_steps,
    enumerate_permutations,
    enumerate_transpositions,
)
from .matrices import CubeMatrix, SquareMatrix
from .rings import Ring


def _require_commutative(ring: Ring, what: str) -> None:
    if not ring.commutative:
        raise ValueError(f"{what} requires a commutative ring, got {ring.name}")


def _checked_gammas(matrix: SquareMatrix, gammas: Sequence[Any] | None) -> tuple:
    ring = matrix.ring
    if gammas is None:
        return tuple(ring.zero() for _ in range(matrix.n))
    values = tuple(gammas)
    if len(values) != matrix.n:
        raise ValueError(f"expected {matrix.n} free parameters, got {len(values)}")
    for value in values:
        if not ring.is_element(value):
            raise ValueError(f"free parameter {value!r} is not an element of {ring.name}")
    return values


def _checked_param(matrix: SquareMatrix | CubeMatrix, value: Any) -> Any:
    ring = matrix.ring
    if value is None:
        return ring.zero()
    if not ring.is_element(value):
        raise ValueError(f"free parameter {value!r} is not an element of {ring.name}")
    return value


def permanent(matrix: SquareMatrix) -> Any:
    """Sum of products over all diagonals (the definitional permanent)."""
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    pairs = ((image, EVEN) for image, _ in enumerate_permutations(matrix.n))
    return ring.diagonal_sum(matrix.entries, pairs)


def _gray_sums(
    start: Sequence[Any], vectors: Sequence[Sequence[Any]], enter: Callable, leave: Callable
) -> Iterator[tuple[int, tuple]]:
    """Yield (sign, the tuple start +- the vectors in S) for every vector subset S.

    The subsets come in Gray-code order from the empty one, so each step
    moves one vector in or out of S and changes every entry once: enter(value,
    entry) when the vector joins S, leave(value, entry) when it goes.  The
    sign is (-1)**|S|.
    """
    current = tuple(start)
    sign = EVEN
    yield sign, current
    for j, entering in enumerate_gray_steps(len(vectors)):
        current = tuple(map(enter if entering else leave, current, vectors[j]))
        sign = -sign
        yield sign, current


def permanent_identity(matrix: SquareMatrix, gammas: Sequence[Any] | None = None) -> Any:
    """Division-free permanent from signed products of shifted column sums.

    Over all column subsets S (the empty one included) this accumulates
    (-1)**|S| times the product over rows i of (gamma_i - sum of the row-i
    entries in the columns of S).  The shifted vectors come from the Gray-code
    walk `_gray_sums`, one entry change per row and step.  The value is
    independent of the free parameters gamma_i; omitting them uses all zeros.
    """
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    params = _checked_gammas(matrix, gammas)
    walk = _gray_sums(params, matrix.columns(), ring.sub, ring.add)
    return ring.signed_sum((sign, ring.product(shifted)) for sign, shifted in walk)


def permanent_ryser(matrix: SquareMatrix) -> Any:
    """Inclusion-exclusion permanent from products of row sums over column subsets.

    The row sums over each nonempty column subset come from the Gray-code
    walk `_gray_sums`, one entry change per row and step.
    """
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    walk = _gray_sums([ring.zero()] * matrix.n, matrix.columns(), ring.add, ring.sub)
    nonempty = itertools.islice(walk, 1, None)
    total = ring.signed_sum((sign, ring.product(sums)) for sign, sums in nonempty)
    return ring.neg(total) if matrix.n % 2 else total


def determinant(matrix: SquareMatrix) -> Any:
    """Alternating sum of products over all diagonals (the definitional determinant)."""
    ring = matrix.ring
    _require_commutative(ring, "determinant")
    return ring.diagonal_sum(matrix.entries, enumerate_permutations(matrix.n))


def _diagonal_residual(matrix: SquareMatrix, t: int, shift: Any) -> Any:
    """Signed sum of t-th powers of shifted diagonal sums over full diagonals,
    minus the same over length-(n-1) subdiagonals.

    One walk over the diagonals in transposition order: picked[i] is the
    entry the current diagonal takes in row i and full is shift plus their
    sum.  A swap of rows i and i+1 flips the sign and changes full by four
    entries; the subdiagonal that leaves out row r sums to full - picked[r],
    so every subdiagonal is reached from its one parent.
    """
    ring = matrix.ring
    add, sub, power = ring.add, ring.sub, ring.power
    rows = matrix.entries
    n = matrix.n

    def terms():
        image = list(range(n))
        picked = [row[i] for i, row in enumerate(rows)]
        full = add(shift, ring.sum(picked))
        sign = EVEN
        swaps = enumerate_transpositions(n)
        while True:
            yield sign, power(full, t)
            for entry in picked:
                yield -sign, power(sub(full, entry), t)
            i = next(swaps, None)
            if i is None:
                return
            image[i], image[i + 1] = image[i + 1], image[i]
            left, right = rows[i][image[i]], rows[i + 1][image[i + 1]]
            full = add(add(sub(sub(full, picked[i]), picked[i + 1]), left), right)
            picked[i], picked[i + 1] = left, right
            sign = -sign

    return ring.signed_sum(terms())


def _all_integral(values) -> bool:
    return all(isinstance(v, Fraction) and v.denominator == 1 for v in values)


def determinant_identity(matrix: SquareMatrix, gamma: Any = None) -> Any:
    """Determinant from n-th powers of shifted diagonal sums.

    Takes the signed sum of (gamma + diagonal sum)**n over full diagonals
    minus the same over length-(n-1) subdiagonals and divides by n! once at
    the end.  The diagonals come in one walk of adjacent transpositions
    (Steinhaus-Johnson-Trotter order), which carries the sign and updates
    the diagonal sum by four entries per step; each subdiagonal sum is its
    parent's minus one entry.  The value is independent of the free
    parameter gamma (default zero).  Uses only addition, subtraction, n-th
    powers, and the final exact division.
    """
    ring = matrix.ring
    _require_commutative(ring, "determinant")
    n = matrix.n
    shift = _checked_param(matrix, gamma)
    value = ring.div_int(_diagonal_residual(matrix, n, shift), math.factorial(n))
    # The division by n! is exact for integer inputs; anything else is a bug.
    # Deciding from the values keeps the guard on under any wrapper ring.
    inputs = [entry for row in matrix.entries for entry in row] + [shift]
    if _all_integral(inputs) and not _all_integral((value,)):
        raise ArithmeticError(f"integer determinant came out non-integral: {value}")
    return value


def diagonal_power_residual(matrix: SquareMatrix, t: int) -> Any:
    """Signed sum of t-th powers of diagonal sums, full length minus length n-1.

    Zero for every t in 1..n-1; at t = n it equals n! times the determinant.
    """
    ring = matrix.ring
    _require_commutative(ring, "the diagonal power-sum identity")
    if t < 1 or t > matrix.n:
        raise ValueError(f"power must be in 1..{matrix.n}, got {t}")
    return _diagonal_residual(matrix, t, ring.zero())


def determinant_zero_criterion(matrix: SquareMatrix) -> bool:
    """True iff the determinant vanishes, decided by n-th power sums alone."""
    return matrix.ring.is_zero(diagonal_power_residual(matrix, matrix.n))


def symmetrize(ring: Ring, factors: Iterable[Any]) -> Any:
    """Average the products of the factors over all orderings.

    For m factors this is (1/m!) * sum over all orderings of their product;
    with one factor it is the factor itself, and with equal factors x it
    collapses to x**m in any ring.
    """
    items = tuple(factors)
    if not items:
        raise ValueError("symmetrize needs at least one factor")
    total = ring.sum(ring.product(ordering) for ordering in itertools.permutations(items))
    return ring.div_int(total, math.factorial(len(items)))


def symmetrized_permanent(matrix: SquareMatrix) -> Any:
    """Sum over diagonals of the symmetrized product of their entries.

    Defined over noncommutative rings; for commuting entries it equals the
    permanent.
    """
    ring = matrix.ring
    rows = matrix.entries
    return ring.signed_sum(
        (EVEN, symmetrize(ring, map(getitem, rows, image)))
        for image, _ in enumerate_permutations(matrix.n)
    )


def _signed_submatrix_power_sum(matrix: SquareMatrix, exponent: int, delta: Any) -> Any:
    """Sum of (-1)**(rows+cols) * (delta + submatrix element sum)**exponent
    over all nonempty row and column selections.

    Both selections come in Gray-code order.  The row walk is `_gray_sums`
    over the rows, which keeps the column sums of the chosen rows, n adds
    per step.  For each row subset the column walk moves the shifted sum,
    which starts at delta, by one column sum per step.  The sign flips at
    every step of either walk.
    """
    ring = matrix.ring
    add, sub, power = ring.add, ring.sub, ring.power
    column_steps = list(enumerate_gray_steps(matrix.n))
    row_walk = _gray_sums([ring.zero()] * matrix.n, matrix.entries, add, sub)

    def terms():
        for row_sign, sums in itertools.islice(row_walk, 1, None):
            shifted, sign = delta, row_sign
            for j, column_entering in column_steps:
                shifted = add(shifted, sums[j]) if column_entering else sub(shifted, sums[j])
                sign = -sign
                yield sign, power(shifted, exponent)

    return ring.signed_sum(terms())


def symmetrized_permanent_identity(matrix: SquareMatrix, delta: Any = None) -> Any:
    """Symmetrized permanent from n-th powers of shifted submatrix sums.

    Accumulates (-1)**(r+s) (delta + su(B))**n over all submatrix selections
    B with r rows and s columns; the expansion leaves exactly one spurious
    pure delta**n word behind, which is subtracted before the division by n!
    so the value is independent of the free parameter delta (default zero).
    Works over noncommutative rings; uses no ring products outside the
    n-th powers.
    """
    ring = matrix.ring
    n = matrix.n
    shift = _checked_param(matrix, delta)
    total = _signed_submatrix_power_sum(matrix, n, shift)
    total = ring.sub(total, ring.power(shift, n))
    return ring.div_int(total, math.factorial(n))


def submatrix_power_residual(matrix: SquareMatrix, m: int) -> Any:
    """Signed sum of m-th powers of submatrix element sums.

    Zero for every m in 1..n-1; at m = n it equals n! times the symmetrized
    permanent.
    """
    n = matrix.n
    if m < 1 or m > n:
        raise ValueError(f"power must be in 1..{n}, got {m}")
    return _signed_submatrix_power_sum(matrix, m, matrix.ring.zero())


def symmetrized_permanent_zero_criterion(matrix: SquareMatrix) -> bool:
    """True iff the symmetrized permanent vanishes, via n-th power sums alone."""
    return matrix.ring.is_zero(submatrix_power_residual(matrix, matrix.n))


def _assembled_rows(cube: CubeMatrix, image: tuple[int, ...]) -> list[list]:
    """Rows of the matrix whose column i is column image[i] of section i."""
    sections = cube.sections
    return [[sections[i][t][col] for i, col in enumerate(image)] for t in range(cube.n)]


def space_determinant(cube: CubeMatrix) -> Any:
    """Alternating sum over permutations of permanents of assembled sections.

    For each permutation s the matrix whose i-th column is column s(i) of
    section i is assembled and its permanent weighted by the sign of s.  The
    n! permutations are drawn once and serve every inner permanent too.
    """
    ring = cube.ring
    permutations = list(enumerate_permutations(cube.n))
    unsigned = [(image, EVEN) for image, _ in permutations]
    return ring.signed_sum(
        (sign, ring.diagonal_sum(_assembled_rows(cube, image), unsigned))
        for image, sign in permutations
    )


def space_determinant_identity(cube: CubeMatrix) -> Any:
    """Space determinant from products of cross-section row sums.

    For each permutation s, row t of the assembled selection has the sum
    S_t = sum over i of the (t, s(i)) entry of section i.  The identity takes
    the alternating sum over s of prod_t S_t, minus the alternating sum over
    s of sum_r prod_t (S_t - the r-th summand), with no trailing division.
    """
    ring = cube.ring
    n = cube.n

    def terms():
        for image, sign in enumerate_permutations(n):
            rows = _assembled_rows(cube, image)
            row_sums = [ring.sum(row) for row in rows]
            yield sign, ring.product(row_sums)
            # The depleted-product bracket enters with the opposite sign.
            for r in range(n):
                yield -sign, ring.product(ring.sub(row_sums[t], rows[t][r]) for t in range(n))

    return ring.signed_sum(terms())
