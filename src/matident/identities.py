"""Matrix functions in two forms: definitional sums and power-sum identities.

Each function family pairs a brute-force definitional evaluator (the oracle)
with an algebraic identity that rebuilds the same value from sums of entries
raised to the n-th power.  Every evaluator is one signed sum over a stream
from `combinatorics`, folded by `Ring.signed_sum`.  The determinant and
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
from typing import Any, Sequence

from .combinatorics import (
    EVEN,
    ODD,
    enumerate_permutations,
    enumerate_subdiagonals,
    enumerate_submatrices,
    enumerate_subsets,
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
    rows = matrix.entries
    return ring.signed_sum(
        (EVEN, ring.product(row[col] for row, col in zip(rows, image)))
        for image, _ in enumerate_permutations(matrix.n)
    )


def permanent_identity(matrix: SquareMatrix, gammas: Sequence[Any] | None = None) -> Any:
    """Division-free permanent from signed products of shifted column sums.

    Over all column subsets S (the empty one included) this accumulates
    (-1)**|S| times the product over rows i of (gamma_i - sum of the row-i
    entries in the columns of S).  The value is independent of the free
    parameters gamma_i; omitting them uses all zeros.
    """
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    params = _checked_gammas(matrix, gammas)
    rows = tuple(zip(matrix.entries, params))
    return ring.signed_sum(
        (
            sign,
            ring.product([ring.sub(param, ring.sum(row[j] for j in cols)) for row, param in rows]),
        )
        for cols, sign in enumerate_subsets(matrix.n)
    )


def permanent_ryser(matrix: SquareMatrix) -> Any:
    """Inclusion-exclusion permanent from products of row sums over column subsets."""
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    rows = matrix.entries
    nonempty = itertools.islice(enumerate_subsets(matrix.n), 1, None)
    total = ring.signed_sum(
        (sign, ring.product(ring.sum(row[j] for j in cols) for row in rows))
        for cols, sign in nonempty
    )
    return ring.neg(total) if matrix.n % 2 else total


def determinant(matrix: SquareMatrix) -> Any:
    """Alternating sum of products over all diagonals (the definitional determinant)."""
    ring = matrix.ring
    _require_commutative(ring, "determinant")
    rows = matrix.entries
    return ring.signed_sum(
        (sign, ring.product(row[col] for row, col in zip(rows, image)))
        for image, sign in enumerate_permutations(matrix.n)
    )


def _signed_diagonal_bracket(matrix: SquareMatrix, k: int, exponent: int, gamma: Any) -> Any:
    """Sum of (gamma + element sum)**exponent over even length-k subdiagonals
    minus the same sum over odd ones."""
    ring = matrix.ring
    rows = matrix.entries
    return ring.signed_sum(
        (sign, ring.power(ring.add(gamma, ring.sum(rows[i][j] for i, j in positions)), exponent))
        for sign in (EVEN, ODD)
        for positions in enumerate_subdiagonals(matrix.n, k, sign)
    )


def _diagonal_residual(matrix: SquareMatrix, t: int, shift: Any) -> Any:
    """The signed bracket of t-th powers over full diagonals minus the one
    over length-(n-1) subdiagonals."""
    n = matrix.n
    return matrix.ring.sub(
        _signed_diagonal_bracket(matrix, n, t, shift),
        _signed_diagonal_bracket(matrix, n - 1, t, shift),
    )


def _all_integral(values) -> bool:
    return all(isinstance(v, Fraction) and v.denominator == 1 for v in values)


def determinant_identity(matrix: SquareMatrix, gamma: Any = None) -> Any:
    """Determinant from n-th powers of shifted diagonal sums.

    Takes the signed bracket over full diagonals minus the signed bracket
    over length-(n-1) subdiagonals and divides by n! once at the end.  The
    value is independent of the free parameter gamma (default zero).  Uses
    only addition, subtraction, n-th powers, and the final exact division.
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


def check_diagonal_power_identity(matrix: SquareMatrix, t: int) -> tuple[bool, Any]:
    """Whether the length-n and length-(n-1) signed t-th power sums agree.

    Valid for t in 1..n-1; returns (holds, residual).
    """
    if t < 1 or t > matrix.n - 1:
        raise ValueError(f"power must be in 1..{matrix.n - 1}, got {t}")
    residual = diagonal_power_residual(matrix, t)
    return matrix.ring.is_zero(residual), residual


def determinant_zero_criterion(matrix: SquareMatrix) -> bool:
    """True iff the determinant vanishes, decided by n-th power sums alone."""
    return matrix.ring.is_zero(diagonal_power_residual(matrix, matrix.n))


def symmetrize(ring: Ring, factors: Sequence[Any]) -> Any:
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
        (EVEN, symmetrize(ring, [row[col] for row, col in zip(rows, image)]))
        for image, _ in enumerate_permutations(matrix.n)
    )


def _signed_submatrix_power_sum(matrix: SquareMatrix, exponent: int, delta: Any) -> Any:
    """Sum of (-1)**(rows+cols) * (delta + submatrix element sum)**exponent
    over all nonempty row and column selections."""
    ring = matrix.ring
    entries = matrix.entries
    return ring.signed_sum(
        (
            (-1) ** (len(rows) + len(cols)),
            ring.power(
                ring.add(delta, ring.sum(entries[i][j] for i in rows for j in cols)), exponent
            ),
        )
        for rows, cols in enumerate_submatrices(matrix.n)
    )


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


def check_submatrix_power_identity(matrix: SquareMatrix, m: int) -> tuple[bool, Any]:
    """Whether the signed m-th power sum over submatrices vanishes.

    Valid for m in 1..n-1; returns (holds, residual).
    """
    if m < 1 or m > matrix.n - 1:
        raise ValueError(f"power must be in 1..{matrix.n - 1}, got {m}")
    residual = submatrix_power_residual(matrix, m)
    return matrix.ring.is_zero(residual), residual


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
    section i is assembled and its permanent weighted by the sign of s.
    """
    ring = cube.ring
    return ring.signed_sum(
        (sign, permanent(SquareMatrix(ring, _assembled_rows(cube, image))))
        for image, sign in enumerate_permutations(cube.n)
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
