"""Matrix functions in two forms: definitional sums and power-sum identities.

Each function family pairs a brute-force definitional evaluator (the oracle)
with an algebraic identity that rebuilds the same value from sums of entries
raised to the n-th power.  Every evaluator is one signed sum over a stream
from `combinatorics`, folded by `Ring.signed_sum`, by `Ring.power_sum` when
each term is a power, by `Ring.product_sum` when each term is a product of
row sums, or by `Ring.diagonal_sum` when each term is one diagonal's
product, picked from the matrix's row-major entries by the even and the odd
halves of `combinatorics.diagonals`.  The space determinants pick from the
sections' columns with the same tables, which gives each assembled matrix's
columns in one C-level call.  The determinant and symmetrized-permanent
identities use only addition, subtraction, n-th powers and one exact
division by n!; the permanent and space-determinant identities multiply row
sums instead.  Their agreement with the definitional forms over every
supported ring is the package's central claim and is what the verify suites
check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .combinatorics import (
    EVEN,
    ODD,
    diagonals,
    enumerate_gray_steps,
    enumerate_transpositions,
)
from .matrices import CubeMatrix, SquareMatrix
from .rings import Ring


def _require_commutative(ring: Ring, what: str) -> None:
    if not ring.commutative:
        raise ValueError(f"{what} requires a commutative ring, got {ring.name}")


def _checked_shift(ring: Ring, value: Any) -> Any:
    if not ring.is_element(value):
        raise ValueError(f"free parameter {value!r} is not an element of {ring.name}")
    return value


def _checked_gammas(matrix: SquareMatrix, gammas: Sequence[Any] | None) -> tuple:
    ring = matrix.ring
    if gammas is None:
        return tuple(ring.zero() for _ in range(matrix.n))
    values = tuple(gammas)
    if len(values) != matrix.n:
        raise ValueError(f"expected {matrix.n} free parameters, got {len(values)}")
    return tuple(_checked_shift(ring, value) for value in values)


def _checked_param(matrix: SquareMatrix | CubeMatrix, value: Any) -> Any:
    ring = matrix.ring
    return ring.zero() if value is None else _checked_shift(ring, value)


def _flat(rows: Iterable[Iterable[Any]]) -> tuple:
    """The entries of rows in row-major order, as diagonals' pickers read them."""
    return tuple(itertools.chain.from_iterable(rows))


def _flat_permanent(ring: Ring, flat: tuple, n: int) -> Any:
    """The permanent of the n x n matrix whose row-major entries are flat:
    every diagonal is added, the odd ones too."""
    return ring.diagonal_sum(flat, itertools.chain(*diagonals(n)), ())


def permanent(matrix: SquareMatrix) -> Any:
    """Sum of products over all diagonals (the definitional permanent)."""
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    return _flat_permanent(ring, _flat(matrix.entries), matrix.n)


def _gray_sums(
    start: Sequence[Any], vectors: Sequence[Sequence[Any]], enter: Callable, leave: Callable
) -> Iterator[tuple]:
    """Yield the tuple start +- the vectors in S for every vector subset S.

    The subsets come in Gray-code order from the empty one, so each step
    moves one vector in or out of S and changes every entry once: enter(value,
    entry) when the vector joins S, leave(value, entry) when it goes.  The
    walk yields the tuples alone: |S| changes parity at every step, so the
    sign (-1)**|S| alternates from +1 and each caller takes it from a cycle.
    """
    current = tuple(start)
    yield current
    for j, entering in enumerate_gray_steps(len(vectors)):
        current = tuple(map(enter if entering else leave, current, vectors[j]))
        yield current


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
    # The sign (-1)**|S| flips at every step, from +1 at the empty subset.
    return ring.product_sum(itertools.cycle((EVEN, ODD)), walk)


def permanent_ryser(matrix: SquareMatrix) -> Any:
    """Inclusion-exclusion permanent from products of row sums over column subsets.

    The row sums over each nonempty column subset come from the Gray-code
    walk `_gray_sums`, one entry change per row and step.
    """
    ring = matrix.ring
    _require_commutative(ring, "permanent")
    walk = _gray_sums([ring.zero()] * matrix.n, matrix.columns(), ring.add, ring.sub)
    nonempty = itertools.islice(walk, 1, None)
    total = ring.product_sum(itertools.cycle((ODD, EVEN)), nonempty)
    return ring.neg(total) if matrix.n % 2 else total


def determinant(matrix: SquareMatrix) -> Any:
    """Alternating sum of products over all diagonals (the definitional determinant)."""
    ring = matrix.ring
    _require_commutative(ring, "determinant")
    return ring.diagonal_sum(_flat(matrix.entries), *diagonals(matrix.n))


def _diagonal_residual(matrix: SquareMatrix, t: int, shift: Any) -> Any:
    """Signed sum of t-th powers of shifted diagonal sums over full diagonals,
    minus the same over length-(n-1) subdiagonals.

    One walk over the diagonals in transposition order: picked[i] is the
    entry the current diagonal takes in row i and full is shift plus their
    sum.  A swap of rows i and i+1 flips the sign and changes full by four
    entries; the subdiagonal that leaves out row r sums to full - picked[r],
    so every subdiagonal is reached from its one parent.  The walk yields
    the sums alone: each diagonal's comes with its sign and its n
    subdiagonals' with the opposite one, so the signs repeat with period
    2(n + 1).
    """
    ring = matrix.ring
    add, sub = ring.add, ring.sub
    rows = matrix.entries
    n = matrix.n

    def sums():
        image = list(range(n))
        picked = [row[i] for i, row in enumerate(rows)]
        full = add(shift, ring.sum(picked))
        swaps = enumerate_transpositions(n)
        while True:
            yield full
            for entry in picked:
                yield sub(full, entry)
            i = next(swaps, None)
            if i is None:
                return
            image[i], image[i + 1] = image[i + 1], image[i]
            left, right = rows[i][image[i]], rows[i + 1][image[i + 1]]
            full = add(add(sub(sub(full, picked[i]), picked[i + 1]), left), right)
            picked[i], picked[i + 1] = left, right

    signs = itertools.cycle((EVEN, *[ODD] * n, ODD, *[EVEN] * n))
    return ring.power_sum(signs, sums(), t)


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
    # The guard sees only Fraction inputs, so it is inert on a lifted request,
    # whose inputs are ints; there _IntegerRing._div_exact refuses a remainder.
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
    flat = _flat(matrix.entries)
    pickers = itertools.chain(*diagonals(matrix.n))
    return ring.signed_sum((EVEN, symmetrize(ring, pick(flat))) for pick in pickers)


def _signed_submatrix_power_sum(matrix: SquareMatrix, exponent: int, delta: Any) -> Any:
    """Sum of (-1)**(rows+cols) * (delta + submatrix element sum)**exponent
    over all nonempty row and column selections.

    Both selections come in Gray-code order.  The row walk is `_gray_sums`
    over the rows, which keeps the column sums of the chosen rows, n adds
    per step.  For each row subset the column walk moves the shifted sum,
    which starts at delta, by one column sum per step.  The sign flips at
    every step of either walk, and each row subset takes an odd number,
    2**n - 1, of column steps, so the signs alternate from +1 across the
    whole walk.
    """
    ring = matrix.ring
    add, sub = ring.add, ring.sub
    column_steps = list(enumerate_gray_steps(matrix.n))
    row_walk = _gray_sums([ring.zero()] * matrix.n, matrix.entries, add, sub)

    def shifted_sums():
        for sums in itertools.islice(row_walk, 1, None):
            shifted = delta
            for j, column_entering in column_steps:
                shifted = add(shifted, sums[j]) if column_entering else sub(shifted, sums[j])
                yield shifted

    return ring.power_sum(itertools.cycle((EVEN, ODD)), shifted_sums(), exponent)


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


def _section_columns(cube: CubeMatrix) -> tuple[tuple, ...]:
    """The sections' columns, columns[i*n + j] being column j of section i.

    Laid out as the row-major entries of an n x n matrix, they are what the
    pickers of diagonals(n) read: the picker of a permutation s takes column
    s(i) of section i for each i, the columns of the matrix assembled for s,
    so its pick is that matrix's transpose, row by row.
    """
    return tuple(column for section in cube.sections for column in zip(*section))


def space_determinant(cube: CubeMatrix) -> Any:
    """Alternating sum over permutations of permanents of assembled sections.

    For each permutation s the matrix whose i-th column is column s(i) of
    section i is assembled and its permanent weighted by the sign of s.  The
    pickers of diagonals(n) assemble each one's transpose from the section
    columns, which has the same permanent from the same products; each inner
    permanent picks its diagonals from that transpose's flat entries with
    diagonals(n) again.
    """
    ring = cube.ring
    n = cube.n
    columns = _section_columns(cube)
    even, odd = diagonals(n)
    return ring.signed_sum(
        (sign, _flat_permanent(ring, _flat(pick(columns)), n))
        for sign, half in ((EVEN, even), (ODD, odd))
        for pick in half
    )


def space_determinant_identity(cube: CubeMatrix) -> Any:
    """Space determinant from products of cross-section row sums.

    For each permutation s, row t of the assembled selection has the sum
    S_t = sum over i of the (t, s(i)) entry of section i.  The identity takes
    the alternating sum over s of prod_t S_t, minus the alternating sum over
    s of sum_r prod_t (S_t - the r-th summand), with no trailing division.
    The pickers of diagonals(n) give each selection's columns, the r-th of
    which holds the r-th summand of every row (see _section_columns).
    """
    ring = cube.ring
    n = cube.n
    columns = _section_columns(cube)
    even, odd = diagonals(n)
    sub = ring.sub

    def factors():
        for pick in itertools.chain(even, odd):
            picked = pick(columns)
            row_sums = list(map(ring.sum, zip(*picked)))
            yield row_sums
            for column in picked:
                yield map(sub, row_sums, column)

    # Each permutation's product enters with its sign and the depleted-product
    # bracket with the opposite one.  diagonals(n) lists ceil(n!/2) even
    # permutations, then floor(n!/2) odd ones.
    odds = math.factorial(n) // 2
    blocks = itertools.chain(
        itertools.repeat((EVEN,) + (ODD,) * n, math.factorial(n) - odds),
        itertools.repeat((ODD,) + (EVEN,) * n, odds),
    )
    return ring.product_sum(itertools.chain.from_iterable(blocks), factors())
