"""Seeded random inputs for the verify and bench surfaces.

Every generator takes an explicit random.Random so callers can derive
independent, reproducible streams per (seed, suite, size, trial); results are
stable across runs and machines.  Every value is drawn as Python ints:
rng.randrange(2*b + 1) - b draws the integer rng.randint(-b, b) would draw
from the same state, and rng.randrange(9) + 1 the one of rng.randint(1, 9),
at less cost.  verify takes the int rows (integer_rows, rational_rows,
matrix2_rows, integer_sections, singular_rows) and builds its lifted
instances from them; the Fraction and MatrixElement draws are built on the
same rows, so each draws what it always drew.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import CubeMatrix, SquareMatrix
from .rings import MATRIX2, RATIONAL, MatrixElement, _matrix


def derive_rng(seed: int, *labels: object) -> random.Random:
    """A child generator keyed by seed and labels (string seeding is stable)."""
    return random.Random(":".join([str(seed), *(str(label) for label in labels)]))


def _ints(rng: random.Random, count: int, bound: int = 9) -> list[int]:
    """count integers in -bound..bound."""
    draw = rng.randrange
    width = 2 * bound + 1
    return [draw(width) - bound for _ in range(count)]


def _pairs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """count (p, q) with p in -9..9 and q in 1..9, p drawn first."""
    draw = rng.randrange
    return [(draw(19) - 9, draw(9) + 1) for _ in range(count)]


def _groups(values, size: int) -> tuple[tuple, ...]:
    """values in consecutive tuples of size."""
    return tuple(zip(*[iter(values)] * size))


def integer_rows(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """n rows of n integers in -9..9."""
    return _groups(_ints(rng, n * n), n)


def rational_rows(rng: random.Random, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """n rows of n (p, q) pairs, the entry p/q unreduced."""
    return _groups(_pairs(rng, n * n), n)


def matrix2_rows(rng: random.Random, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """n rows of n 2x2 cells (a, b, c, d) in -3..3, for [[a, b], [c, d]]."""
    return _groups(_groups(_ints(rng, 4 * n * n, 3), 4), n)


def integer_sections(rng: random.Random, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """n sections of n rows of n integers in -3..3."""
    return _groups(_groups(_ints(rng, n**3, 3), n), n)


def singular_rows(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """integer_rows made singular: one row an integer multiple (-3..3) of another."""
    if n == 1:
        return ((0,),)
    rows = list(integer_rows(rng, n))
    source, target = rng.sample(range(n), 2)
    (scale,) = _ints(rng, 1, 3)
    rows[target] = tuple(scale * value for value in rows[source])
    return tuple(rows)


def _fraction_rows(rows: tuple) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(map(Fraction, row)) for row in rows)


def _element(cells) -> MatrixElement:
    return _matrix(tuple(map(Fraction, cells)))


def random_integer(rng: random.Random) -> Fraction:
    return Fraction(*_ints(rng, 1))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(*_pairs(rng, 1)[0])


def random_integer_matrix(rng: random.Random, n: int) -> SquareMatrix:
    return SquareMatrix._of(RATIONAL, _fraction_rows(integer_rows(rng, n)))


def random_rational_matrix(rng: random.Random, n: int) -> SquareMatrix:
    rows = rational_rows(rng, n)
    return SquareMatrix._of(RATIONAL, tuple(tuple(Fraction(p, q) for p, q in row) for row in rows))


def random_matrix2_element(rng: random.Random) -> MatrixElement:
    return _element(_ints(rng, 4, 3))


def random_matrix2_matrix(rng: random.Random, n: int) -> SquareMatrix:
    rows = matrix2_rows(rng, n)
    return SquareMatrix._of(MATRIX2, tuple(tuple(map(_element, row)) for row in rows))


def random_integer_cube(rng: random.Random, n: int) -> CubeMatrix:
    return CubeMatrix._of(RATIONAL, tuple(map(_fraction_rows, integer_sections(rng, n))))


def singular_matrix(rng: random.Random, n: int) -> SquareMatrix:
    """A random matrix forced singular by making one row a multiple of another."""
    return SquareMatrix._of(RATIONAL, _fraction_rows(singular_rows(rng, n)))
