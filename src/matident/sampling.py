"""Seeded random inputs for the verify and bench surfaces.

Every generator takes an explicit random.Random so callers can derive
independent, reproducible streams per (seed, suite, size, trial); results are
stable across runs and machines.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .identities import determinant
from .matrices import CubeMatrix, SquareMatrix
from .rings import MATRIX2, RATIONAL, MatrixElement


def derive_rng(seed: int, *labels: object) -> random.Random:
    """A child generator keyed by seed and labels (string seeding is stable)."""
    return random.Random(":".join([str(seed), *(str(label) for label in labels)]))


def random_integer(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_integer_matrix(rng: random.Random, n: int) -> SquareMatrix:
    return SquareMatrix(
        RATIONAL,
        [[random_integer(rng) for _ in range(n)] for _ in range(n)],
    )


def random_rational_matrix(rng: random.Random, n: int) -> SquareMatrix:
    return SquareMatrix(
        RATIONAL,
        [[random_rational(rng) for _ in range(n)] for _ in range(n)],
    )


def random_matrix2_element(rng: random.Random) -> MatrixElement:
    return MatrixElement([[random_integer(rng, 3) for _ in range(2)] for _ in range(2)])


def random_matrix2_matrix(rng: random.Random, n: int) -> SquareMatrix:
    return SquareMatrix(
        MATRIX2,
        [[random_matrix2_element(rng) for _ in range(n)] for _ in range(n)],
    )


def random_integer_cube(rng: random.Random, n: int) -> CubeMatrix:
    return CubeMatrix(
        RATIONAL,
        [
            [[random_integer(rng, 3) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ],
    )


def singular_matrix(rng: random.Random, n: int) -> SquareMatrix:
    """A random matrix forced singular by making one row a multiple of another."""
    if n == 1:
        return SquareMatrix(RATIONAL, [[Fraction(0)]])
    rows = [[random_integer(rng) for _ in range(n)] for _ in range(n)]
    source, target = rng.sample(range(n), 2)
    scale = Fraction(rng.randint(-3, 3))
    rows[target] = [scale * value for value in rows[source]]
    return SquareMatrix(RATIONAL, rows)


def nonsingular_matrix(rng: random.Random, n: int) -> SquareMatrix:
    """A random integer matrix with nonzero determinant (resampled until found)."""
    while True:
        matrix = random_integer_matrix(rng, n)
        if determinant(matrix) != 0:
            return matrix
