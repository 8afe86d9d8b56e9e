"""Reconstruction of multiadditive symmetric functions from their diagonal."""

from fractions import Fraction

import pytest

from matident.matrices import SquareMatrix, symbolic_gammas
from matident.polarization import DiagonalFunction, polarize
from matident.rings import RATIONAL, SYMBOLIC, Poly
from matident.sampling import (
    derive_rng,
    random_integer,
    random_rational,
    random_rational_matrix,
)

from oracles import brute_permanent


def _counting(func, counter):
    def evaluate(point):
        counter.append(point)
        return func(point)

    return evaluate


def test_additive_function_is_its_own_polarization():
    # one argument: f(x) = 7x, F = f, any shift must drop out
    func = DiagonalFunction(1, lambda point: 7 * point[0])
    for gamma in (Fraction(0), Fraction(5), Fraction(-2, 3)):
        value = polarize(func, [(Fraction(3),)], (gamma,), RATIONAL)
        assert value == 21


def test_bilinear_square_polarizes_to_product():
    # F(x) = x^2 polarizes to f(x1, x2) = x1 * x2
    func = DiagonalFunction(2, lambda point: point[0] * point[0])
    value = polarize(func, [(Fraction(3),), (Fraction(5),)], (Fraction(0),), RATIONAL)
    assert value == 15


def test_bilinear_square_polarizes_symbolically():
    func = DiagonalFunction(2, lambda point: point[0] * point[0])
    x1 = Poly.variable("x1")
    x2 = Poly.variable("x2")
    gamma = (Poly.variable("g"),)
    value = polarize(func, [(x1,), (x2,)], gamma, SYMBOLIC)
    assert value == x1 * x2  # the shift variable cancels entirely


def _permanent_diagonal(ring, n, counter=None):
    def evaluate(column):
        if counter is not None:
            counter.append(column)
        rows = [[column[i]] * n for i in range(n)]
        return brute_permanent(rows)

    return DiagonalFunction(n, evaluate)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polarization_reconstructs_the_permanent(n):
    rng = derive_rng(11, "polarization-test", n)
    matrix = random_rational_matrix(rng, n)
    calls = []
    func = _permanent_diagonal(RATIONAL, n, calls)
    zero_shift = tuple(Fraction(0) for _ in range(n))
    value = polarize(func, matrix.columns(), zero_shift, RATIONAL)
    assert value == brute_permanent(matrix.entries)
    assert len(calls) == 2**n


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("draw", [random_integer, random_rational], ids=["integer", "pq"])
def test_polarization_of_a_power_of_a_linear_form(n, draw):
    # F(x) = (c . x)**n is the diagonal of f(x_1, ..., x_n) = prod_k (c . x_k).
    rng = derive_rng(12, "linear-form", draw.__name__, n)
    size = 3
    weights = [draw(rng) for _ in range(size)]
    points = [tuple(draw(rng) for _ in range(size)) for _ in range(n)]
    gamma = tuple(random_rational(rng) for _ in range(size))

    def form(point):
        return sum(w * x for w, x in zip(weights, point))

    calls = []
    func = DiagonalFunction(n, _counting(lambda point: form(point) ** n, calls))
    expected = Fraction(1)
    for point in points:
        expected *= form(point)
    assert polarize(func, points, gamma, RATIONAL) == expected
    assert len(calls) == 2**n and calls[0] == gamma


@pytest.mark.parametrize("n", [2, 3])
def test_polarization_is_shift_independent(n):
    rng = derive_rng(12, "polarization-shift", n)
    matrix = random_rational_matrix(rng, n)
    func = _permanent_diagonal(RATIONAL, n)
    reference = None
    for _ in range(4):
        shift = tuple(random_rational(rng) for _ in range(n))
        value = polarize(func, matrix.columns(), shift, RATIONAL)
        if reference is None:
            reference = value
        assert value == reference


def test_polarization_is_symmetric_in_the_arguments():
    rng = derive_rng(13, "polarization-symmetry")
    matrix = random_rational_matrix(rng, 3)
    func = _permanent_diagonal(RATIONAL, 3)
    zero_shift = (Fraction(0),) * 3
    cols = list(matrix.columns())
    value = polarize(func, cols, zero_shift, RATIONAL)
    swapped = [cols[1], cols[0], cols[2]]
    assert polarize(func, swapped, zero_shift, RATIONAL) == value


def test_polarization_agrees_with_the_diagonal_on_equal_arguments():
    # f(x, x) must equal F(x) when f comes from polarizing F
    func = DiagonalFunction(2, lambda point: point[0] * point[0])
    x = (Fraction(7, 3),)
    value = polarize(func, [x, x], (Fraction(0),), RATIONAL)
    assert value == func.evaluate(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polarize_hands_f_tuples_in_reflected_gray_order(n):
    calls = []
    func = DiagonalFunction(n, _counting(lambda point: point[0] ** n, calls))
    points = [(Fraction(2**j), Fraction(-3 * 2**j)) for j in range(n)]
    gamma = (Fraction(1, 3), Fraction(0))
    polarize(func, points, gamma, RATIONAL)
    assert len(calls) == 2**n
    for k, point in enumerate(calls):
        subset = [j for j in range(n) if (k ^ k >> 1) >> j & 1]
        assert type(point) is tuple
        assert point == tuple(g + sum(points[j][i] for j in subset) for i, g in enumerate(gamma))


def test_polarization_validates_arity():
    func = DiagonalFunction(2, lambda point: point[0])
    with pytest.raises(ValueError):
        polarize(func, [(Fraction(1),)], (Fraction(0),), RATIONAL)
    with pytest.raises(ValueError):
        polarize(DiagonalFunction(0, lambda point: point), [], (), RATIONAL)


def test_polarization_refuses_points_shorter_or_longer_than_gamma():
    # F(x) = (x_1 + x_2)^2; zip would silently truncate a short gamma or point
    calls = []
    square_of_sum = _counting(lambda point: RATIONAL.power(RATIONAL.sum(point), 2), calls)
    func = DiagonalFunction(2, square_of_sum)
    points = [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))]
    assert polarize(func, points, (Fraction(0), Fraction(0)), RATIONAL) == 21
    calls.clear()
    short_point = [points[0], (Fraction(3),)]
    for xs, gamma in (
        (points, (Fraction(0),)),
        (short_point, (Fraction(0), Fraction(0))),
        (points, (Fraction(0),) * 3),
    ):
        with pytest.raises(ValueError, match="length of gamma"):
            polarize(func, xs, gamma, RATIONAL)
    assert calls == []


def test_polarization_over_symbolic_matrix_columns():
    n = 2
    entries = [[Poly.variable(f"a_{i}_{j}") for j in (1, 2)] for i in (1, 2)]
    matrix = SquareMatrix(SYMBOLIC, entries)
    func = _permanent_diagonal(SYMBOLIC, n)
    shifts = symbolic_gammas(n)
    value = polarize(func, matrix.columns(), shifts, SYMBOLIC)
    assert value == brute_permanent(entries)
    assert not (value.variables() & {"g_1", "g_2"})
