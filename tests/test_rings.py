"""Ring axioms and canonical forms for the three concrete rings, and exact
division in their lifted integer twins."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matident import rings
from matident.bench import CountingRing
from matident.rings import (
    MATRIX2,
    RATIONAL,
    SYMBOLIC,
    MatrixElement,
    Poly,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def polys(draw):
    total = Poly()
    for _ in range(draw(st.integers(0, 3))):
        term = Poly.constant(draw(st.integers(-4, 4)))
        for name in ("x", "y", "z"):
            term = term * SYMBOLIC.power(Poly.variable(name), draw(st.integers(0, 2)))
        total = total + term
    return total


@st.composite
def matrix2_elements(draw):
    return MatrixElement(
        [[draw(st.integers(-4, 4)) for _ in range(2)] for _ in range(2)]
    )


RING_STRATEGIES = {
    "rational": (RATIONAL, rationals),
    "symbolic": (SYMBOLIC, polys()),
    "matrix2": (MATRIX2, matrix2_elements()),
}


@st.composite
def ring_triples(draw):
    ring, elements = RING_STRATEGIES[draw(st.sampled_from(sorted(RING_STRATEGIES)))]
    return ring, draw(elements), draw(elements), draw(elements)


@given(ring_triples())
def test_ring_axioms(data):
    ring, x, y, z = data
    assert ring.eq(ring.add(x, y), ring.add(y, x))
    assert ring.eq(ring.add(ring.add(x, y), z), ring.add(x, ring.add(y, z)))
    assert ring.eq(ring.add(x, ring.zero()), x)
    assert ring.is_zero(ring.add(x, ring.neg(x)))
    assert ring.eq(ring.sub(x, y), ring.add(x, ring.neg(y)))
    assert ring.eq(ring.mul(ring.mul(x, y), z), ring.mul(x, ring.mul(y, z)))
    assert ring.eq(ring.mul(x, ring.one()), x)
    assert ring.eq(ring.mul(ring.one(), x), x)
    assert ring.eq(ring.mul(x, ring.add(y, z)), ring.add(ring.mul(x, y), ring.mul(x, z)))
    assert ring.eq(ring.mul(ring.add(y, z), x), ring.add(ring.mul(y, x), ring.mul(z, x)))
    if ring.commutative:
        assert ring.eq(ring.mul(x, y), ring.mul(y, x))


@given(ring_triples(), st.integers(1, 10))
def test_exact_division_by_integers_round_trips(data, k):
    ring, x, _, _ = data
    quotient = ring.div_int(x, k)
    assert ring.eq(ring.sum([quotient] * k), x)
    negated = ring.div_int(x, -k)
    assert ring.eq(ring.sum([negated] * k), ring.neg(x))


@given(ring_triples(), st.integers(0, 6))
def test_power_matches_repeated_multiplication(data, exponent):
    ring, x, _, _ = data
    expected = ring.one()
    for _ in range(exponent):
        expected = ring.mul(expected, x)
    assert ring.eq(ring.power(x, exponent), expected)


def test_power_refuses_a_negative_exponent():
    for ring in (RATIONAL, SYMBOLIC, MATRIX2, CountingRing(MATRIX2)):
        with pytest.raises(ValueError, match="^ring exponent must be nonnegative$"):
            ring.power(ring.one(), -1)


def test_division_by_zero_is_rejected():
    for ring in (RATIONAL, SYMBOLIC, MATRIX2):
        with pytest.raises(ZeroDivisionError):
            ring.div_int(ring.one(), 0)


def test_ring_sum_and_product_fold_in_order():
    assert RATIONAL.sum([]) == 0
    assert RATIONAL.product([]) == 1
    assert RATIONAL.sum([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)
    a = MatrixElement([[0, 1], [0, 0]])
    b = MatrixElement([[0, 0], [1, 0]])
    # order matters in a noncommutative product
    assert MATRIX2.product([a, b]) == MatrixElement([[1, 0], [0, 0]])
    assert MATRIX2.product([b, a]) == MatrixElement([[0, 0], [0, 1]])


def test_binary_power_uses_few_multiplications():
    ring = CountingRing(RATIONAL)
    result = ring.power(Fraction(2), 15)
    assert result == 2**15
    assert ring.counts.power_muls <= 7


def test_matrix_ring_has_noncommutative_witness():
    a = MatrixElement([[0, 1], [0, 0]])
    b = MatrixElement([[0, 0], [1, 0]])
    assert not MATRIX2.eq(MATRIX2.mul(a, b), MATRIX2.mul(b, a))
    assert not MATRIX2.commutative


def test_matrix_element_validation_and_equality():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1]], [[1, 2, 3]] * 3, [[1, 2], [3]], []):
        with pytest.raises(ValueError):
            MatrixElement(rows)
    assert MATRIX2.from_int(3) == MatrixElement([[3, 0], [0, 3]])
    assert MATRIX2.one() == MatrixElement([[1, 0], [0, 1]])
    assert MatrixElement.scalar(Fraction(1, 2)) / 1 == MatrixElement(
        [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    )
    assert str(MatrixElement([[1, Fraction(1, 2)], [0, 2]])) == "[[1, 1/2], [0, 2]]"


def test_poly_builds_canonical_terms():
    x = Poly.variable("x")
    y = Poly.variable("y")
    square = SYMBOLIC.power(x + y, 2)
    assert square == x * x + 2 * x * y + y * y
    assert square.coefficient((("x", 1), ("y", 1))) == 2
    assert SYMBOLIC.is_zero(square - square)
    assert (x * y) == (y * x)
    assert Poly.constant(Fraction(4, 2)) == Poly.constant(2)


def test_poly_arithmetic_keeps_nonzero_fraction_coefficients():
    x = Poly.variable("x")
    y = Poly.variable("y")
    p = x + 3 * y - 1
    results = [p + x, p - x, p * (x - y), -p, p / 2, p / Fraction(2, 3), p - p]
    for result in results:
        for _, coeff in result.terms():
            assert type(coeff) is Fraction and coeff != 0
    assert ((x + y) - (x + y)).terms() == []
    assert type(Poly({(): 3}).coefficient(())) is Fraction


def test_poly_string_forms():
    x = Poly.variable("x")
    y = Poly.variable("y")
    assert str(Poly()) == "0"
    assert str(Poly.constant(Fraction(-3, 2))) == "-3/2"
    assert str(x) == "x"
    assert str(-x) == "-x"
    assert str(2 * x * x - y) == "2*x^2 - y"
    assert str((x + y) * (x - y)) == "x^2 - y^2"
    assert str(x * y + 1) == "1 + x*y"


def test_poly_evaluate_substitutes_rationals():
    x = Poly.variable("x")
    y = Poly.variable("y")
    value = (3 * x * x * y - Fraction(1, 2)).evaluate({"x": 2, "y": Fraction(1, 3)})
    assert value == Fraction(7, 2)


def test_poly_rejects_bad_variable_names():
    for name in ("", "2x", "a-b", "a b"):
        with pytest.raises(ValueError):
            Poly.variable(name)


@given(polys(), polys())
@settings(max_examples=50)
def test_poly_equality_is_structural(p, q):
    assert (p == q) == (str(p) == str(q))


def test_a_constant_poly_hashes_like_the_number_it_equals():
    for value in (0, 3, -1, Fraction(1, 2)):
        constant = Poly.constant(value)
        assert constant == value and hash(constant) == hash(value)
        assert len({constant, value}) == 1
    assert Poly() == 0 and len({Poly(), 0}) == 1
    assert len({Poly.variable("x"), Poly.variable("x") + 0}) == 1


@given(polys(), polys(), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=50)
def test_poly_evaluate_is_a_ring_map(p, q, a, b):
    point = {"x": a, "y": b, "z": Fraction(1, 7)}
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_integer_division_refuses_a_remainder():
    assert rings._INTEGER.div_int(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        rings._INTEGER.div_int(7, 2)


def test_packed_polynomial_and_integer_matrix_division_refuse_a_remainder():
    assert rings._PACKED.div_int({0: 6, 5: -4}, 2) == {0: 3, 5: -2}
    with pytest.raises(ArithmeticError, match="coefficient -3 is not divisible by 2"):
        rings._PACKED.div_int({0: 6, 5: -3}, 2)
    assert rings._INTEGER_MATRIX.div_int((6, -4, 0, 2), 2) == (3, -2, 0, 1)
    with pytest.raises(ArithmeticError, match=re.escape("(6, -4, 1, 2) is not divisible by 2")):
        rings._INTEGER_MATRIX.div_int((6, -4, 1, 2), 2)
