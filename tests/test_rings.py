"""Ring axioms and canonical forms for the three concrete rings, and exact
division in their lifted integer twins."""

import copy
import itertools
import math
import operator
import random
import re
from fractions import Fraction
from operator import getitem, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matident import rings
from matident.bench import CountingRing
from matident.combinatorics import TABLE_MAX_N, diagonals, laplace_plan
from matident.identities import EXPANSION_MIN_N, space_determinant
from matident.matrices import CubeMatrix, SquareMatrix
from matident.methods import METHODS, OpCounts, evaluate_method, lift
from matident.rings import (
    MATRIX2,
    RATIONAL,
    SYMBOLIC,
    MatrixElement,
    Poly,
)
from oracles import (
    brute_determinant,
    brute_permanent,
    brute_space_determinant,
    cycle_sign,
    gauss_determinant,
    matrix2_add,
    matrix2_mul,
    matrix2_neg,
    matrix2_sub,
    poly_product,
    poly_text,
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


integer_lists = st.lists(st.integers(-10**6, 10**6), max_size=8)
signs = st.sampled_from((1, -1))


# Few keys and coefficients, so that sums of these cancel, some down to {}.
cancelling_packed = st.dictionaries(
    st.integers(0, 3), st.sampled_from((-2, -1, 1, 2)), max_size=3
)


@st.composite
def packed_folds(draw):
    """A pool of packed elements, signed picks from it (one dict object can
    recur in a fold) and a square of pool entries with signed images."""
    pool = draw(st.lists(cancelling_packed, min_size=1, max_size=4))
    picks = st.integers(0, len(pool) - 1)
    pairs = [(sign, pool[i]) for sign, i in draw(st.lists(st.tuples(signs, picks), max_size=8))]
    n = draw(st.integers(1, 3))
    rows = [[pool[draw(picks)] for _ in range(n)] for _ in range(n)]
    images = st.permutations(range(n)).map(tuple)
    return pool, pairs, rows, draw(st.lists(st.tuples(images, signs), max_size=6))


def _naive_packed_sum(pairs):
    terms = {}
    for sign, item in pairs:
        for key, coeff in item.items():
            terms[key] = terms.get(key, 0) + sign * coeff
    return {key: coeff for key, coeff in terms.items() if coeff}


def _generic_diagonal_sum(ring, rows, pairs):
    """Ring's one-add-or-sub-per-item fold of the diagonal products."""
    products = ((sign, ring.product(map(getitem, rows, image))) for image, sign in pairs)
    return rings.Ring.signed_sum(ring, products)


def _flat_diagonals(rows, pairs):
    """diagonal_sum's arguments for (image, sign) pairs over rows: the
    row-major entries, then per image a getter of the positions
    i*n + image[i] that returns a tuple (a slice when n = 1), in the even
    list for sign 1 and in the odd one for sign -1."""
    n = len(rows)
    flat = tuple(entry for row in rows for entry in row)
    halves = {1: [], -1: []}
    for image, sign in pairs:
        positions = (i * n + col for i, col in enumerate(image))
        halves[sign].append(itemgetter(*positions) if n > 1 else itemgetter(slice(0, 1)))
    return flat, halves[1], halves[-1]


@given(
    integer_lists,
    st.lists(signs, max_size=8),
    st.integers(-50, 50),
    st.integers(0, 12),
    packed_folds(),
)
def test_native_integer_folds_match_the_generic_folds(items, sign_list, x, exponent, packed):
    ring = rings._INTEGER
    pairs = list(zip(sign_list, items))
    assert ring.product(items) == rings.Ring.product(ring, items)
    assert ring.sum(items) == rings.Ring.sum(ring, items)
    assert ring.signed_sum(pairs) == rings.Ring.signed_sum(ring, pairs)
    assert ring.power(x, exponent) == rings.Ring.power(ring, x, exponent)
    # Generators are consumed the same way as lists.
    assert ring.product(iter(items)) == ring.product(items)
    assert ring.signed_sum(iter(pairs)) == ring.signed_sum(pairs)

    # The packed ring's accumulating folds, on sums that cancel.
    ring = rings._PACKED
    pool, pairs, rows, diagonals = packed
    before = [dict(element) for element in pool]
    y, z = pool[0], pool[-1]
    results = [
        ring.add(y, z),
        ring.sub(y, z),
        ring.add(y, y),
        ring.sub(y, y),
        ring.signed_sum(pairs),
        ring.signed_sum(iter(pairs)),
        ring.signed_sum([]),
        ring.signed_sum([(1, y), (-1, y)]),
        ring.diagonal_sum(*_flat_diagonals(rows, diagonals)),
        ring.diagonal_sum(*_flat_diagonals(rows, [])),
    ]
    assert results == [
        _naive_packed_sum([(1, y), (1, z)]),
        _naive_packed_sum([(1, y), (-1, z)]),
        _naive_packed_sum([(1, y), (1, y)]),
        {},
        rings.Ring.signed_sum(ring, pairs),
        _naive_packed_sum(pairs),
        {},
        {},
        _generic_diagonal_sum(ring, rows, diagonals),
        {},
    ]
    for result in results:
        assert 0 not in result.values()
    assert pool == before


def test_native_integer_folds_keep_the_empty_cases_and_the_negative_exponent_error():
    ring = rings._INTEGER
    assert ring.product([]) == 1
    assert ring.sum([]) == 0
    assert ring.signed_sum([]) == 0
    assert ring.product_sum([], []) == ring.power_sum([], [], 2) == 0
    assert ring.power(7, 0) == 1
    assert ring.power(0, 0) == 1
    with pytest.raises(ValueError, match="^ring exponent must be nonnegative$"):
        ring.power(3, -1)
    for ring, x in ((rings._INTEGER, 3), (rings._PACKED, {1: 2})):
        with pytest.raises(ValueError, match="^ring exponent must be nonnegative$"):
            ring.power_sum([1], [x], -1)


def test_integer_element_operations_are_the_operator_builtins():
    ring = rings._INTEGER
    assert (ring.add, ring.sub, ring.neg, ring.mul, ring.eq) == (
        operator.add,
        operator.sub,
        operator.neg,
        operator.mul,
        operator.eq,
    )
    assert (ring.add(2, 3), ring.sub(2, 3), ring.neg(2), ring.mul(2, 3)) == (5, -1, -2, 6)
    assert ring.is_zero(0) and not ring.eq(2, 3)


def test_counting_over_the_integer_ring_keeps_square_and_multiply():
    ring = CountingRing(rings._INTEGER)
    assert ring.power(3, 7) == 3**7
    assert (ring.counts.powers, ring.counts.power_muls, ring.counts.muls) == (1, 4, 0)
    assert ring.product([2, 3, 5]) == 30
    assert ring.signed_sum([(1, 4), (-1, 9)]) == -5
    assert (ring.counts.muls, ring.counts.adds) == (2, 2)


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


def _cells(rows):
    return tuple(rows[0] + rows[1])


_integer_rows = st.lists(
    st.lists(st.integers(-50, 50), min_size=2, max_size=2), min_size=2, max_size=2
)
_rational_rows = st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2)


@given(_rational_rows, _rational_rows, st.integers(1, 12) | st.integers(-12, -1))
def test_matrix_element_arithmetic_matches_the_oracle(x, y, k):
    a, b = MatrixElement(x), MatrixElement(y)
    assert a + b == MatrixElement(matrix2_add(x, y))
    assert a - b == MatrixElement(matrix2_sub(x, y))
    assert a * b == MatrixElement(matrix2_mul(x, y))
    assert -a == MatrixElement(matrix2_neg(x))
    inverse = Fraction(1, k)
    assert a / k == MatrixElement(matrix2_mul(x, [[inverse, 0], [0, inverse]]))


@given(_integer_rows, _integer_rows)
def test_integer_matrix_arithmetic_matches_the_oracle(x, y):
    ring = rings._INTEGER_MATRIX
    a, b = _cells(x), _cells(y)
    assert ring.add(a, b) == _cells(matrix2_add(x, y))
    assert ring.sub(a, b) == _cells(matrix2_sub(x, y))
    assert ring.mul(a, b) == _cells(matrix2_mul(x, y))
    assert ring.neg(a) == _cells(matrix2_neg(x))


def test_poly_builds_canonical_terms():
    x = Poly.variable("x")
    y = Poly.variable("y")
    square = SYMBOLIC.power(x + y, 2)
    assert square == x * x + 2 * x * y + y * y
    assert square.coefficient((("x", 1), ("y", 1))) == 2
    assert SYMBOLIC.is_zero(square - square)
    assert (x * y) == (y * x)
    assert Poly.constant(Fraction(4, 2)) == Poly.constant(2)


@given(polys(), polys())
@settings(max_examples=50)
def test_poly_arithmetic_keeps_nonzero_fraction_coefficients(q, r):
    q_terms, r_terms = q.terms(), r.terms()
    x = Poly.variable("x")
    y = Poly.variable("y")
    p = x + 3 * y - 1
    results = [p + x, p - x, p * (x - y), -p, p / 2, p / Fraction(2, 3), p - p]
    results += [q + r, q - r, q + r - r, q - q]
    for result in results:
        for _, coeff in result.terms():
            assert type(coeff) is Fraction and coeff != 0
    assert ((x + y) - (x + y)).terms() == []
    assert type(Poly({(): 3}).coefficient(())) is Fraction
    assert q + r - r == q and r + q - q == r
    assert (q - q).terms() == []
    # Sums work on a copy and leave both operands as they were.
    assert (q.terms(), r.terms()) == (q_terms, r_terms)


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


# A term is (numerator, denominator, factors), each factor a (name, exponent)
# pair; a name may recur in one term.  An entry is a list of terms, zero when
# empty or when its terms cancel.
_terms = st.lists(
    st.tuples(
        st.integers(-6, 6),
        st.integers(1, 4),
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 3)), max_size=3),
    ),
    max_size=3,
)
_symbolic_requests = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_terms, min_size=n * n, max_size=n * n))
)


def _entry(terms, suffix):
    """The entry as a Poly built by public arithmetic, and as the oracle's
    {monomial: coefficient} dict; suffix renames every variable."""
    poly, oracle = Poly(), {}
    for numerator, denominator, factors in terms:
        coefficient = Fraction(numerator, denominator)
        term, exponents = Poly.constant(coefficient), {}
        for name, exponent in factors:
            term = term * SYMBOLIC.power(Poly.variable(name + suffix), exponent)
            exponents[name + suffix] = exponents.get(name + suffix, 0) + exponent
        poly = poly + term
        monomial = tuple(sorted(exponents.items()))
        oracle[monomial] = oracle.get(monomial, 0) + coefficient
    return poly, oracle


@given(_symbolic_requests, st.booleans())
# a^3 from a at n = 3, and a^7 at n = 1: exponents that fill their 2- and
# 3-bit packed fields; a^2 and b^2 at n = 2, where a field one bit narrower
# would carry a's exponent into b's.
@example((3, [[(1, 1, [("a", 1)])]] + [[]] * 8), True)
@example((2, [[(1, 1, [("a", 1)])], [(3, 2, [("b", 1)])], [], [(-1, 1, [])]]), True)
@example((1, [[(-2, 3, [("a", 3), ("a", 3), ("a", 1)])]]), True)
@settings(max_examples=60, deadline=None)
def test_lifted_polys_move_down_to_the_same_poly_and_text(request, shared):
    # Shared names recur across entries; distinct ones get a suffix per cell.
    # down moves values of degree n, as evaluators return: the n-th power of
    # each entry, which reaches the largest exponent the packed fields hold
    # for this request, and the product of each row.
    n, cells = request
    built = [_entry(terms, "" if shared else f"_{k}") for k, terms in enumerate(cells)]
    rows = [built[i * n : (i + 1) * n] for i in range(n)]
    lifted, _, down = lift(SquareMatrix(SYMBOLIC, [[poly for poly, _ in row] for row in rows]))
    ring = lifted.ring
    assert ring is rings._PACKED
    cases = []
    for row, lifted_row in zip(rows, lifted.entries):
        for (poly, oracle), entry in zip(row, lifted_row):
            cases.append((ring.power(entry, n), SYMBOLIC.power(poly, n), [oracle] * n))
        polys, oracles = zip(*row)
        cases.append((ring.product(lifted_row), SYMBOLIC.product(polys), oracles))
    for packed, expected, factors in cases:
        oracle = {(): 1}
        for factor in factors:
            oracle = poly_product(oracle, factor)
        assert down(packed) == expected
        assert str(down(packed)) == str(expected) == poly_text(oracle)


_gammas = st.lists(rationals, min_size=1, max_size=5).map(tuple)


@given(
    st.one_of(rationals, _rational_rows.map(MatrixElement), _gammas),
    st.integers(1, 6),
    st.integers(1, 4),
)
def test_scale_down_inverts_scale_up_at_every_degree(value, factor, n):
    # scale is a multiple of every denominator in value.  A gammas tuple
    # scales item by item, so each item comes back on its own; the n-th power
    # of a scaled item is a value of degree n, and comes back as the n-th
    # power of the item.
    items = value if isinstance(value, tuple) else (value,)
    fractions = [cell for item in items for cell in getattr(item, "cells", (item,))]
    scale = factor * math.lcm(*(cell.denominator for cell in fractions))
    lifted = rings.scale_up(value, scale)
    for item, up in zip(items, lifted if isinstance(value, tuple) else (lifted,)):
        matrix = isinstance(item, MatrixElement)
        ring, twin = (MATRIX2, rings._INTEGER_MATRIX) if matrix else (RATIONAL, rings._INTEGER)
        assert all(type(cell) is int for cell in (up if matrix else (up,)))
        assert rings.scale_down(up, scale, 1) == item
        assert rings.scale_down(twin.power(up, n), scale, n) == ring.power(item, n)


def test_lift_takes_one_request_and_scales_its_entries_and_shifts_by_one_scale():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        # The lcm of every denominator, entries and gammas alike, 12; a key
        # that is not a shift passes through.
        (
            SquareMatrix(RATIONAL, [[half, 1], [-third, 2]]),
            {"gammas": (Fraction(1, 4), Fraction(0)), "note": "kept"},
            "per_identity",
            12,
            ((6, 12), (-4, 24)),
            {"gammas": (3, 0), "note": "kept"},
        ),
        # The lcm of every cell, 6, times n! = 2.
        (
            SquareMatrix(MATRIX2, [[MatrixElement([[half, 0], [1, 2]])] * 2] * 2),
            {"delta": MatrixElement([[1, third], [0, 3]])},
            "eper_identity",
            12,
            (((6, 0, 12, 24),) * 2,) * 2,
            {"delta": (12, 4, 0, 36)},
        ),
    ]
    for matrix, params, method, scale, entries, lifted_params in cases:
        given_params = dict(params)
        lifted, out_params, down = lift(matrix, params)
        assert params == given_params
        assert lifted.entries == entries == rings.scale_up(matrix.entries, scale)
        assert out_params == lifted_params
        value = METHODS[method].run(lifted, lifted_params, OpCounts())
        assert down(value) == evaluate_method(method, matrix, params)
        assert rings.scale_up(down(value), scale**matrix.n) == value


def test_lift_hands_back_a_request_it_cannot_move_as_given():
    matrix = SquareMatrix(RATIONAL, [[Fraction(1, 2), 1], [0, 2]])
    generated = (gamma for gamma in (Fraction(1), Fraction(2)))
    for params in ({"gamma": Poly.variable("g")}, {"gammas": generated}):
        lifted, same, down = lift(matrix, params)
        assert lifted is matrix and same == params
        assert down(params) is params
    assert lift(matrix)[1] == {}


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


def _naive_packed_product(x, y):
    terms = {}
    for key_x, coeff_x in x.items():
        for key_y, coeff_y in y.items():
            terms[key_x + key_y] = terms.get(key_x + key_y, 0) + coeff_x * coeff_y
    return {key: coeff for key, coeff in terms.items() if coeff}


# Packed monomials below 8, so shifting one factor's keys by 3 bits keeps
# every sum of a key from each factor distinct.
packed_polys = st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool), max_size=5)


@given(packed_polys, packed_polys, st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
def test_packed_product_matches_a_naive_double_loop(x, y, signs):
    disjoint = {key << 3: coeff for key, coeff in y.items()}
    # Same monomials as x with some signs flipped: shared terms can cancel.
    flipped = {key: coeff * sign for (key, coeff), sign in zip(x.items(), signs)}
    for a, b in ((x, disjoint), (disjoint, x), (x, y), (x, x), (x, flipped), (flipped, x)):
        product = rings._PACKED.mul(a, b)
        assert product == _naive_packed_product(a, b)
        assert 0 not in product.values()


def test_packed_products_worked_by_hand():
    # (a + b)(a - b) = a^2 - b^2 with a packed as 1 and b as 8: the cross
    # terms cancel.  Then 2a(1 - 3b) = 2a - 6ab, whose factor of one term
    # takes the comprehension.
    assert rings._PACKED.mul({1: 1, 8: 1}, {1: 1, 8: -1}) == {2: 1, 16: -1}
    assert rings._PACKED.mul({1: 2}, {8: -3, 0: 1}) == {9: -6, 1: 2}


NATIVE_FUSED_RINGS = {
    "integer": (rings._INTEGER, st.integers(-50, 50)),
    "packed": (rings._PACKED, packed_polys),
}


@given(st.sampled_from(sorted(NATIVE_FUSED_RINGS)), st.sampled_from((0, 1, 2, 3, 4, 5)), st.data())
@settings(max_examples=80, deadline=None)
def test_native_product_and_power_sums_match_the_ring_folds(name, exponent, data):
    # Ring's product_sum and power_sum build each product or power whole and
    # fold it with signed_sum; the native folds must give the same values.
    ring, elements = NATIVE_FUSED_RINGS[name]
    pool = data.draw(st.lists(elements, min_size=1, max_size=4))
    picks = st.sampled_from(pool)  # one element object can recur
    factors = data.draw(st.lists(st.lists(picks, max_size=3).map(tuple), max_size=5))
    factors.append(())  # the empty product, one
    factor_signs = data.draw(st.lists(signs, min_size=len(factors), max_size=len(factors)))
    bases = data.draw(st.lists(picks, max_size=5))
    base_signs = data.draw(st.lists(signs, min_size=len(bases), max_size=len(bases)))
    before = copy.deepcopy(pool)
    expected_products = rings.Ring.product_sum(ring, factor_signs, factors)
    expected_powers = rings.Ring.power_sum(ring, base_signs, bases, exponent)
    results = [
        (ring.product_sum(factor_signs, factors), expected_products),
        (ring.product_sum(iter(factor_signs), map(iter, factors)), expected_products),
        (ring.power_sum(base_signs, bases, exponent), expected_powers),
        (ring.power_sum(iter(base_signs), iter(bases), exponent), expected_powers),
        # Every term again with the opposite sign: the totals cancel to zero.
        (
            ring.product_sum([*factor_signs, *map(operator.neg, factor_signs)], factors * 2),
            ring.zero(),
        ),
        (
            ring.power_sum([*base_signs, *map(operator.neg, base_signs)], bases * 2, exponent),
            ring.zero(),
        ),
        (ring.product_sum([], []), ring.zero()),
        (ring.power_sum([], [], exponent), ring.zero()),
    ]
    for result, expected in results:
        assert result == expected
        if name == "packed":
            assert 0 not in result.values()
    assert pool == before


def test_fused_packed_folds_worked_by_hand():
    # a packed as 1 and b as 8.  (a + b)(a - b) - (a - b)(a - b) = 2ab - 2b^2,
    # where a^2 cancels across the two products; then (a + b)^3 - (a + b)^3
    # cancels to nothing, and (a - b)^2 + (a + b)^2 = 2a^2 + 2b^2.
    ring = rings._PACKED
    plus, minus = {1: 1, 8: 1}, {1: 1, 8: -1}
    assert ring.product_sum([1, -1], [(plus, minus), (minus, minus)]) == {9: 2, 16: -2}
    assert ring.power_sum([1, -1], [plus, plus], 3) == {}
    assert ring.power_sum([1, 1], [minus, plus], 2) == {2: 2, 16: 2}
    assert ring.product_sum([1, -1, 1], [(), (plus,), ()]) == {0: 2, 1: -1, 8: -1}


def test_packed_folds_call_neither_add_nor_sub(monkeypatch):
    # A fold through add and sub copies the growing sum once per item, which
    # is quadratic in its terms; the packed folds accumulate in one pass.
    ring = rings._PACKED
    x, y = {1: 2, 8: -1}, {1: -2, 0: 3}
    pairs = [(1, x), (-1, y), (1, x), (1, y), (-1, x)]
    rows = [[x, y], [y, x]]
    diagonals = [((0, 1), 1), ((1, 0), -1), ((0, 1), 1)]
    expected = (rings.Ring.signed_sum(ring, pairs), _generic_diagonal_sum(ring, rows, diagonals))
    assert expected[0] == {1: 2, 8: -1}

    def refuse(x, y):
        raise AssertionError("a packed fold called add or sub")

    fused_signs = [1, -1, -1]
    expected += (
        rings.Ring.product_sum(ring, fused_signs, rows),
        rings.Ring.power_sum(ring, fused_signs, [x, y, x], 3),
    )

    monkeypatch.setattr(ring, "add", refuse)
    monkeypatch.setattr(ring, "sub", refuse)
    flat_diagonals = _flat_diagonals(rows, diagonals)
    assert (
        ring.signed_sum(pairs),
        ring.diagonal_sum(*flat_diagonals),
        ring.product_sum(fused_signs, rows),
        ring.power_sum(fused_signs, [x, y, x], 3),
    ) == expected


class _CallCountingRing(rings.Ring):
    """Counts every add, sub and mul it makes and keeps Ring's generic folds
    and square-and-multiply, so each operation of a fold is a call here."""

    def __init__(self, base):
        super().__init__(base.name, base.from_int, base.is_element, base.commutative)
        self.base = base
        self.adds = self.muls = 0

    def add(self, x, y):
        self.adds += 1
        return self.base.add(x, y)

    def sub(self, x, y):
        self.adds += 1
        return self.base.sub(x, y)

    def mul(self, x, y):
        self.muls += 1
        return self.base.mul(x, y)


FOLD_RINGS = {
    "rational": (RATIONAL, rationals),
    "integer": (rings._INTEGER, st.integers(-10**6, 10**6)),
    "packed": (rings._PACKED, packed_polys),
}


@st.composite
def fold_requests(draw):
    """A ring, a list of its elements, signs, a square of its elements with
    signed column images, and a power."""
    ring, elements = FOLD_RINGS[draw(st.sampled_from(sorted(FOLD_RINGS)))]
    n = draw(st.integers(1, 4))
    rows = [[draw(elements) for _ in range(n)] for _ in range(n)]
    images = st.permutations(range(n)).map(tuple)
    return (
        ring,
        draw(st.lists(elements, max_size=6)),
        draw(st.lists(signs, min_size=6, max_size=6)),
        rows,
        draw(st.lists(st.tuples(images, signs), max_size=6)),
        draw(elements),
        draw(st.integers(0, 64)),
    )


@given(fold_requests())
@settings(max_examples=60, deadline=None)
def test_counted_folds_tally_what_one_call_per_operation_counts(request):
    ring, items, sign_list, rows, pairs, x, exponent = request
    flat, even, odd = _flat_diagonals(rows, pairs)
    folds = (
        ("muls", lambda r: r.product(items)),
        ("muls", lambda r: r.sum(items)),
        ("muls", lambda r: r.signed_sum(zip(sign_list, items))),
        ("muls", lambda r: r.diagonal_sum(flat, even, odd)),
        ("muls", lambda r: r.diagonal_sum(flat, iter(even), iter(odd))),
        ("muls", lambda r: r.diagonal_sum(flat, itertools.chain(even, odd), ())),
        # Each row is one product's factors, and the last one is empty.
        ("muls", lambda r: r.product_sum(sign_list, [*rows, []])),
        ("muls", lambda r: r.product_sum(iter(sign_list), map(iter, rows))),
        ("power_muls", lambda r: r.power_sum(sign_list, items, exponent % 8)),
        ("power_muls", lambda r: r.power(x, exponent)),
    )
    for field, fold in folds:
        counting, calls = CountingRing(ring), _CallCountingRing(ring)
        assert fold(counting) == fold(calls)
        counts = counting.counts
        assert (counts.adds, getattr(counts, field)) == (calls.adds, calls.muls)
        assert counts.muls + counts.power_muls == calls.muls
    assert counts.powers == 1


def test_counted_empty_folds_count_nothing():
    for ring, _ in FOLD_RINGS.values():
        counting = CountingRing(ring)
        assert counting.product([]) == ring.one()
        assert counting.sum([]) == counting.signed_sum([]) == ring.zero()
        assert counting.diagonal_sum((ring.one(),), [], []) == ring.zero()
        assert counting.product_sum([], []) == counting.power_sum([], [], 3) == ring.zero()
        assert counting.power(ring.from_int(2), 0) == ring.one()
        assert counting.product([ring.from_int(3)]) == ring.from_int(3)
        assert counting.counts == OpCounts(powers=1)


def _as_poly(value):
    """A packed polynomial read as one in x, its key the exponent; any other
    element unchanged."""
    if not isinstance(value, dict):
        return value
    return Poly({((("x", key),) if key else ()): coeff for key, coeff in value.items()})


@given(st.sampled_from(sorted(FOLD_RINGS)), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_diagonal_sums_match_the_brute_permanent_and_determinant(name, n, data):
    ring, elements = FOLD_RINGS[name]
    rows = data.draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))
    images = list(itertools.permutations(range(n)))
    flat, even, odd = _flat_diagonals(rows, [(image, cycle_sign(image)) for image in images])
    polys_rows = [[_as_poly(x) for x in row] for row in rows]
    for evaluator in (ring, CountingRing(ring)):
        permanent = evaluator.diagonal_sum(flat, even + odd, ())
        determinant = evaluator.diagonal_sum(flat, even, odd)
        assert _as_poly(permanent) == brute_permanent(polys_rows)
        assert _as_poly(determinant) == brute_determinant(polys_rows)


@given(st.sampled_from(sorted(NATIVE_FUSED_RINGS)), st.data())
@settings(max_examples=80, deadline=None)
def test_native_diagonal_sums_match_the_ring_fold(name, data):
    # Ring.diagonal_sum folds one product and one add or sub per diagonal;
    # the integer ring's two sums and the packed ring's fused fold must give
    # the same values, on tuples and on one-shot iterators, with either half
    # empty.
    ring, elements = NATIVE_FUSED_RINGS[name]
    n = data.draw(st.integers(1, 3))
    pool = data.draw(st.lists(elements, min_size=1, max_size=4))
    rows = [[data.draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    images = st.permutations(range(n)).map(tuple)
    pairs = data.draw(st.lists(st.tuples(images, signs), max_size=8))
    flat, even, odd = _flat_diagonals(rows, pairs)
    before = copy.deepcopy(pool)
    for halves in ((even, odd), (even, ()), ((), odd), (even + odd, ()), ((), ())):
        expected = rings.Ring.diagonal_sum(ring, flat, *halves)
        assert ring.diagonal_sum(flat, *map(tuple, halves)) == expected
        assert ring.diagonal_sum(flat, *map(iter, halves)) == expected
        if name == "packed":
            assert 0 not in expected.values()
    assert ring.diagonal_sum(flat, even, odd) == _generic_diagonal_sum(ring, rows, pairs)
    assert pool == before


@pytest.mark.parametrize("name", sorted(NATIVE_FUSED_RINGS))
def test_native_diagonal_sums_match_the_ring_fold_above_the_table_cap(name):
    n = TABLE_MAX_N + 1
    ring = NATIVE_FUSED_RINGS[name][0]
    rng = random.Random(f"31:{name}")
    values = [rng.randint(-9, 9) or 1 for _ in range(n * n)]
    # Packed entries of one term each, so that the sums stay small.
    flat = tuple(values if name == "integer" else ({v % 3: v} for v in values))
    expected = rings.Ring.diagonal_sum(ring, flat, *diagonals(n))
    assert ring.diagonal_sum(flat, *diagonals(n)) == expected
    expected = rings.Ring.diagonal_sum(ring, flat, itertools.chain(*diagonals(n)), ())
    assert ring.diagonal_sum(flat, itertools.chain(*diagonals(n)), ()) == expected
    if name == "integer":
        rows = [values[i * n : (i + 1) * n] for i in range(n)]
        assert ring.diagonal_sum(flat, *diagonals(n)) == gauss_determinant(rows)


@pytest.mark.parametrize("n", range(1, TABLE_MAX_N + 2))
def test_counted_diagonal_sums_tally_one_add_per_diagonal(n):
    # n! adds and n!(n - 1) muls, from the tables and from the blocks above
    # them, for the determinant's halves and for the permanent's chain.
    rng = random.Random(f"31:counted {n}")
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    flat = tuple(itertools.chain.from_iterable(rows))
    size = math.factorial(n)
    for halves, expected in (
        (diagonals(n), gauss_determinant(rows)),
        ((itertools.chain(*diagonals(n)), ()), brute_permanent(rows)),
    ):
        counting = CountingRing(rings._INTEGER)
        assert counting.diagonal_sum(flat, *halves) == expected
        assert counting.counts == OpCounts(adds=size, muls=size * (n - 1))


# Entries of every size the lift makes: zeros, small ints of both signs and
# ints of 64 bits and more.
wide_integers = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)


def _plan_sum(flat, n, *signed):
    """The integer ring's fold of laplace_plan(n, *signed) over flat, with a
    loop that must not run."""

    def loop():
        raise AssertionError("the integer ring ran the loop, not the plan")

    return rings._INTEGER.expanded_sum(lambda: (flat, laplace_plan(n, *signed)), loop)


@pytest.mark.parametrize("n", range(EXPANSION_MIN_N, TABLE_MAX_N + 3))
@given(st.data())
@settings(max_examples=3, deadline=None)
def test_the_laplace_plan_folds_what_the_full_tables_sum(n, data):
    # Ring's loop picks all n! diagonals, and so does the integer ring's
    # picker fold; the plan folds n * 2**(n-1) steps.
    ring = rings._INTEGER
    flat = tuple(data.draw(st.lists(wide_integers, min_size=n * n, max_size=n * n)))

    def every(n):
        return itertools.chain(*diagonals(n)), ()

    for signed, halves in ((True, diagonals), (False, every)):
        expected = rings.Ring.diagonal_sum(ring, flat, *halves(n))
        assert _plan_sum(flat, n, signed) == expected
        assert ring.diagonal_sum(flat, *halves(n)) == expected


# Python ints through Ring's own folds, which never fold a plan.
_LOOPING_INTEGERS = rings.Ring("looping integers", int, lambda x: isinstance(x, int))


def _draw_sections(data, n):
    """n n x n sections of wide integers, as tuples."""
    row = st.tuples(*[wide_integers] * n)
    return data.draw(st.tuples(*[st.tuples(*[row] * n)] * n))


@pytest.mark.parametrize("n", range(1, 6))
@given(st.data())
@settings(max_examples=3, deadline=None)
def test_the_space_determinant_plan_folds_what_the_full_tables_sum(n, data):
    # Ring's loop picks n! assembled matrices and n! diagonals of each; the
    # plan's steps pair a row step with a signed column step.
    sections = _draw_sections(data, n)
    flat = tuple(entry for section in sections for row in section for entry in row)
    looped = space_determinant(CubeMatrix._of(_LOOPING_INTEGERS, sections))
    assert _plan_sum(flat, n, False, True) == looped
    assert space_determinant(CubeMatrix._of(rings._INTEGER, sections)) == looped


@pytest.mark.parametrize("n", range(EXPANSION_MIN_N, TABLE_MAX_N + 1))
@given(st.data())
@settings(max_examples=6, deadline=None)
def test_the_laplace_plan_matches_the_oracles(n, data):
    row = st.lists(wide_integers, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    flat = tuple(itertools.chain.from_iterable(rows))
    determinant, permanent = _plan_sum(flat, n, True), _plan_sum(flat, n, False)
    assert (determinant, permanent) == (gauss_determinant(rows), brute_permanent(rows))


@pytest.mark.parametrize("n", range(1, 6))
@given(st.data())
@settings(max_examples=4, deadline=None)
def test_the_space_determinant_plan_matches_the_oracle(n, data):
    sections = _draw_sections(data, n)
    flat = tuple(entry for section in sections for row in section for entry in row)
    assert _plan_sum(flat, n, False, True) == brute_space_determinant(sections)


def test_integer_definitional_sums_call_no_ring_operation(monkeypatch):
    # Lifted rational requests fold their diagonals in the integer ring's
    # builtin sums: no add, sub, mul or product call per diagonal, nor per
    # assembled cube section.
    rng = random.Random("31:no ring operation")

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    matrix = SquareMatrix(RATIONAL, [[entry() for _ in range(5)] for _ in range(5)])
    cells = [[[entry() for _ in range(4)] for _ in range(4)] for _ in range(4)]
    cube = CubeMatrix(RATIONAL, cells)
    expected = {
        "det_definitional": gauss_determinant(matrix.entries),
        "per_definitional": brute_permanent(matrix.entries),
        "detp_definitional": brute_space_determinant(cells),
    }

    def refuse(*args):
        raise AssertionError("a definitional sum called an integer ring operation")

    for name in ("add", "sub", "mul", "product"):
        monkeypatch.setattr(rings._INTEGER, name, refuse)
    for method, value in expected.items():
        obj = cube if method.startswith("detp") else matrix
        assert evaluate_method(method, obj) == value
