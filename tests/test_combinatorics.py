"""Enumeration order, parity, and the symmetrization operator."""

import math

import pytest

from matident.combinatorics import (
    EVEN,
    MAX_ENUMERATION_N,
    ODD,
    enumerate_diagonals,
    enumerate_permutations,
    enumerate_subdiagonals,
    enumerate_submatrices,
    inversion_count,
    symmetrize,
)
from matident.rings import MATRIX2, RATIONAL, MatrixElement, Poly, SYMBOLIC

from oracles import cycle_sign


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_count_and_parity_split(n):
    perms = list(enumerate_permutations(n))
    assert len(perms) == math.factorial(n)
    evens = sum(1 for p in perms if p.is_even)
    assert evens == math.factorial(n) // 2 if n > 1 else evens == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_permutation_sign_matches_cycle_decomposition(n):
    for perm in enumerate_permutations(n):
        zero_based = tuple(v - 1 for v in perm.mapping)
        assert perm.sign == cycle_sign(zero_based)


def test_permutations_come_out_in_lexicographic_order():
    mappings = [p.mapping for p in enumerate_permutations(3)]
    assert mappings == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]


def test_inversion_count_examples():
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((3, 2, 1)) == 3
    assert inversion_count((2, 3, 1)) == 2


def test_enumeration_size_cap():
    with pytest.raises(ValueError):
        list(enumerate_permutations(MAX_ENUMERATION_N + 1))
    with pytest.raises(ValueError):
        list(enumerate_permutations(0))


def test_diagonals_split_by_parity():
    even = list(enumerate_diagonals(3, EVEN))
    odd = list(enumerate_diagonals(3, ODD))
    assert len(even) == len(odd) == 3
    assert all(d.sign == 1 for d in even)
    assert all(d.sign == -1 for d in odd)
    assert even[0].positions == ((1, 1), (2, 2), (3, 3))


@pytest.mark.parametrize("n", range(2, 6))
def test_subdiagonal_counts(n):
    # every parent contributes C(n, k) length-k subdiagonals
    for k in range(n + 1):
        for parity in (EVEN, ODD):
            expected = (math.factorial(n) // 2) * math.comb(n, k)
            assert sum(1 for _ in enumerate_subdiagonals(n, k, parity)) == expected


def test_subdiagonals_retain_their_parent():
    subs = list(enumerate_subdiagonals(3, 2, EVEN))
    assert len(subs) == 9
    # same position set, different parents: both (1,1),(2,2) truncations exist
    first_two = [s for s in subs if s.positions == ((1, 1), (2, 2))]
    assert len(first_two) == 1  # only the identity parent produces it
    assert all(s.length == 2 and s.parity == EVEN for s in subs)


def test_zero_length_subdiagonals_one_per_parent():
    subs = list(enumerate_subdiagonals(2, 0, ODD))
    assert len(subs) == 1
    assert subs[0].positions == ()
    with pytest.raises(ValueError):
        list(enumerate_subdiagonals(2, 3, EVEN))


def test_submatrix_selector_enumeration():
    selectors = list(enumerate_submatrices(3))
    assert len(selectors) == (2**3 - 1) ** 2
    assert selectors[0].rows == (1,) and selectors[0].cols == (1,)
    # size-major order: all 1x1 selectors come before any 1x2 selector
    sizes = [(len(s.rows), len(s.cols)) for s in selectors]
    assert sizes == sorted(sizes)
    full = selectors[-1]
    assert full.rows == (1, 2, 3) and full.cols == (1, 2, 3)
    assert full.sign == 1
    assert next(s.sign for s in selectors if (len(s.rows), len(s.cols)) == (1, 2)) == -1


def test_symmetrize_is_order_free():
    a = MatrixElement([[1, 2], [3, 4]])
    b = MatrixElement([[0, 1], [1, 0]])
    c = MatrixElement([[2, 0], [0, 1]])
    assert MATRIX2.eq(symmetrize(MATRIX2, [a, b, c]), symmetrize(MATRIX2, [c, a, b]))
    # two factors: (ab + ba) / 2
    expected = MATRIX2.div_int(MATRIX2.add(MATRIX2.mul(a, b), MATRIX2.mul(b, a)), 2)
    assert MATRIX2.eq(symmetrize(MATRIX2, [a, b]), expected)


def test_symmetrize_of_equal_factors_is_a_power():
    a = MatrixElement([[1, 1], [0, 2]])
    for m in range(1, 4):
        assert MATRIX2.eq(symmetrize(MATRIX2, [a] * m), MATRIX2.power(a, m))


def test_symmetrize_degenerates_over_commutative_rings():
    x = Poly.variable("x")
    y = Poly.variable("y")
    assert symmetrize(SYMBOLIC, [x, y, x]) == x**2 * y


def test_symmetrize_rejects_empty_input():
    with pytest.raises(ValueError):
        symmetrize(RATIONAL, [])

