"""Enumeration order, signs, and the symmetrization operator."""

import itertools
import math

import pytest

from matident.combinatorics import (
    EVEN,
    MAX_ENUMERATION_N,
    ODD,
    enumerate_permutations,
    enumerate_subdiagonals,
    enumerate_submatrices,
    enumerate_subsets,
)
from matident.identities import symmetrize
from matident.rings import MATRIX2, RATIONAL, MatrixElement, Poly, SYMBOLIC

from oracles import cycle_sign


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_count_and_parity_split(n):
    perms = list(enumerate_permutations(n))
    assert len(perms) == math.factorial(n)
    evens = sum(1 for _, sign in perms if sign == EVEN)
    assert evens == math.factorial(n) // 2 if n > 1 else evens == 1
    assert {sign for _, sign in perms} <= {EVEN, ODD}


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_sign_matches_cycle_decomposition(n):
    perms = list(enumerate_permutations(n))
    for image, sign in perms:
        assert sign == cycle_sign(image)
    images = [image for image, _ in perms]
    assert len(images) == math.factorial(n)
    assert all(sorted(image) == list(range(n)) for image in images)
    # strictly increasing, hence n! distinct images
    assert all(a < b for a, b in zip(images, images[1:]))


def test_permutations_come_out_in_lexicographic_order():
    assert list(enumerate_permutations(3)) == [
        ((0, 1, 2), EVEN),
        ((0, 2, 1), ODD),
        ((1, 0, 2), ODD),
        ((1, 2, 0), EVEN),
        ((2, 0, 1), EVEN),
        ((2, 1, 0), ODD),
    ]


def test_enumeration_size_cap():
    with pytest.raises(ValueError):
        list(enumerate_permutations(MAX_ENUMERATION_N + 1))
    with pytest.raises(ValueError):
        list(enumerate_permutations(0))


def test_diagonals_split_by_parity():
    # k = n gives the full diagonals of the requested sign
    assert list(enumerate_subdiagonals(3, 3, EVEN)) == [
        ((0, 0), (1, 1), (2, 2)),
        ((0, 1), (1, 2), (2, 0)),
        ((0, 2), (1, 0), (2, 1)),
    ]
    assert list(enumerate_subdiagonals(3, 3, ODD)) == [
        ((0, 0), (1, 2), (2, 1)),
        ((0, 1), (1, 0), (2, 2)),
        ((0, 2), (1, 1), (2, 0)),
    ]


@pytest.mark.parametrize("n", range(2, 6))
def test_subdiagonal_counts(n):
    # every parent contributes C(n, k) length-k subdiagonals
    for k in range(n + 1):
        for sign in (EVEN, ODD):
            expected = (math.factorial(n) // 2) * math.comb(n, k)
            assert sum(1 for _ in enumerate_subdiagonals(n, k, sign)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_full_diagonals_are_the_parents_of_that_sign_in_order(n):
    for sign in (EVEN, ODD):
        parents = [image for image, parent_sign in enumerate_permutations(n) if parent_sign == sign]
        diagonals = [tuple(col for _, col in d) for d in enumerate_subdiagonals(n, n, sign)]
        assert diagonals == parents


@pytest.mark.parametrize("n", range(1, 8))
def test_subdiagonals_match_a_permutation_oracle(n):
    parents = list(itertools.permutations(range(n)))
    for k in range(n + 1):
        row_subsets = list(itertools.combinations(range(n), k))
        for sign in (EVEN, ODD):
            expected = [
                tuple((i, perm[i]) for i in rows)
                for perm in parents
                if cycle_sign(perm) == sign
                for rows in row_subsets
            ]
            assert list(enumerate_subdiagonals(n, k, sign)) == expected


def test_subdiagonals_retain_their_parent():
    subs = list(enumerate_subdiagonals(3, 2, EVEN))
    assert len(subs) == 9
    # rows 0 and 1 on the main diagonal come only from the identity parent
    assert subs.count(((0, 0), (1, 1))) == 1
    assert all(len(positions) == 2 for positions in subs)


def test_zero_length_subdiagonals_one_per_parent():
    assert list(enumerate_subdiagonals(2, 0, ODD)) == [()]
    with pytest.raises(ValueError):
        list(enumerate_subdiagonals(2, 3, EVEN))
    with pytest.raises(ValueError):
        list(enumerate_subdiagonals(2, 1, 0))


def test_submatrix_selector_enumeration():
    selections = list(enumerate_submatrices(3))
    assert len(selections) == (2**3 - 1) ** 2
    assert selections[0] == ((0,), (0,))
    # size-major order: all 1x1 selections come before any 1x2 selection
    sizes = [(len(rows), len(cols)) for rows, cols in selections]
    assert sizes == sorted(sizes)
    assert selections[-1] == ((0, 1, 2), (0, 1, 2))
    # the sign (-1)**(rows + cols) is +1 for the full 3x3 and -1 for a 1x2;
    # the nonempty row sets alone have signs adding up to -1, so all add to 1
    signs = [(-1) ** (r + s) for r, s in sizes]
    assert signs[-1] == 1 and signs[sizes.index((1, 2))] == -1
    assert sum(signs) == 1


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



@pytest.mark.parametrize("n", range(6))
def test_subsets_follow_the_binary_counter_with_their_signs(n):
    expected = [
        (tuple(j for j in range(n) if mask >> j & 1), (-1) ** bin(mask).count("1"))
        for mask in range(2**n)
    ]
    assert list(enumerate_subsets(n)) == expected


def test_subsets_have_no_size_cap():
    assert 12 > MAX_ENUMERATION_N
    assert sum(1 for _ in enumerate_subsets(12)) == 4096
    with pytest.raises(ValueError):
        list(enumerate_subsets(-1))
