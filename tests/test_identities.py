"""Definitional evaluators against their power-sum identities."""

import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matident.bench import CountingRing
from matident.identities import (
    _gray_sums,
    determinant,
    determinant_identity,
    determinant_zero_criterion,
    diagonal_power_residual,
    permanent,
    permanent_identity,
    permanent_ryser,
    space_determinant,
    space_determinant_identity,
    submatrix_power_residual,
    symmetrized_permanent,
    symmetrized_permanent_identity,
    symmetrized_permanent_zero_criterion,
)
from matident.matrices import (
    CubeMatrix,
    SquareMatrix,
    symbolic_cube,
    symbolic_gammas,
    symbolic_matrix,
)
from matident import rings
from matident.methods import lift
from matident.rings import MATRIX2, RATIONAL, MatrixElement, Poly
from matident.sampling import (
    derive_rng,
    random_integer,
    random_integer_cube,
    random_matrix2_element,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
    singular_matrix,
)
from matident.verify import _vanishing_symmetrized_instance

from oracles import (
    brute_determinant,
    brute_permanent,
    brute_space_determinant,
    brute_submatrix_power_sum,
    brute_symmetrized_permanent,
    gauss_determinant,
)


M2 = SquareMatrix(RATIONAL, [[1, 2], [3, 4]])
M3 = SquareMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def test_frozen_values():
    assert permanent(M2) == 10
    assert determinant(M2) == -2
    assert permanent(M3) == 450
    assert determinant(M3) == 0
    assert permanent_identity(M2) == 10
    assert permanent_ryser(M2) == 10
    assert determinant_identity(M2) == -2
    assert permanent_identity(M3) == 450
    assert permanent_ryser(M3) == 450
    assert determinant_identity(M3) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permanent_forms_agree_with_the_oracle(n):
    rng = derive_rng(21, "per", n)
    matrix = random_rational_matrix(rng, n)
    expected = brute_permanent(matrix.entries)
    assert permanent(matrix) == expected
    assert permanent_ryser(matrix) == expected
    assert permanent_identity(matrix) == expected
    gammas = tuple(random_rational(rng) for _ in range(n))
    assert permanent_identity(matrix, gammas) == expected


def test_permanent_identity_is_shift_independent_symbolically():
    matrix = symbolic_matrix(2)
    gammas = symbolic_gammas(2)
    value = permanent_identity(matrix, gammas)
    assert value == permanent(matrix)
    assert not (value.variables() & {"g_1", "g_2"})


def test_permanent_identity_expands_to_the_permanent_polynomial():
    for n in (2, 3):
        matrix = symbolic_matrix(n)
        assert permanent_identity(matrix) == brute_permanent(matrix.entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_forms_agree_with_both_oracles(n):
    rng = derive_rng(22, "det", n)
    matrix = random_rational_matrix(rng, n)
    expected = brute_determinant(matrix.entries)
    assert determinant(matrix) == expected
    assert gauss_determinant(matrix.entries) == expected
    for gamma in (None, Fraction(1), Fraction(-3, 2), random_rational(rng)):
        assert determinant_identity(matrix, gamma) == expected


def test_determinant_identity_expands_symbolically():
    for n in (2, 3):
        matrix = symbolic_matrix(n)
        assert determinant_identity(matrix) == brute_determinant(matrix.entries)


def test_determinant_identity_with_symbolic_shift():
    matrix = symbolic_matrix(2)
    gamma = symbolic_gammas(1)[0]
    value = determinant_identity(matrix, gamma)
    assert value == brute_determinant(matrix.entries)
    assert "g_1" not in value.variables()


def test_integer_determinants_stay_integral():
    rng = derive_rng(23, "integrality")
    for n in (2, 3, 4):
        entries = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        value = determinant_identity(SquareMatrix(RATIONAL, entries))
        assert value.denominator == 1


def test_integrality_guard_holds_under_a_wrapper_ring():
    class OffByHalf(CountingRing):
        def _div_exact(self, x, k):
            return super()._div_exact(x, k) + Fraction(1, 2)

    matrix = SquareMatrix(RATIONAL, [[1, 2], [3, 4]])
    with pytest.raises(ArithmeticError):
        determinant_identity(matrix.with_ring(OffByHalf(RATIONAL)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_power_sums_vanish_below_n(n):
    rng = derive_rng(24, "cor1", n)
    matrix = random_rational_matrix(rng, n)
    for t in range(1, n):
        residual = diagonal_power_residual(matrix, t)
        assert RATIONAL.is_zero(residual) and residual == 0
    # at t = n the residual carries the determinant itself
    assert diagonal_power_residual(matrix, n) == math.factorial(n) * determinant(matrix)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("draw", [random_integer, random_rational], ids=["integer", "pq"])
def test_transposition_and_gray_walks_agree_with_the_oracles(n, draw):
    # determinant_identity and diagonal_power_residual walk the diagonals by
    # adjacent transpositions; both permanent identities walk the column
    # subsets in Gray-code order.
    rng = derive_rng(25, "walks", draw.__name__, n)
    rows = [[draw(rng) for _ in range(n)] for _ in range(n)]
    matrix = SquareMatrix(RATIONAL, rows)
    det = brute_determinant(rows)
    per = brute_permanent(rows)
    assert determinant_identity(matrix, random_rational(rng)) == det
    assert permanent_identity(matrix, [random_rational(rng) for _ in range(n)]) == per
    assert permanent_ryser(matrix) == per
    # At n = 7 each residual walks 5040 diagonals; the two top exponents do.
    exponents = range(1, n + 1) if n < 7 else (n - 1, n)
    for t in exponents:
        expected = math.factorial(n) * det if t == n else 0
        assert diagonal_power_residual(matrix, t) == expected


@st.composite
def gray_sum_cases(draw):
    ring, elements = draw(
        st.sampled_from(
            [
                (RATIONAL, st.fractions(min_value=-9, max_value=9, max_denominator=6)),
                (rings._INTEGER, st.integers(-10**6, 10**6)),
            ]
        )
    )
    width = draw(st.integers(0, 3))
    vector = st.lists(elements, min_size=width, max_size=width)
    return ring, draw(vector), draw(st.lists(vector, max_size=5)), draw(st.sampled_from((1, -1)))


@given(gray_sum_cases())
def test_gray_sums_reach_each_reflected_binary_subset(case):
    # into = 1 walks with enter/leave = add/sub, into = -1 with sub/add.
    ring, start, vectors, into = case
    enter, leave = (ring.add, ring.sub) if into == 1 else (ring.sub, ring.add)
    walk = list(_gray_sums(start, vectors, enter, leave))
    assert len(walk) == 2 ** len(vectors)
    for k, (sign, current) in enumerate(walk):
        subset = [j for j in range(len(vectors)) if (k ^ k >> 1) >> j & 1]
        expected = [
            value + into * sum(vectors[j][i] for j in subset) for i, value in enumerate(start)
        ]
        assert type(current) is tuple
        assert (sign, list(current)) == ((-1) ** len(subset), expected)
    if not vectors:
        assert walk == [(1, tuple(start))]


def test_diagonal_power_identity_validates_exponent():
    with pytest.raises(ValueError):
        diagonal_power_residual(M3, 0)
    with pytest.raises(ValueError):
        diagonal_power_residual(M3, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_zero_criterion_matches_det(n):
    rng = derive_rng(25, "zero-criterion", n)
    for _ in range(5):
        matrix = random_rational_matrix(rng, n)
        assert determinant_zero_criterion(matrix) == (determinant(matrix) == 0)
        degenerate = singular_matrix(rng, n)
        assert determinant(degenerate) == 0
        assert determinant_zero_criterion(degenerate)


def test_symmetrized_permanent_matches_the_oracle():
    rng = derive_rng(26, "eper")
    for n in (1, 2, 3):
        matrix = random_matrix2_matrix(rng, n)
        expected = brute_symmetrized_permanent(matrix.entries)
        assert MATRIX2.eq(symmetrized_permanent(matrix), expected)
        assert MATRIX2.eq(symmetrized_permanent_identity(matrix), expected)
        for _ in range(3):
            delta = random_matrix2_element(rng)
            assert MATRIX2.eq(symmetrized_permanent_identity(matrix, delta), expected)


def test_symmetrized_permanent_collapses_for_commuting_entries():
    # scalar matrices commute, so eper reduces to the plain permanent
    rng = derive_rng(27, "eper-scalar")
    values = [[random_rational(rng) for _ in range(3)] for _ in range(3)]
    embedded = SquareMatrix(
        MATRIX2, [[MatrixElement.scalar(v) for v in row] for row in values]
    )
    expected = MatrixElement.scalar(brute_permanent(values))
    assert MATRIX2.eq(symmetrized_permanent(embedded), expected)
    assert MATRIX2.eq(symmetrized_permanent_identity(embedded), expected)


def test_symmetrized_permanent_identity_shift_independent_symbolically():
    # over a commutative ring the identity must still hold and drop delta
    matrix = symbolic_matrix(2)
    delta = Poly.variable("d")
    value = symmetrized_permanent_identity(matrix, delta)
    assert value == brute_permanent(matrix.entries)
    assert "d" not in value.variables()


@pytest.mark.parametrize("n", [2, 3])
def test_submatrix_power_sums_vanish_below_n(n):
    rng = derive_rng(28, "cor2", n)
    matrix = random_matrix2_matrix(rng, n)
    for m in range(1, n):
        assert MATRIX2.is_zero(submatrix_power_residual(matrix, m))
    expected = MATRIX2.mul(
        MatrixElement.scalar(math.factorial(n)), symmetrized_permanent(matrix)
    )
    assert MATRIX2.eq(submatrix_power_residual(matrix, n), expected)


def test_submatrix_power_identity_validates_exponent():
    matrix = random_matrix2_matrix(derive_rng(29, "cor2-domain"), 2)
    with pytest.raises(ValueError):
        submatrix_power_residual(matrix, 0)
    with pytest.raises(ValueError):
        submatrix_power_residual(matrix, 3)


def random_rational_matrix2_element(rng):
    return MatrixElement([[random_rational(rng) for _ in range(2)] for _ in range(2)])


def _own_element(value):
    """A value of the lifted rings as an element with its own operators: ints
    stay ints and (a, b, c, d) tuples become 2x2 matrix elements."""
    return MatrixElement([value[:2], value[2:]]) if isinstance(value, tuple) else value


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "draw",
    [random_integer, random_rational, random_rational_matrix2_element],
    ids=["integer", "pq", "matrix2"],
)
def test_submatrix_walk_agrees_with_the_oracle_plain_and_lifted(n, draw):
    # Both walks of _signed_submatrix_power_sum against every submatrix sum
    # rebuilt from its entries, on the request and on its lifted twin.
    rng = derive_rng(37, "submatrix walk", draw.__name__, n)
    ring = MATRIX2 if draw is random_rational_matrix2_element else RATIONAL
    matrix = SquareMatrix(ring, [[draw(rng) for _ in range(n)] for _ in range(n)])
    delta = draw(rng)
    lifted, params, _ = lift(matrix, {"delta": delta})
    assert lifted.ring in (rings._INTEGER, rings._INTEGER_MATRIX)
    for obj, shift in ((matrix, delta), (lifted, params["delta"])):
        rows = [[_own_element(entry) for entry in row] for row in obj.entries]
        zero = _own_element(obj.ring.zero())
        for m in range(1, n + 1):
            residual = _own_element(submatrix_power_residual(obj, m))
            assert residual == brute_submatrix_power_sum(rows, m, zero)
        for free in (None, shift):
            d = zero if free is None else _own_element(free)
            expected = brute_submatrix_power_sum(rows, n, d) - functools.reduce(
                operator.mul, [d] * n
            )
            value = _own_element(symmetrized_permanent_identity(obj, free))
            factorial = math.factorial(n)
            if isinstance(value, MatrixElement):
                factorial = MatrixElement.scalar(factorial)
            assert value * factorial == expected


def test_symmetrized_zero_criterion_both_directions():
    rng = derive_rng(30, "eper-zero")
    x = random_matrix2_element(rng)
    y = random_matrix2_element(rng)
    vanishing = SquareMatrix(MATRIX2, [[x, x], [MATRIX2.neg(y), y]])
    assert MATRIX2.is_zero(symmetrized_permanent(vanishing))
    assert symmetrized_permanent_zero_criterion(vanishing)
    generic = random_matrix2_matrix(rng, 2)
    assert symmetrized_permanent_zero_criterion(generic) == MATRIX2.is_zero(
        symmetrized_permanent(generic)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_zero_instance_is_zero_by_the_oracle(n):
    for seed in (1, 2, 3):
        instance = _vanishing_symmetrized_instance(derive_rng(seed, "cor2-zero", n), n)
        assert MATRIX2.is_zero(brute_symmetrized_permanent(instance.entries))
        assert symmetrized_permanent_zero_criterion(instance)
        if n >= 2:
            entries = [entry for row in instance.entries for entry in row]
            assert any(
                not MATRIX2.eq(MATRIX2.mul(a, b), MATRIX2.mul(b, a))
                for a in entries
                for b in entries
            )


def test_space_determinant_n1_is_the_single_entry():
    cube = CubeMatrix(RATIONAL, [[[Fraction(5)]]])
    assert space_determinant(cube) == 5
    assert space_determinant_identity(cube) == 5


def test_space_determinant_hand_expansion_n2():
    # sections: A_1 = [[1,2],[3,4]], A_2 = [[5,6],[7,8]]
    cube = CubeMatrix(RATIONAL, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    # identity assembly: per([[1,6],[3,8]]) - per([[2,5],[4,7]])
    expected = (1 * 8 + 6 * 3) - (2 * 7 + 5 * 4)
    assert space_determinant(cube) == expected
    assert space_determinant_identity(cube) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_space_determinant_identity_agrees_with_the_oracle(n):
    rng = derive_rng(31, "detp", n)
    cube = random_integer_cube(rng, n)
    expected = brute_space_determinant(cube.sections)
    assert space_determinant(cube) == expected
    assert space_determinant_identity(cube) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("draw", [random_integer, random_rational])
def test_space_determinant_agrees_with_the_oracle_plain_and_lifted(n, draw):
    rng = derive_rng(33, "detp definitional", n, draw.__name__)
    cube = CubeMatrix(
        RATIONAL, [[[draw(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    )
    expected = brute_space_determinant(cube.sections)
    assert space_determinant(cube) == expected
    # The lifted cube folds on native ints, the path evaluate_method takes.
    lifted, _, down = lift(cube, {})
    assert lifted.ring is rings._INTEGER
    assert down(space_determinant(lifted)) == expected


def test_space_determinant_expands_symbolically():
    cube = symbolic_cube(2)
    assert space_determinant_identity(cube) == brute_space_determinant(cube.sections)


def test_commutativity_requirements():
    noncommutative = random_matrix2_matrix(derive_rng(32, "noncomm"), 2)
    for evaluator in (permanent, permanent_identity, permanent_ryser, determinant):
        with pytest.raises(ValueError):
            evaluator(noncommutative)
    with pytest.raises(ValueError):
        CubeMatrix(MATRIX2, [[[MATRIX2.one()]]])


def test_free_parameter_validation():
    with pytest.raises(ValueError):
        permanent_identity(M2, (Fraction(1),))  # wrong length
    with pytest.raises(ValueError):
        determinant_identity(M2, "not an element")
    with pytest.raises(ValueError):
        symmetrized_permanent_identity(M2, object())
