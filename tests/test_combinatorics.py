"""Enumeration order, signs, and the symmetrization operator."""

import functools
import itertools
import math
import subprocess
import sys

import pytest

from matident import combinatorics, identities
from matident.bench import run_counted
from matident.combinatorics import (
    EVEN,
    MAX_ENUMERATION_N,
    ODD,
    TABLE_MAX_N,
    diagonals,
    enumerate_gray_steps,
    enumerate_permutations,
    enumerate_subdiagonals,
    enumerate_submatrices,
    enumerate_transpositions,
    laplace_plan,
)
from matident.identities import EXPANSION_MIN_N, permanent_ryser, symmetrize
from matident.matrices import CubeMatrix, symbolic_matrix
from matident.methods import METHODS, OpCounts, evaluate_method
from matident.rings import MATRIX2, RATIONAL, MatrixElement, Poly, SYMBOLIC
from matident.sampling import (
    derive_rng,
    random_integer_matrix,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
)

from oracles import (
    brute_permanent,
    brute_space_determinant,
    cycle_sign,
    even_transpositions,
    gauss_determinant,
)
from test_cli import _source_env


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


def _picked_positions(n, pickers):
    """What each picker takes from the row-major positions 0..n*n-1."""
    flat = tuple(range(n * n))
    return [pick(flat) for pick in pickers]


def _expected_halves(n):
    """The flat positions i*n + image[i] of the even and of the odd images of
    0..n-1, each half in lexicographic order, signed by the cycle oracle."""
    halves = {1: [], -1: []}
    for image in itertools.permutations(range(n)):
        halves[cycle_sign(image)].append(tuple(i * n + col for i, col in enumerate(image)))
    return [halves[1], halves[-1]]


@pytest.mark.parametrize("n", range(1, TABLE_MAX_N + 1))
def test_diagonal_tables_pick_the_permutation_stream_in_order(n):
    even, odd = diagonals(n)
    assert isinstance(even, tuple) and isinstance(odd, tuple)
    assert [_picked_positions(n, even), _picked_positions(n, odd)] == _expected_halves(n)
    # The halves partition enumerate_permutations(n) by sign, each in its order.
    perms = list(enumerate_permutations(n))
    for half, sign in ((even, EVEN), (odd, ODD)):
        images = [tuple(p % n for p in picked) for picked in _picked_positions(n, half)]
        assert images == [image for image, image_sign in perms if image_sign == sign]
    odds = math.factorial(n) // 2
    assert (len(even), len(odd)) == (math.factorial(n) - odds, odds)
    # Built once: every later call returns the same table.
    assert diagonals(n) is diagonals(n)


def test_the_one_diagonal_of_a_1x1_matrix_is_picked_as_a_1_tuple():
    (pick,), odd = diagonals(1)
    assert odd == ()
    assert pick(("x",)) == ("x",)


@pytest.mark.parametrize("n", [TABLE_MAX_N + 1, TABLE_MAX_N + 2])
def test_diagonals_above_the_table_cap_stream_the_same_order(n):
    even, odd = diagonals(n)
    assert iter(even) is even and iter(odd) is odd
    assert [_picked_positions(n, even), _picked_positions(n, odd)] == _expected_halves(n)
    # One-shot, and each half is its own stream: the odd one read first gives
    # the same picks.
    assert list(even) == list(odd) == []
    even, odd = diagonals(n)
    assert _picked_positions(n, odd) == _expected_halves(n)[1]
    assert _picked_positions(n, even) == _expected_halves(n)[0]
    with pytest.raises(ValueError):
        diagonals(MAX_ENUMERATION_N + 1)
    with pytest.raises(ValueError):
        diagonals(0)


def _plan_steps(plan, level, sources, size):
    """The steps of plan's level, target by target, as (source, position,
    sign): what its pickers take from 0..sources-1 and from the entries and
    their negations, 0..2*size-1."""
    pick_sources, pick_entries, steps = plan[level]
    read = [
        (source, at % size, ODD if at >= size else EVEN)
        for source, at in zip(pick_sources(range(sources)), pick_entries(range(2 * size)))
    ]
    return [read[t : t + steps] for t in range(0, len(read), steps)]


def _expanded_terms(plan, n, size):
    """Every product that plan sums, as {positions row by row: sign}, from
    running its levels on terms instead of values."""
    partial = [{(): EVEN}]
    for level in range(n):
        partial = [
            {
                positions + (at,): sign * step_sign
                for source, at, step_sign in target
                for positions, sign in partial[source].items()
            }
            for target in _plan_steps(plan, level, len(partial), size)
        ]
    (terms,) = partial
    return terms


@pytest.mark.parametrize(
    "n, signed",
    [*((n, (False,)) for n in range(1, 6)), *((n, (True,)) for n in range(1, 6))]
    + [(n, (False, True)) for n in range(1, 4)],
)
def test_laplace_plans_expand_to_every_permutation_once_with_its_sign(n, signed):
    # One axis: entry (i, s(i)) at i*n + s(i).  Two: section i's entry
    # (sigma(i), s(i)) at i*n*n + sigma(i)*n + s(i).  Only the last axis is
    # signed.
    expected = {}
    for images in itertools.product(itertools.permutations(range(n)), repeat=len(signed)):
        positions = tuple(
            functools.reduce(lambda at, image: at * n + image[i], images, i) for i in range(n)
        )
        expected[positions] = cycle_sign(images[-1]) if signed[-1] else EVEN
    assert _expanded_terms(laplace_plan(n, *signed), n, n ** (len(signed) + 1)) == expected


@pytest.mark.parametrize("n", range(1, MAX_ENUMERATION_N + 1))
def test_laplace_plans_are_cached_and_end_in_the_two_row_expansion(n):
    # The plan's last two levels are the Laplace expansion along the last two
    # rows: per column pair x < y, the partial sum over the minor left
    # (rows 0..n-3 in the other columns) times a*d and b*c, where a, b are
    # row n-2's entries in columns x, y and c, d row n-1's, with the signs
    # (-1)**(x + y + 1) and its negation for the determinant and none for
    # the permanent.
    size = n * n
    for signed in (True, False):
        plan = laplace_plan(n, signed)
        assert laplace_plan(n, signed) is plan
        assert len(plan) == n
        if n == 1:
            assert _plan_steps(plan, 0, 1, size) == [[(0, 0, EVEN)]]
            continue
        minors = list(itertools.combinations(range(n), n - 2))
        (last,) = _plan_steps(plan, n - 1, n, size)
        before = _plan_steps(plan, n - 2, len(minors), size)
        terms = {
            (at, last_at): (minors[source], sign * last_sign)
            for target, last_at, last_sign in last
            for source, at, sign in before[target]
        }
        expected = {}
        top = (n - 2) * n
        for x, y in itertools.combinations(range(n), 2):
            minor = tuple(col for col in range(n) if col not in (x, y))
            ad = (-1) ** (x + y + 1) if signed else 1
            expected[top + x, top + n + y] = (minor, ad)
            expected[top + y, top + n + x] = (minor, -ad if signed else 1)
        assert terms == expected


def test_no_expansion_is_built_at_import():
    script = (
        "import matident.cli, matident.combinatorics as c;"
        " print(c.laplace_plan.cache_info().currsize)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_source_env(),
        check=True,
    )
    assert result.stdout == "0\n"


def test_definitional_sums_above_the_table_cap_cache_no_table(monkeypatch):
    # Lifted requests run on the integer ring, which folds a Laplace plan for
    # det and per from EXPANSION_MIN_N and for detp at every size, so they
    # ask for no diagonal table, nor for the block generators that read the
    # table at the cap above it.  Every table asked for, the recursion's own
    # included, is recorded, and so is every plan.
    table, plan = combinatorics._table, identities.laplace_plan
    asked, planned = [], []
    monkeypatch.setattr(combinatorics, "_table", lambda n: asked.append(n) or table(n))
    monkeypatch.setattr(identities, "laplace_plan", lambda *key: planned.append(key) or plan(*key))
    rng = derive_rng(37, "no table")
    for n in range(EXPANSION_MIN_N, 10):
        matrix = random_rational_matrix(rng, n)
        assert evaluate_method("det_definitional", matrix) == gauss_determinant(matrix.entries)
        assert evaluate_method("per_definitional", matrix) == permanent_ryser(matrix)
    cells = [[[random_rational(rng) for _ in range(4)] for _ in range(4)] for _ in range(4)]
    assert evaluate_method("detp_definitional", CubeMatrix(RATIONAL, cells)) == (
        brute_space_determinant(cells)
    )
    assert asked == []
    assert len(planned) == 11
    # A counted run and a symbolic request loop over the table and fold no
    # plan; the diagonals of a matrix above the cap still come from the
    # table at the cap.
    del planned[:]
    n = EXPANSION_MIN_N
    run_counted("det_definitional", random_rational_matrix(rng, n))
    evaluate_method("per_definitional", symbolic_matrix(n))
    assert asked == [n, n] and planned == []
    del asked[:]
    matrix = random_integer_matrix(rng, TABLE_MAX_N + 1)
    assert run_counted("det_definitional", matrix).value == gauss_determinant(matrix.entries)
    assert asked == [TABLE_MAX_N] and planned == []


def _requests(method, rng):
    """Seeded requests for method up to n = 4 over every ring it takes, with
    a random value for every shift."""
    kind = METHODS[method].kind
    for n in range(1, 5):
        params = {
            "gammas": tuple(random_rational(rng) for _ in range(n)),
            "gamma": random_rational(rng),
            "delta": random_rational(rng),
        }
        if kind is CubeMatrix:
            cells = [[[random_rational(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
            yield CubeMatrix(RATIONAL, cells), params
            continue
        yield random_rational_matrix(rng, n), params
        if n <= 3:
            yield symbolic_matrix(n), {}
            if method.startswith("eper"):
                yield random_matrix2_matrix(rng, n), {}


def test_no_registry_method_changes_the_cached_tables():
    tables = {n: diagonals(n) for n in range(1, TABLE_MAX_N + 1)}
    for method, spec in METHODS.items():
        for obj, params in _requests(method, derive_rng(28, "tables", method)):
            # Lifted, plain on the request's own ring, and counted.
            evaluate_method(method, obj, params)
            spec.run(obj, params, OpCounts())
            run_counted(method, obj, params)
    for method in ("det_definitional", "per_definitional"):
        evaluate_method(method, random_integer_matrix(derive_rng(28, method), TABLE_MAX_N))
    for n, table in tables.items():
        assert diagonals(n) is table
        fresh = combinatorics._table.__wrapped__(n)
        assert [_picked_positions(n, half) for half in table] == [
            _picked_positions(n, half) for half in fresh
        ]


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
    assert symmetrize(SYMBOLIC, [x, y, x]) == x * x * y


def test_symmetrize_rejects_empty_input():
    with pytest.raises(ValueError):
        symmetrize(RATIONAL, [])


def _gray_subsets(n):
    """The subsets the Gray steps visit, with their signs, from the empty one."""
    cols = set()
    sign = EVEN
    visited = [(tuple(sorted(cols)), sign)]
    for j, entering in enumerate_gray_steps(n):
        assert (j in cols) != entering
        (cols.add if entering else cols.remove)(j)
        sign = -sign
        visited.append((tuple(sorted(cols)), sign))
    return visited


@pytest.mark.parametrize("n", range(6))
def test_subsets_follow_the_binary_counter_with_their_signs(n):
    # Step k reaches the reflected binary code k ^ (k >> 1) of the counter k.
    masks = [k ^ k >> 1 for k in range(2**n)]
    expected = [
        (tuple(j for j in range(n) if mask >> j & 1), (-1) ** bin(mask).count("1"))
        for mask in masks
    ]
    assert _gray_subsets(n) == expected


def test_subsets_have_no_size_cap():
    assert 12 > MAX_ENUMERATION_N
    assert sum(1 for _ in enumerate_gray_steps(12)) == 4095
    assert list(enumerate_gray_steps(0)) == []
    with pytest.raises(ValueError):
        list(enumerate_gray_steps(-1))


@pytest.mark.parametrize("n", range(1, 9))
def test_gray_steps_visit_every_subset_once_with_alternating_signs(n):
    visited = _gray_subsets(n)
    assert len({cols for cols, _ in visited}) == 2**n
    assert all(sign == (-1) ** len(cols) for cols, sign in visited)
    assert [sign for _, sign in visited] == [(-1) ** k for k in range(2**n)]
    # one column moves per step
    for (before, _), (after, _) in zip(visited, visited[1:]):
        assert len(set(before) ^ set(after)) == 1


def _replayed(n):
    arrangement = list(range(n))
    arrangements = [tuple(arrangement)]
    for i in enumerate_transpositions(n):
        assert 0 <= i < n - 1
        arrangement[i], arrangement[i + 1] = arrangement[i + 1], arrangement[i]
        arrangements.append(tuple(arrangement))
    return arrangements


@pytest.mark.parametrize("n", range(1, 8))
def test_transpositions_visit_every_permutation_once(n):
    arrangements = _replayed(n)
    assert len(arrangements) == math.factorial(n)
    assert set(arrangements) == set(itertools.permutations(range(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_each_transposition_flips_the_cycle_sign(n):
    signs = [cycle_sign(arrangement) for arrangement in _replayed(n)]
    assert signs == [(-1) ** k for k in range(math.factorial(n))]


def test_transpositions_follow_plain_changes():
    # 012, 021, 201, 210, 120, 102: the largest value sweeps, then one step.
    assert _replayed(3) == [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0), (1, 2, 0), (1, 0, 2)]
    assert list(enumerate_transpositions(4))[:6] == [2, 1, 0, 2, 0, 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_transpositions_replay_the_direction_array_algorithm(n):
    # Visiting every arrangement with alternating signs would not pin the
    # order; the identities' op counts and bytes depend on it.
    assert list(enumerate_transpositions(n)) == even_transpositions(n)


def test_transposition_stream_size_limits():
    assert list(enumerate_transpositions(1)) == []
    with pytest.raises(ValueError):
        list(enumerate_transpositions(MAX_ENUMERATION_N + 1))
    with pytest.raises(ValueError):
        list(enumerate_transpositions(0))
