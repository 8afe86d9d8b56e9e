"""Instrumented operation counting and the method comparison table."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import pytest

from matident import bench, rings
from matident.bench import (
    COMPARED_METHODS,
    CountingRing,
    compare_methods,
    count_ops,
    format_table,
    run_counted,
    write_records,
)
from matident.cli import main
from matident.combinatorics import MAX_ENUMERATION_N
from matident.matrices import (
    CubeMatrix,
    SquareMatrix,
    symbolic_cube,
    symbolic_gammas,
    symbolic_matrix,
)
from matident.methods import (
    METHODS,
    MethodDisagreement,
    MethodSpec,
    OpCounts,
    evaluate_method,
)
from matident.rings import MATRIX2, RATIONAL, SYMBOLIC, MatrixElement, Poly
from matident.sampling import (
    derive_rng,
    random_integer,
    random_matrix2_element,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
)
from oracles import brute_permanent, gauss_determinant

M3 = SquareMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def test_definitional_permanent_multiplication_count():
    # n! diagonals, n-1 multiplications each
    report = run_counted("per_definitional", M3)
    assert report.muls == math.factorial(3) * 2 == 12
    assert report.powers == 0 and report.int_divs == 0


def test_ryser_multiplication_count_and_bound():
    report = run_counted("per_ryser", M3)
    assert report.muls == (2**3 - 1) * 2 == 14
    assert report.muls <= 3 * (2**3 - 1)


def test_identity_permanent_multiplication_count():
    for n in (2, 3, 4):
        matrix = random_rational_matrix(derive_rng(41, "count", n), n)
        report = run_counted("per_identity", matrix)
        assert report.muls == 2**n * (n - 1)


def test_determinant_identity_power_count():
    report = run_counted("det_identity", M3)
    # one n-th power per full diagonal and per length-(n-1) subdiagonal
    assert report.powers == math.factorial(3) + 3 * math.factorial(3) == 24
    assert report.int_divs == 1


def test_identity_evaluators_multiply_only_inside_powers():
    report = run_counted("det_identity", M3)
    assert report.muls == 0 and report.power_muls > 0
    matrix = random_matrix2_matrix(derive_rng(42, "structural"), 2)
    report = run_counted("eper_identity", matrix)
    assert report.muls == 0 and report.power_muls > 0


def test_polarization_evaluation_count():
    for n in (2, 3):
        matrix = random_rational_matrix(derive_rng(43, "f-evals", n), n)
        report = run_counted("per_polarization", matrix)
        assert report.f_evals == 2**n


def test_instrumented_value_matches_plain_value():
    for method in COMPARED_METHODS:
        value = evaluate_method(method, M3)
        report = run_counted(method, M3)
        assert report.value == value
        assert evaluate_method(method, M3) == value


def test_counting_ring_reports_its_base():
    counting = CountingRing(RATIONAL)
    assert counting.commutative
    counting.power(counting.from_int(2), 5)
    assert counting.counts.powers == 1
    assert counting.counts.muls == 0
    assert counting.counts.power_muls > 0


def test_unknown_method_is_rejected():
    cube = CubeMatrix(RATIONAL, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    for run in (evaluate_method, count_ops, run_counted):
        with pytest.raises(ValueError, match="unknown method 'per_quantum'"):
            run("per_quantum", M3)
        with pytest.raises(ValueError, match="method detp_definitional expects a cube"):
            run("detp_definitional", M3)
        with pytest.raises(ValueError, match="method per_definitional expects a square matrix"):
            run("per_definitional", cube)


def test_compare_methods_is_deterministic_and_consistent():
    rows = compare_methods(2, 4, seed=1)
    again = compare_methods(2, 4, seed=1)
    assert rows == again
    assert len(rows) == 3 * len(COMPARED_METHODS)
    by_key = {(row["method"], row["n"]): row for row in rows}
    for n in (2, 3, 4):
        per_value = by_key[("per_definitional", n)]["value"]
        assert by_key[("per_ryser", n)]["value"] == per_value
        assert by_key[("per_identity", n)]["value"] == per_value
        det_value = by_key[("det_definitional", n)]["value"]
        assert by_key[("det_identity", n)]["value"] == det_value


def test_compare_methods_rejects_a_counted_run_that_disagrees(monkeypatch):
    spec = bench.METHODS["det_identity"]

    def skewed(matrix, params, counts):
        value = spec.run(matrix, params, counts)
        return value + 1 if isinstance(matrix.ring, CountingRing) else value

    monkeypatch.setitem(bench.METHODS, "det_identity", dataclasses.replace(spec, run=skewed))
    with pytest.raises(MethodDisagreement, match="instrumented det_identity"):
        compare_methods(2, 2, seed=1)


def test_compare_methods_validates_bounds():
    with pytest.raises(ValueError):
        compare_methods(0, 4, seed=1)
    with pytest.raises(ValueError):
        compare_methods(2, 9, seed=1)
    with pytest.raises(ValueError):
        compare_methods(5, 4, seed=1)


def test_table_is_aligned_and_free_of_timings(tmp_path):
    rows = compare_methods(2, 3, seed=7)
    table = format_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == [
        "method",
        "n",
        "value",
        "adds",
        "negs",
        "muls",
        "power_muls",
        "powers",
        "int_divs",
    ]
    assert len(lines) == 1 + len(rows)
    assert "wall" not in table and "time" not in table
    out = tmp_path / "rows.jsonl"
    write_records(rows, str(out))
    recorded = [json.loads(line) for line in out.read_text().splitlines()]
    assert recorded == rows


def test_economy_of_the_identity_form():
    ratios = []
    for n in range(2, 8):
        matrix = random_rational_matrix(derive_rng(44, "economy", n), n)
        identity_muls = run_counted("per_identity", matrix).muls
        definitional_muls = run_counted("per_definitional", matrix).muls
        if n >= 4:
            assert identity_muls < definitional_muls
        ratios.append(identity_muls / definitional_muls)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


COUNT_FIELDS = ("adds", "negs", "muls", "power_muls", "powers", "int_divs", "f_evals")


def _rational_request(method, n):
    """A seeded p/q matrix or cube for method, with a random value for every shift."""
    rng = derive_rng(45, "lift", method, n)
    if METHODS[method].kind is CubeMatrix:
        obj = CubeMatrix(
            RATIONAL,
            [[[random_rational(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)],
        )
    else:
        obj = random_rational_matrix(rng, n)
    params = {
        "gammas": tuple(random_rational(rng) for _ in range(n)),
        "gamma": random_rational(rng),
        "delta": random_rational(rng),
    }
    return obj, params


@pytest.mark.parametrize("method", METHODS)
def test_rational_requests_run_on_integers_with_the_same_value_and_counts(method):
    spec = METHODS[method]
    for n in range(1, 6):
        obj, params = _rational_request(method, n)
        value = evaluate_method(method, obj, params)
        assert isinstance(value, Fraction)
        assert value == spec.run(obj, params, OpCounts())
        counting = CountingRing(RATIONAL)
        expected = spec.run(obj.with_ring(counting), params, counting.counts)
        report = run_counted(method, obj, params)
        assert isinstance(report.value, Fraction) and report.value == expected == value
        for field in COUNT_FIELDS:
            assert getattr(report, field) == getattr(counting.counts, field), (n, field)


def test_single_type_requests_reach_the_evaluator_on_exact_integers(monkeypatch):
    seen = []
    for method in ("det_identity", "eper_identity"):
        spec = METHODS[method]

        def run_spy(matrix, params, counts, _run=spec.run):
            shift = params.get("gamma", params.get("delta"))
            seen.append({type(x) for row in matrix.entries for x in row} | {type(shift)})
            return _run(matrix, params, counts)

        monkeypatch.setitem(METHODS, method, dataclasses.replace(spec, run=run_spy))
    matrix = SquareMatrix(RATIONAL, [[Fraction(1, 2), 2], [Fraction(-3, 4), 5]])
    # gamma = 1/3 makes L = 12: det(12 * matrix) / 12**2 = 576 / 144
    assert evaluate_method("det_identity", matrix, {"gamma": Fraction(1, 3)}) == 4
    with pytest.raises(ValueError, match="free parameter 1 is not an element of rationals"):
        evaluate_method("det_identity", matrix, {"gamma": 1})
    x = Poly.variable("x")
    symbolic = SquareMatrix(SYMBOLIC, [[x, Poly.constant(Fraction(1, 2))], [3, x * x]])
    value = evaluate_method("det_identity", symbolic, {"gamma": Poly.variable("g")})
    assert value == x * x * x - Fraction(3, 2)
    message = "free parameter Fraction(1, 3) is not an element of polynomials over the rationals"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_method("det_identity", symbolic, {"gamma": Fraction(1, 3)})
    matrix2 = random_matrix2_matrix(derive_rng(46, "unlifted"), 2)
    evaluate_method("eper_identity", matrix2)
    message = "free parameter Fraction(1, 1) is not an element of 2x2 rational matrices"
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_method("eper_identity", matrix2, {"delta": Fraction(1)})
    assert [sorted(types, key=str) for types in seen] == [
        [int],
        [Fraction, int],
        [dict],
        [Fraction, Poly],
        [type(None), tuple],
        [Fraction, MatrixElement],
    ]


def test_gammas_that_are_not_a_sequence_run_unlifted_with_the_same_value(monkeypatch):
    # lift reads gammas only from a tuple or a list; a generator reaches the
    # evaluator as it is, on the document's own ring, and gives the same value.
    spec = METHODS["per_identity"]
    rings_seen = []

    def run_spy(matrix, params, counts):
        rings_seen.append(matrix.ring)
        return spec.run(matrix, params, counts)

    monkeypatch.setitem(METHODS, "per_identity", dataclasses.replace(spec, run=run_spy))
    rng = derive_rng(47, "unlifted gammas")
    matrix = random_rational_matrix(rng, 4)
    gammas = tuple(random_rational(rng) for _ in range(4))
    value = evaluate_method("per_identity", matrix, {"gammas": gammas})
    generated = evaluate_method("per_identity", matrix, {"gammas": (g for g in gammas)})
    assert type(generated) is Fraction and generated == value == brute_permanent(matrix.entries)
    assert rings_seen[0] is not RATIONAL and rings_seen[1] is RATIONAL


def _assert_lift_matches_the_original_ring(method, obj, params):
    """evaluate_method and run_counted agree with spec.run on obj's own ring in
    value, in printed form and in all seven counts."""
    counting = CountingRing(obj.ring)
    expected = METHODS[method].run(obj.with_ring(counting), params, counting.counts)
    value = evaluate_method(method, obj, params)
    report = run_counted(method, obj, params)
    assert type(value) is type(report.value) is type(expected)
    assert value == report.value == expected
    assert str(value) == str(report.value) == str(expected)
    for field in COUNT_FIELDS:
        assert getattr(report, field) == getattr(counting.counts, field), field


def _symbolic_request(method, n, shifts):
    """The generic matrix or cube with p/q constants on its diagonal, and a
    symbolic or a p/q value for every shift."""
    rng = derive_rng(48, "symbolic lift", method, n, shifts)
    constant = lambda: Poly.constant(random_rational(rng))

    def with_constants(rows, section=None):
        """rows with a constant at each cell (i, i); in a cube only in section i."""
        return [
            [constant() if i == j and section in (None, i) else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]

    if METHODS[method].kind is CubeMatrix:
        sections = symbolic_cube(n).sections
        obj = CubeMatrix(SYMBOLIC, [with_constants(rows, k) for k, rows in enumerate(sections)])
    else:
        obj = SquareMatrix(SYMBOLIC, with_constants(symbolic_matrix(n).entries))
    if shifts == "symbolic":
        gammas, gamma, delta = symbolic_gammas(n), Poly.variable("g"), Poly.variable("d")
    else:
        gammas, gamma, delta = tuple(constant() for _ in range(n)), constant(), constant()
    return obj, {"gammas": gammas, "gamma": gamma, "delta": delta}


# The largest n each symbolic method is compared at; the reference runs on
# Fraction-backed polynomials, where these methods grow fastest.
SYMBOLIC_LIFT_MAX_N = {
    "per_polarization": 4,
    "det_identity": 4,
    "eper_definitional": 4,
    "eper_identity": 3,
    "detp_definitional": 3,
    "detp_identity": 3,
}


@pytest.mark.parametrize("method", METHODS)
def test_symbolic_requests_lift_with_the_same_value_and_counts(method):
    for n in range(1, SYMBOLIC_LIFT_MAX_N.get(method, 5) + 1):
        for shifts in ("symbolic", "rational"):
            _assert_lift_matches_the_original_ring(method, *_symbolic_request(method, n, shifts))


@pytest.mark.parametrize("method", [m for m, spec in METHODS.items() if spec.kind is SquareMatrix])
def test_nonlinear_entries_get_wide_enough_exponent_fields(method):
    # Entries of degree 5 at n = 3 give a**15, which needs 4 bits per
    # variable: n.bit_length() + 1 = 3 bits would carry into b's field.
    a, b = Poly.variable("a"), Poly.variable("b")
    a5 = SYMBOLIC.power(a, 5)
    cube_b = SYMBOLIC.power(b, 3)
    rows = [
        [a5, a * a * cube_b, Fraction(1, 2) * b],
        [cube_b * b * b, a5, a * b],
        [Poly.constant(Fraction(-2, 3)), b * a5, a5],
    ]
    matrix = SquareMatrix(SYMBOLIC, rows)
    _assert_lift_matches_the_original_ring(method, matrix, {"delta": b, "gamma": a * b})
    if method.startswith(("per", "det")):
        assert evaluate_method(method, matrix).coefficient((("a", 15),)) == 1


@pytest.mark.parametrize("method", ["eper_definitional", "eper_identity"])
def test_matrix2_requests_lift_with_the_same_value_and_counts(method):
    for n in range(1, (4 if method == "eper_definitional" else 5) + 1):
        rng = derive_rng(49, "matrix2 lift", method, n)
        element = lambda: MatrixElement(
            [[random_rational(rng) for _ in range(2)] for _ in range(2)]
        )
        matrix = SquareMatrix(MATRIX2, [[element() for _ in range(n)] for _ in range(n)])
        for params in ({}, {"delta": element()}):
            _assert_lift_matches_the_original_ring(method, matrix, params)


def test_a_polynomial_shift_on_a_rational_matrix_keeps_its_error():
    matrix = SquareMatrix(RATIONAL, [[Fraction(1, 2), 2], [3, 4]])
    message = re.escape("free parameter Poly(g) is not an element of rationals")
    with pytest.raises(ValueError, match=message):
        evaluate_method("det_identity", matrix, {"gamma": Poly.variable("g")})
    with pytest.raises(ValueError, match=r"is not an element of counting\(rationals\)"):
        run_counted("det_identity", matrix, {"gamma": Poly.variable("g")})


def test_the_plan_folded_sums_run_up_to_the_document_maximum():
    # No max_n of their own: the document maximum bounds them, and at it each
    # agrees with an oracle, the permanents with Ryser's 2**n sum.
    n = MAX_ENUMERATION_N
    matrix = random_rational_matrix(derive_rng(38, "document maximum"), n)
    ryser = evaluate_method("per_ryser", matrix)
    assert ryser.denominator > 1
    expected = {
        "det_definitional": gauss_determinant(matrix.entries),
        "per_definitional": ryser,
        "per_polarization": ryser,
    }
    above = SquareMatrix(RATIONAL, [[1] * (n + 1)] * (n + 1))
    for method, value in expected.items():
        assert evaluate_method(method, matrix) == value
        with pytest.raises(ValueError, match=f"{method} supports n up to {n}, got {n + 1}"):
            evaluate_method(method, above)


SIZE_LIMITS = {
    "det_identity": 8,
    "eper_definitional": 6,
    "eper_identity": 9,
    "detp_definitional": 9,
    "detp_identity": 8,
}


@pytest.mark.parametrize("method", SIZE_LIMITS)
def test_costly_methods_are_refused_above_their_size_limit(monkeypatch, method):
    spec = METHODS[method]
    limit = SIZE_LIMITS[method]
    assert spec.max_n == limit

    def never(matrix, params, counts):
        raise AssertionError("evaluated")

    monkeypatch.setitem(METHODS, method, dataclasses.replace(spec, run=never))
    n = limit + 1
    if spec.kind is CubeMatrix:
        obj = CubeMatrix(RATIONAL, [[[1] * n] * n] * n)
    else:
        obj = SquareMatrix(RATIONAL, [[1] * n] * n)
    for run in (evaluate_method, count_ops, run_counted):
        with pytest.raises(ValueError, match=f"{method} supports n up to {limit}, got {n}"):
            run(method, obj)


def test_symbolic_limits_follow_the_entries_not_the_ring(monkeypatch):
    # A wrapper ring around SYMBOLIC, as the benchmark's tracing binds, is
    # refused at the same size; a rational request of that size is admitted.
    spec = METHODS["det_identity"]
    monkeypatch.setitem(METHODS, "det_identity", dataclasses.replace(spec, run=lambda m, p, c: 0))
    n = spec.symbolic_max_n + 1
    symbolic = symbolic_matrix(n)
    message = f"det_identity supports n up to {n - 1} over polynomials, got {n}"
    for obj in (symbolic, symbolic.with_ring(CountingRing(SYMBOLIC))):
        for run in (evaluate_method, count_ops, run_counted):
            with pytest.raises(ValueError, match=message):
                run("det_identity", obj)
    assert evaluate_method("det_identity", SquareMatrix(RATIONAL, [[1] * n] * n)) == 0


def test_every_registry_entry_states_a_symbolic_limit_within_its_own():
    # symbolic_max_n has no default, so an entry cannot admit polynomial
    # documents up to the document maximum by leaving it out.
    assert "symbolic_max_n" not in {
        field.name
        for field in dataclasses.fields(MethodSpec)
        if field.default is not dataclasses.MISSING
    }
    for name, spec in METHODS.items():
        assert 1 <= spec.symbolic_max_n <= spec.max_n <= MAX_ENUMERATION_N, name


def test_a_counted_run_raises_each_power_on_its_integer_base_ring(monkeypatch):
    raised = []
    native = rings._IntegerRing.power

    def recording(ring, x, exponent):
        raised.append(exponent)
        return native(ring, x, exponent)

    matrix = SquareMatrix(RATIONAL, [[Fraction(1, 2), 2, 0], [3, -1, 4], [1, Fraction(-2, 3), 5]])
    plain = evaluate_method("det_identity", matrix)
    monkeypatch.setattr(rings._IntegerRing, "power", recording)
    report = run_counted("det_identity", matrix)
    assert report.value == plain
    assert raised == [3] * report.powers and report.powers == 4 * math.factorial(3)


def test_counted_runs_fold_through_ring_loops_not_the_integer_folds(monkeypatch):
    requests = []
    for method in COMPARED_METHODS:
        for n in range(1, 6):
            matrix, _ = _rational_request(method, n)
            requests.append((method, matrix, evaluate_method(method, matrix)))

    def refuse(*args):
        raise AssertionError("a counted run called a native integer fold")

    for fold in ("sum", "signed_sum", "product", "product_sum", "power_sum", "diagonal_sum"):
        monkeypatch.setattr(rings._INTEGER, fold, refuse)
    for method, matrix, value in requests:
        report = run_counted(method, matrix)
        assert report == dataclasses.replace(count_ops(method, matrix), value=value)


def test_signed_sum_makes_one_add_or_sub_per_item_starting_from_zero():
    counting = CountingRing(RATIONAL)
    assert counting.signed_sum([]) == 0 and counting.counts.adds == 0
    assert counting.signed_sum([(-1, Fraction(5))]) == -5
    assert (counting.counts.adds, counting.counts.negs) == (1, 0)
    pairs = [(1, Fraction(3)), (-1, Fraction(5)), (-1, Fraction(1, 2)), (1, Fraction(7))]
    assert counting.signed_sum(pairs) == Fraction(9, 2)
    assert counting.counts.adds == 1 + len(pairs)


# (adds, negs, muls, power_muls, powers, int_divs, f_evals) for every method
# and n; they depend on nothing else.  Only a new walk order may move adds;
# the other six counts stay as first recorded.
PINNED_COUNTS = {
    ("per_definitional", 1): (1, 0, 0, 0, 0, 0, 0),
    ("per_definitional", 2): (2, 0, 2, 0, 0, 0, 0),
    ("per_definitional", 3): (6, 0, 12, 0, 0, 0, 0),
    ("per_definitional", 4): (24, 0, 72, 0, 0, 0, 0),
    ("per_identity", 1): (3, 0, 0, 0, 0, 0, 0),
    ("per_identity", 2): (10, 0, 4, 0, 0, 0, 0),
    ("per_identity", 3): (29, 0, 16, 0, 0, 0, 0),
    ("per_identity", 4): (76, 0, 48, 0, 0, 0, 0),
    ("per_ryser", 1): (2, 1, 0, 0, 0, 0, 0),
    ("per_ryser", 2): (9, 0, 3, 0, 0, 0, 0),
    ("per_ryser", 3): (28, 1, 14, 0, 0, 0, 0),
    ("per_ryser", 4): (75, 0, 45, 0, 0, 0, 0),
    ("per_polarization", 1): (4, 1, 0, 0, 0, 1, 2),
    ("per_polarization", 2): (17, 0, 8, 0, 0, 1, 4),
    ("per_polarization", 3): (76, 1, 96, 0, 0, 1, 8),
    ("per_polarization", 4): (459, 0, 1152, 0, 0, 1, 16),
    ("det_definitional", 1): (1, 0, 0, 0, 0, 0, 0),
    ("det_definitional", 2): (2, 0, 2, 0, 0, 0, 0),
    ("det_definitional", 3): (6, 0, 12, 0, 0, 0, 0),
    ("det_definitional", 4): (24, 0, 72, 0, 0, 0, 0),
    ("det_identity", 1): (4, 0, 0, 0, 2, 1, 0),
    ("det_identity", 2): (16, 0, 0, 6, 6, 1, 0),
    ("det_identity", 3): (65, 0, 0, 48, 24, 1, 0),
    ("det_identity", 4): (312, 0, 0, 240, 120, 1, 0),
    ("eper_definitional", 1): (1, 0, 0, 0, 0, 1, 0),
    ("eper_definitional", 2): (4, 0, 4, 0, 0, 2, 0),
    ("eper_definitional", 3): (36, 0, 72, 0, 0, 6, 0),
    ("eper_definitional", 4): (576, 0, 1728, 0, 0, 24, 0),
    ("eper_identity", 1): (4, 0, 0, 0, 2, 1, 0),
    ("eper_identity", 2): (25, 0, 0, 10, 10, 1, 0),
    ("eper_identity", 3): (120, 0, 0, 100, 50, 1, 0),
    ("eper_identity", 4): (511, 0, 0, 452, 226, 1, 0),
    ("detp_definitional", 1): (2, 0, 0, 0, 0, 0, 0),
    ("detp_definitional", 2): (6, 0, 4, 0, 0, 0, 0),
    ("detp_definitional", 3): (42, 0, 72, 0, 0, 0, 0),
    ("detp_identity", 1): (3, 0, 0, 0, 0, 0, 0),
    ("detp_identity", 2): (18, 0, 6, 0, 0, 0, 0),
    ("detp_identity", 3): (114, 0, 48, 0, 0, 0, 0),
}


def _pinned_count_requests(method, n):
    """Integer, p/q and symbolic requests (and matrix2 ones for eper), each
    once without shifts and once with a random value for every shift; the
    symbolic ones only up to the method's symbolic size limit."""
    rng = derive_rng(47, "pinned", method, n)
    x = Poly.variable("x")
    draws = [
        (RATIONAL, lambda: random_integer(rng)),
        (RATIONAL, lambda: random_rational(rng)),
    ]
    if n <= METHODS[method].symbolic_max_n:
        draws.append((SYMBOLIC, lambda: x * random_integer(rng) + random_rational(rng)))
    if method.startswith("eper"):
        draws.append((MATRIX2, lambda: random_matrix2_element(rng)))
    for ring, draw in draws:
        rows = lambda: [[draw() for _ in range(n)] for _ in range(n)]
        if METHODS[method].kind is CubeMatrix:
            obj = CubeMatrix(ring, [rows() for _ in range(n)])
        else:
            obj = SquareMatrix(ring, rows())
        yield obj, {}
        yield obj, {"gammas": tuple(draw() for _ in range(n)), "gamma": draw(), "delta": draw()}


def test_every_method_has_pinned_counts():
    assert {method for method, _ in PINNED_COUNTS} == set(METHODS)


def _counts(report):
    return tuple(getattr(report, field) for field in COUNT_FIELDS)


@pytest.mark.parametrize("method, n", PINNED_COUNTS)
def test_counts_are_pinned_and_depend_only_on_method_and_n(method, n):
    for obj, params in _pinned_count_requests(method, n):
        counts = _counts(run_counted(method, obj, params))
        assert counts == PINNED_COUNTS[method, n], (obj.ring.name, params)


def test_closed_forms_give_the_pinned_counts_without_running(monkeypatch):
    def never(matrix, params, counts):
        raise AssertionError("evaluated")

    for method, spec in list(METHODS.items()):
        monkeypatch.setitem(METHODS, method, dataclasses.replace(spec, run=never))
    for (method, n), pinned in PINNED_COUNTS.items():
        assert _counts(METHODS[method].counts(n)) == pinned, (method, n)
        obj = next(_pinned_count_requests(method, n))[0]
        report = count_ops(method, obj)
        assert _counts(report) == pinned and report.value is None, (method, n)


# The largest n each closed form is checked at against counted runs; the
# n!-sized methods stop at 7, eper_definitional and detp_definitional (n!
# products of n! terms each) at 5.
MODEL_SWEEP_MAX_N = {
    "per_identity": 10,
    "per_ryser": 10,
    "per_polarization": 6,
    "eper_definitional": 5,
    "detp_definitional": 5,
}


@pytest.mark.parametrize("method", METHODS)
def test_closed_forms_match_counted_runs(method):
    for n in range(1, MODEL_SWEEP_MAX_N.get(method, 7) + 1):
        model = _counts(METHODS[method].counts(n))
        for obj, params in _pinned_count_requests(method, n):
            assert _counts(run_counted(method, obj, params)) == model, (n, obj.ring.name, params)


def test_compare_methods_rejects_a_closed_form_that_disagrees(monkeypatch, capsys):
    spec = bench.METHODS["per_ryser"]

    def miscounted(n):
        return dataclasses.replace(spec.counts(n), muls=spec.counts(n).muls + 1)

    monkeypatch.setitem(bench.METHODS, "per_ryser", dataclasses.replace(spec, counts=miscounted))
    message = "counted per_ryser at n=2 made muls=3 but its closed form gives 4"
    with pytest.raises(MethodDisagreement, match=message):
        compare_methods(2, 2, seed=1)
    assert main(["bench", "--nmin", "2", "--nmax", "2"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
