"""Instrumented operation counting and the method comparison table."""

import dataclasses
import json
import math

import pytest

from matident import bench
from matident.bench import (
    COMPARED_METHODS,
    CountingRing,
    MethodDisagreement,
    compare_methods,
    count_ops,
    evaluate_method,
    format_table,
    write_records,
)
from matident.matrices import SquareMatrix
from matident.rings import RATIONAL
from matident.sampling import derive_rng, random_matrix2_matrix, random_rational_matrix

M3 = SquareMatrix(RATIONAL, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def test_definitional_permanent_multiplication_count():
    # n! diagonals, n-1 multiplications each
    report = count_ops("per_definitional", M3)
    assert report.muls == math.factorial(3) * 2 == 12
    assert report.powers == 0 and report.int_divs == 0


def test_ryser_multiplication_count_and_bound():
    report = count_ops("per_ryser", M3)
    assert report.muls == (2**3 - 1) * 2 == 14
    assert report.muls <= 3 * (2**3 - 1)


def test_identity_permanent_multiplication_count():
    for n in (2, 3, 4):
        matrix = random_rational_matrix(derive_rng(41, "count", n), n)
        report = count_ops("per_identity", matrix)
        assert report.muls == 2**n * (n - 1)


def test_determinant_identity_power_count():
    report = count_ops("det_identity", M3)
    # one n-th power per full diagonal and per length-(n-1) subdiagonal
    assert report.powers == math.factorial(3) + 3 * math.factorial(3) == 24
    assert report.int_divs == 1


def test_identity_evaluators_multiply_only_inside_powers():
    report = count_ops("det_identity", M3)
    assert report.muls == 0 and report.power_muls > 0
    matrix = random_matrix2_matrix(derive_rng(42, "structural"), 2)
    report = count_ops("eper_identity", matrix)
    assert report.muls == 0 and report.power_muls > 0


def test_polarization_evaluation_count():
    for n in (2, 3):
        matrix = random_rational_matrix(derive_rng(43, "f-evals", n), n)
        report = count_ops("per_polarization", matrix)
        assert report.f_evals == 2**n


def test_instrumented_value_matches_plain_value():
    for method in COMPARED_METHODS:
        value = evaluate_method(method, M3)
        report = count_ops(method, M3)
        assert report.method == method and report.n == 3
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
    with pytest.raises(ValueError):
        count_ops("per_quantum", M3)
    with pytest.raises(ValueError):
        evaluate_method("detp_definitional", M3)  # cube method on a matrix


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
        identity_muls = count_ops("per_identity", matrix).muls
        definitional_muls = count_ops("per_definitional", matrix).muls
        if n >= 4:
            assert identity_muls < definitional_muls
        ratios.append(identity_muls / definitional_muls)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
