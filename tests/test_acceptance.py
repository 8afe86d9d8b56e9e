"""Acceptance suite: one test per agreed criterion, all comparisons exact.

Every test prints a single pass line (with its elapsed time) on success;
stated runtime budgets are asserted, everything else just reports.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

from matident.bench import run_counted
from matident.identities import (
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
    SquareMatrix,
    symbolic_cube,
    symbolic_gammas,
    symbolic_matrix,
)
from matident.polarization import DiagonalFunction, polarize
from matident.rings import MATRIX2, RATIONAL, MatrixElement
from matident.sampling import (
    derive_rng,
    random_integer_cube,
    random_integer_matrix,
    random_matrix2_element,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
    singular_matrix,
)

from oracles import brute_permanent, brute_space_determinant, gauss_determinant

SEED = 20240801


class _Clock:
    def __init__(self):
        self.started = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def report(self, label, budget=None):
        elapsed = self.elapsed
        if budget is not None:
            assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
        print(f"PASS {label} ({elapsed:.2f}s)")


def test_permanent_identity_numeric_agreement():
    # 500 integer matrices across n = 2..6, 5 random rational shift vectors each
    clock = _Clock()
    for n in range(2, 7):
        for trial in range(100):
            rng = derive_rng(SEED, "per-numeric", n, trial)
            matrix = random_integer_matrix(rng, n)
            reference = permanent(matrix)
            assert permanent_ryser(matrix) == reference
            for _ in range(5):
                gammas = tuple(random_rational(rng) for _ in range(n))
                assert permanent_identity(matrix, gammas) == reference
    clock.report("permanent identity numeric agreement (500 matrices, n=2..6)", budget=60)


def test_permanent_identity_symbolic_expansion():
    clock = _Clock()
    for n in (2, 3):
        matrix = symbolic_matrix(n)
        expected = brute_permanent(matrix.entries)
        assert permanent_identity(matrix) == expected
        symbolic_value = permanent_identity(matrix, symbolic_gammas(n))
        assert symbolic_value == expected
        assert not {f"g_{i}" for i in range(1, n + 1)} & symbolic_value.variables()
    clock.report("permanent identity symbolic expansion (n=2,3)", budget=10)


def test_determinant_identity_agreement():
    # 500 rational matrices across n = 2..5, three shifts each, plus elimination oracle
    clock = _Clock()
    shifts = (Fraction(0), Fraction(1), Fraction(-3, 2))
    for n in range(2, 6):
        for trial in range(125):
            rng = derive_rng(SEED, "det-numeric", n, trial)
            matrix = random_rational_matrix(rng, n)
            reference = determinant(matrix)
            assert gauss_determinant(matrix.entries) == reference
            for gamma in shifts:
                assert determinant_identity(matrix, gamma) == reference
    clock.report("determinant identity agreement (500 matrices, n=2..5)", budget=60)


def test_diagonal_power_sum_identity_and_zero_test():
    clock = _Clock()
    for n in range(2, 6):
        for trial in range(50):
            rng = derive_rng(SEED, "diag-power", n, trial)
            matrix = random_rational_matrix(rng, n)
            for t in range(1, n):
                residual = diagonal_power_residual(matrix, t)
                assert RATIONAL.is_zero(residual), f"residual {residual} at n={n}, t={t}"
        for trial in range(25):
            rng = derive_rng(SEED, "diag-zero", n, trial)
            degenerate = singular_matrix(rng, n)
            assert determinant(degenerate) == 0
            assert determinant_zero_criterion(degenerate)
            regular = random_integer_matrix(rng, n)
            while gauss_determinant(regular.entries) == 0:
                regular = random_integer_matrix(rng, n)
            assert determinant(regular) != 0
            assert not determinant_zero_criterion(regular)
    clock.report(
        "diagonal power sums vanish and the zero criterion matches det "
        "(200 + 100/100 matrices)"
    )


def test_symmetrized_permanent_identity_agreement():
    # 100 matrix-entried instances across n = 2,3 with six shift values each
    clock = _Clock()
    for n in (2, 3):
        for trial in range(50):
            rng = derive_rng(SEED, "eper-numeric", n, trial)
            matrix = random_matrix2_matrix(rng, n)
            reference = symmetrized_permanent(matrix)
            assert MATRIX2.eq(symmetrized_permanent_identity(matrix), reference)
            for _ in range(5):
                delta = random_matrix2_element(rng)
                assert MATRIX2.eq(symmetrized_permanent_identity(matrix, delta), reference)
    clock.report(
        "symmetrized permanent identity agreement (100 instances, n=2,3)", budget=120
    )


def _vanishing_instance(rng, n):
    if n == 2:
        x = random_matrix2_element(rng)
        y = random_matrix2_element(rng)
        return SquareMatrix(MATRIX2, [[x, x], [MATRIX2.neg(y), y]])
    while True:
        values = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        cofactor = brute_permanent([row[1:] for row in values[1:]])
        if cofactor == 0:
            continue
        values[0][0] = Fraction(0)
        rest = brute_permanent(values)
        values[0][0] = -rest / cofactor
        return SquareMatrix(
            MATRIX2, [[MatrixElement.scalar(value) for value in row] for row in values]
        )


def test_submatrix_power_sum_identity_and_zero_test():
    clock = _Clock()
    for n in (2, 3):
        for trial in range(50):
            # same label as the agreement test, so these are the same instances
            rng = derive_rng(SEED, "eper-numeric", n, trial)
            matrix = random_matrix2_matrix(rng, n)
            for m in range(1, n):
                residual = submatrix_power_residual(matrix, m)
                assert MATRIX2.is_zero(residual), f"residual {residual} at n={n}, m={m}"
            assert symmetrized_permanent_zero_criterion(matrix) == MATRIX2.is_zero(
                symmetrized_permanent(matrix)
            )
        for trial in range(10):
            rng = derive_rng(SEED, "submatrix-zero", n, trial)
            vanishing = _vanishing_instance(rng, n)
            assert MATRIX2.is_zero(symmetrized_permanent(vanishing))
            assert symmetrized_permanent_zero_criterion(vanishing)
    clock.report(
        "submatrix power sums vanish and the zero criterion matches eper "
        "(100 + 20 instances)"
    )


def test_space_determinant_identity_agreement():
    clock = _Clock()
    cube = symbolic_cube(2)
    assert space_determinant_identity(cube) == brute_space_determinant(cube.sections)
    for n, trials in ((2, 50), (3, 50), (4, 10)):
        for trial in range(trials):
            rng = derive_rng(SEED, "detp-numeric", n, trial)
            random_cube = random_integer_cube(rng, n)
            assert space_determinant_identity(random_cube) == space_determinant(random_cube)
    clock.report(
        "space determinant identity agreement (symbolic n=2; 110 cubes n=2..4)", budget=60
    )


def test_polarization_reconstructs_permanent():
    clock = _Clock()
    for n in (2, 3, 4):
        rng = derive_rng(SEED, "polarization", n)
        matrix = random_rational_matrix(rng, n)
        reference = permanent(matrix)
        for _ in range(3):
            gammas = tuple(random_rational(rng) for _ in range(n))
            calls = []

            def diagonal(column):
                calls.append(column)
                return permanent(SquareMatrix(RATIONAL, [[x] * n for x in column]))

            func = DiagonalFunction(n, diagonal)
            value = polarize(func, matrix.columns(), gammas, RATIONAL)
            assert value == reference
            assert len(calls) == 2**n
    clock.report("polarization reconstructs the permanent with 2^n diagonal calls")


def test_identity_evaluators_use_only_additive_ops_and_powers():
    clock = _Clock()
    for n in (2, 3, 4):
        matrix = random_integer_matrix(derive_rng(SEED, "structural-det", n), n)
        report = run_counted("det_identity", matrix)
        assert report.muls == 0, f"det_identity used {report.muls} free multiplications"
    for n in (2, 3):
        matrix = random_matrix2_matrix(derive_rng(SEED, "structural-eper", n), n)
        report = run_counted("eper_identity", matrix)
        assert report.muls == 0, f"eper_identity used {report.muls} free multiplications"
    clock.report("identity evaluators multiply only inside n-th powers")


def test_identity_multiplication_economy():
    clock = _Clock()
    ratios = []
    for n in range(2, 8):
        matrix = random_integer_matrix(derive_rng(SEED, "economy", n), n)
        identity_muls = run_counted("per_identity", matrix).muls
        definitional_muls = run_counted("per_definitional", matrix).muls
        assert identity_muls == 2**n * (n - 1)
        assert definitional_muls == math.factorial(n) * (n - 1)
        if n >= 4:
            assert identity_muls < definitional_muls
        ratios.append(identity_muls / definitional_muls)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    clock.report("identity form multiplication economy (n=2..7, strict gain from n=4)")


def test_cli_verify_determinism():
    clock = _Clock()

    def run_verify():
        return subprocess.run(
            [sys.executable, "-m", "matident", "verify", "--suite", "all", "--seed", "1"],
            capture_output=True,
            text=True,
        )

    first = run_verify()
    second = run_verify()
    third = run_verify()
    for result in (first, second, third):
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
    assert first.stdout == second.stdout
    assert first.stdout == third.stdout
    assert "result: PASS" in first.stdout
    clock.report("CLI verify output is byte-identical across three runs")
