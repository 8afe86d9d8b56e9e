"""The invariant trials of verify (cor1, cor2, polarization) run on the lifted
matrix, keep their verdicts and notes, and print the recorded bytes."""

from fractions import Fraction
from pathlib import Path

import pytest

from matident import verify
from matident.cli import main
from matident.identities import (
    determinant_zero_criterion,
    diagonal_power_residual,
    submatrix_power_residual,
    symmetrized_permanent_zero_criterion,
)
from matident.matrices import SquareMatrix
from matident.methods import lift
from matident.rings import MATRIX2, RATIONAL, MatrixElement
from matident.sampling import (
    derive_rng,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
    singular_matrix,
)

STDOUT_DIR = Path(__file__).resolve().parent / "data" / "verify_stdout"

# Each file holds the stdout the command printed before these trials were
# lifted; the CI workflow diffs the installed command against the same files.
RECORDED = {
    "all-trials2-seed7.txt": ["--suite", "all", "--trials", "2", "--seed", "7"],
    "cor1-n5-trials2.txt": ["--suite", "cor1", "--n", "5", "--trials", "2"],
    "polarization-n5-trials2.txt": ["--suite", "polarization", "--n", "5", "--trials", "2"],
    "cor2-n3-trials2.txt": ["--suite", "cor2", "--n", "3", "--trials", "2"],
}


@pytest.mark.parametrize("name", RECORDED)
def test_verify_prints_the_recorded_bytes(name, capsys, monkeypatch):
    monkeypatch.setenv("MATIDENT_WORKERS", "1")
    assert main(["verify", *RECORDED[name]]) == 0
    assert capsys.readouterr().out == (STDOUT_DIR / name).read_text()


def test_invariant_trials_reach_the_evaluators_on_exact_integers(monkeypatch):
    seen = []

    def spy(name):
        real = getattr(verify, name)

        def recording(matrix, *args):
            seen.append((name, {type(x) for row in matrix.entries for x in row}))
            if name.startswith(("submatrix", "symmetrized")):
                assert all(len(x) == 4 for row in matrix.entries for x in row)
            return real(matrix, *args)

        monkeypatch.setattr(verify, name, recording)

    for name in (
        "diagonal_power_residual",
        "submatrix_power_residual",
        "determinant_zero_criterion",
        "symmetrized_permanent_zero_criterion",
        "permanent",
    ):
        spy(name)
    expected = {
        "cor1": ({"diagonal_power_residual", "determinant_zero_criterion"}, int),
        "cor2": ({"submatrix_power_residual", "symmetrized_permanent_zero_criterion"}, tuple),
        "polarization": ({"permanent"}, int),
    }
    for suite, (names, element) in expected.items():
        for n in (1, 2, 3):
            seen.clear()
            assert verify._run_job((suite, n, 1, 1)) == (True, "")
            # At n = 1 there is no residual below degree n to check.
            called = {name for name in names if n > 1 or "residual" not in name}
            assert {name for name, _ in seen} == called, (suite, n)
            assert all(types == {element} for _, types in seen), (suite, n, seen)


def test_a_failing_cor1_note_prints_the_residual_of_the_matrix_as_drawn(monkeypatch, capsys):
    # A stand-in residual homogeneous of degree t, like the real one: the
    # t-th power of the first row's sum.  On the lifted matrix it is c**t
    # times larger, so the note must not print that value.
    def first_row_power(matrix, t):
        ring = matrix.ring
        return ring.power(ring.sum(matrix.entries[0]), t)

    monkeypatch.setattr(verify, "diagonal_power_residual", first_row_power)
    monkeypatch.setenv("MATIDENT_WORKERS", "1")
    assert main(["verify", "--suite", "cor1", "--n", "3", "--trials", "1"]) == 1
    drawn = random_rational_matrix(derive_rng(1, "cor1", 3, 1), 3)
    residual = first_row_power(drawn, 1)
    assert residual.denominator > 1
    assert capsys.readouterr().out == (
        "verify: suite=cor1 trials=1 seed=1\n"
        f"cor1 n=3: 0/1 ok: FAIL [trial 1: power sum residual {residual} at exponent 1]\n"
        "result: FAIL (0/1 checks)\n"
    )


def _singular_rational_matrix(rng, n):
    """A p/q matrix with one row a p/q multiple of another."""
    if n == 1:
        return SquareMatrix(RATIONAL, [[Fraction(0)]])
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    source, target = rng.sample(range(n), 2)
    scale = random_rational(rng)
    rows[target] = [scale * value for value in rows[source]]
    return SquareMatrix(RATIONAL, rows)


def test_the_lift_keeps_every_diagonal_residual_and_criterion_zero_or_not():
    criteria = set()
    for n in range(1, 6):
        rng = derive_rng(50, "zero-ness", n)
        matrices = [random_rational_matrix(rng, n) for _ in range(2)]
        matrices += [_singular_rational_matrix(rng, n), singular_matrix(rng, n)]
        for matrix in matrices:
            lifted = lift(matrix, {})[0]
            for t in range(1, n + 1):
                zero = RATIONAL.is_zero(diagonal_power_residual(matrix, t))
                assert lifted.ring.is_zero(diagonal_power_residual(lifted, t)) == zero
            criterion = determinant_zero_criterion(matrix)
            assert determinant_zero_criterion(lifted) == criterion
            criteria.add(criterion)
    assert criteria == {True, False}


def test_the_lift_keeps_every_submatrix_residual_and_criterion_zero_or_not():
    criteria = set()
    for n in range(1, 4):
        rng = derive_rng(51, "zero-ness", n)
        cell = lambda: MatrixElement([[random_rational(rng) for _ in range(2)] for _ in range(2)])
        rational_cells = SquareMatrix(MATRIX2, [[cell() for _ in range(n)] for _ in range(n)])
        matrices = [
            random_matrix2_matrix(rng, n),
            rational_cells,
            verify._vanishing_symmetrized_instance(rng, n),
        ]
        for matrix in matrices:
            lifted = lift(matrix, {})[0]
            for m in range(1, n + 1):
                zero = MATRIX2.is_zero(submatrix_power_residual(matrix, m))
                assert lifted.ring.is_zero(submatrix_power_residual(lifted, m)) == zero
            criterion = symmetrized_permanent_zero_criterion(matrix)
            assert symmetrized_permanent_zero_criterion(lifted) == criterion
            criteria.add(criterion)
    assert criteria == {True, False}
