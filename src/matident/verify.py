"""Randomized cross-check suites behind the ``verify`` command.

Each suite draws seeded random instances and compares identity-based
evaluators against the definitional one, all run through the method registry
in methods, or checks that a claimed invariant (vanishing power sums, zero
criteria, reconstruction counts) holds exactly.  Every trial draws each
instance as Python ints (sampling's int rows) and builds it once, scaled
onto the private integer ring of its entries by one scale that makes the
instance and the shifts of every run on it integral: the lcm of the
shifts' denominators for an integer matrix, of the reduced denominators of
the entries and the shifts for a p/q matrix, n! for 2x2 cells and 1 for an
integer cube or singular matrix.  The shifts are drawn as Fractions and
MatrixElements, as a failure note prints them, and scaled by the same
factor through rings.scale_up, the map methods.lift scales a request's
Fractions and MatrixElements with.  Every function compared is homogeneous
of degree n, so values agree on the lifted instance exactly when they agree
as drawn; they are compared there, and rings.scale_down moves them back only
for a failure note.  Scaling a matrix by c multiplies a degree-t power sum
residual by c**t, so every zero-ness the invariant trials (cor1, cor2) check
is also the same on the lifted matrix.
Trials are independent jobs keyed by (suite, n, seed, trial): _run_job
derives each trial's random stream from that key alone, so the report is
deterministic.  Every trial runs in the calling process: a trial takes well
under a millisecond, less than handing it to a worker process would cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .identities import (
    determinant_zero_criterion,
    diagonal_power_residual,
    permanent,
    submatrix_power_residual,
    symmetrized_permanent_zero_criterion,
)
from .matrices import CubeMatrix, SquareMatrix
from .methods import OpCounts, checked_spec
from .polarization import DiagonalFunction, polarize
from .rings import _INTEGER, _INTEGER_MATRIX, MATRIX2, scale_down, scale_up
from .sampling import (
    derive_rng,
    integer_rows,
    integer_sections,
    matrix2_rows,
    random_matrix2_element,
    random_rational,
    rational_rows,
    singular_rows,
)

TrialFunction = Callable[[random.Random, int], "tuple[bool, str]"]
MAX_TRIALS = 1000


def _run(method: str, lifted, params: dict):
    """method's registry run on a lifted instance, checked as a request would be."""
    return checked_spec(method, lifted).run(lifted, params, OpCounts())


def _integer_matrix(rows: tuple, scale: int) -> SquareMatrix:
    return SquareMatrix._of(_INTEGER, tuple(tuple(a * scale for a in row) for row in rows))


def _rational_matrix(rows: tuple, shifts) -> tuple[SquareMatrix, int]:
    """The p/q matrix of rational_rows lifted with the Fraction shifts by the
    lcm of every reduced denominator, as methods.lift would, and that scale."""
    gcd = math.gcd
    scale = math.lcm(
        *(q // gcd(p, q) for row in rows for p, q in row), *(s.denominator for s in shifts)
    )
    entries = tuple(tuple(p * scale // q for p, q in row) for row in rows)
    return SquareMatrix._of(_INTEGER, entries), scale


def _matrix2_matrix(rows: tuple, scale: int) -> SquareMatrix:
    """The 2x2 cells of matrix2_rows times scale, over the integer 2x2 ring."""
    cells = tuple(tuple(tuple(c * scale for c in cell) for cell in row) for row in rows)
    return SquareMatrix._of(_INTEGER_MATRIX, cells)


def _agree(lifted, scale: int, reference: str, runs) -> tuple[bool, str]:
    """Whether every (method, params) run equals the reference method's value.

    lifted is the instance as drawn times scale, and each run's params (as
    drawn) are lifted by the same scale; the values are compared on the
    lifted ring, and a failure note moves both down to print them as drawn.
    """
    expected = _run(reference, lifted, {})
    for method, params in runs:
        lifted_params = {key: scale_up(shift, scale) for key, shift in params.items()}
        value = _run(method, lifted, lifted_params)
        if not lifted.ring.eq(value, expected):
            gave, wanted = (scale_down(v, scale, lifted.n) for v in (value, expected))
            return False, f"{method}({params}) gave {gave}, {reference} gave {wanted}"
    return True, ""


def _shift_vectors(rng, n: int) -> list[tuple]:
    """The zero shift vector, then two random ones."""
    zero = tuple(Fraction(0) for _ in range(n))
    return [zero] + [tuple(random_rational(rng) for _ in range(n)) for _ in range(2)]


def _trial_permanent(rng, n: int) -> tuple[bool, str]:
    rows = integer_rows(rng, n)
    shifts = _shift_vectors(rng, n)
    scale = math.lcm(*(gamma.denominator for gammas in shifts for gamma in gammas))
    runs = [("per_ryser", {})] + [("per_identity", {"gammas": gammas}) for gammas in shifts]
    return _agree(_integer_matrix(rows, scale), scale, "per_definitional", runs)


def _trial_determinant(rng, n: int) -> tuple[bool, str]:
    rows = rational_rows(rng, n)
    gammas = (Fraction(0), Fraction(1), Fraction(-3, 2), random_rational(rng))
    lifted, scale = _rational_matrix(rows, gammas)
    runs = [("det_identity", {"gamma": gamma}) for gamma in gammas]
    return _agree(lifted, scale, "det_definitional", runs)


def _trial_symmetrized(rng, n: int) -> tuple[bool, str]:
    # Integer cells need only the factor n! of methods.lift's scale.
    rows = matrix2_rows(rng, n)
    deltas = [MATRIX2.zero(), random_matrix2_element(rng), random_matrix2_element(rng)]
    scale = math.factorial(n)
    runs = [("eper_identity", {"delta": delta}) for delta in deltas]
    return _agree(_matrix2_matrix(rows, scale), scale, "eper_definitional", runs)


def _trial_space_determinant(rng, n: int) -> tuple[bool, str]:
    cube = CubeMatrix._of(_INTEGER, integer_sections(rng, n))
    return _agree(cube, 1, "detp_definitional", [("detp_identity", {})])


def _nonzero_residual_exponent(lifted: SquareMatrix) -> tuple[int, object]:
    """The first t in 1..n-1 whose diagonal power sum residual is nonzero,
    with that residual, else (0, None)."""
    ring = lifted.ring
    for t in range(1, lifted.n):
        residual = diagonal_power_residual(lifted, t)
        if not ring.is_zero(residual):
            return t, residual
    return 0, None


def _trial_diagonal_power_sums(rng, n: int) -> tuple[bool, str]:
    # A residual of degree t on the matrix lifted by scale is scale**t times
    # the drawn one, so a failure note moves it back by that much.
    lifted, scale = _rational_matrix(rational_rows(rng, n), ())
    t, residual = _nonzero_residual_exponent(lifted)
    if t:
        return False, f"power sum residual {scale_down(residual, scale, t)} at exponent {t}"
    claims_zero = determinant_zero_criterion(lifted)
    is_zero = lifted.ring.is_zero(_run("det_definitional", lifted, {}))
    if claims_zero != is_zero:
        return False, "zero criterion disagrees with the determinant"
    # The singular matrix is drawn as integers: its scale is 1, so it runs as drawn.
    singular = SquareMatrix._of(_INTEGER, singular_rows(rng, n))
    t, residual = _nonzero_residual_exponent(singular)
    if t:
        return False, f"power sum residual {residual} at exponent {t} on a singular matrix"
    if not determinant_zero_criterion(singular):
        return False, "zero criterion missed a singular matrix"
    return True, ""


def _vanishing_symmetrized_instance(rng, n: int) -> SquareMatrix:
    """Random matrix whose symmetrized permanent is exactly zero.

    For n = 1 it is the zero entry, the only choice.  For n >= 2 row 1 is
    [x, x, 0, ..., 0], row 2 is [-y, y, 0, ..., 0] and the other rows are
    random.  A diagonal that does not put columns 1 and 2 in rows 1 and 2
    has a zero factor.  The remaining diagonals pair up by swapping those
    two columns, into Sym(x, y, ...) and Sym(x, -y, ...) with the same other
    factors, and Sym is linear in each factor, so every pair cancels.  The
    entries are random matrices, so they need not commute.
    """
    zero = MATRIX2.zero()
    if n == 1:
        return SquareMatrix(MATRIX2, [[zero]])
    x = random_matrix2_element(rng)
    y = random_matrix2_element(rng)
    padding = [zero] * (n - 2)
    rows = [[x, x, *padding], [MATRIX2.neg(y), y, *padding]]
    rows += [[random_matrix2_element(rng) for _ in range(n)] for _ in range(n - 2)]
    return SquareMatrix(MATRIX2, rows)


def _trial_submatrix_power_sums(rng, n: int) -> tuple[bool, str]:
    scale = math.factorial(n)
    lifted = _matrix2_matrix(matrix2_rows(rng, n), scale)
    for m in range(1, n):
        if not lifted.ring.is_zero(submatrix_power_residual(lifted, m)):
            return False, f"submatrix power sum residual nonzero at exponent {m}"
    claims_zero = symmetrized_permanent_zero_criterion(lifted)
    is_zero = lifted.ring.is_zero(_run("eper_definitional", lifted, {}))
    if claims_zero != is_zero:
        return False, "zero criterion disagrees with the definitional value"
    # The constructed instance is built of MatrixElements with integer cells,
    # and scaled by the same n!.
    vanishing = _vanishing_symmetrized_instance(rng, n)
    lifted = SquareMatrix._of(_INTEGER_MATRIX, scale_up(vanishing.entries, scale))
    if not lifted.ring.is_zero(_run("eper_definitional", lifted, {})):
        return False, "constructed instance was not actually zero"
    if not symmetrized_permanent_zero_criterion(lifted):
        return False, "zero criterion missed a vanishing instance"
    return True, ""


def _trial_polarization(rng, n: int) -> tuple[bool, str]:
    rows = rational_rows(rng, n)
    shifts = _shift_vectors(rng, n)
    # The columns and the three shifts are lifted by one scale.
    lifted, scale = _rational_matrix(rows, [gamma for gammas in shifts for gamma in gammas])
    ring = lifted.ring
    reference = _run("per_definitional", lifted, {})
    for which, gammas in enumerate(shifts):
        calls = 0

        def evaluate(point):
            nonlocal calls
            calls += 1
            return permanent(SquareMatrix._of(ring, tuple((x,) * n for x in point)))

        func = DiagonalFunction(arity=n, evaluate=evaluate)
        value = polarize(func, lifted.columns(), scale_up(gammas, scale), ring)
        if not ring.eq(value, reference):
            gave, expected = (scale_down(v, scale, n) for v in (value, reference))
            return False, f"reconstruction gave {gave} at shift {which}, expected {expected}"
        if calls != 2**n:
            return False, f"made {calls} diagonal evaluations, expected {2**n}"
    return True, ""


@dataclass(frozen=True)
class SuiteSpec:
    """One named verification suite and its size envelope."""

    name: str
    default_ns: tuple[int, ...]
    max_n: int
    run_trial: TrialFunction


SUITES: dict[str, SuiteSpec] = {
    spec.name: spec
    for spec in (
        SuiteSpec("thm2", (2, 3, 4), 6, _trial_permanent),
        SuiteSpec("thm3", (2, 3, 4), 5, _trial_determinant),
        SuiteSpec("thm4", (2, 3), 3, _trial_symmetrized),
        SuiteSpec("thm5", (2, 3), 4, _trial_space_determinant),
        SuiteSpec("cor1", (2, 3, 4), 5, _trial_diagonal_power_sums),
        SuiteSpec("cor2", (2, 3), 3, _trial_submatrix_power_sums),
        SuiteSpec("polarization", (2, 3, 4), 5, _trial_polarization),
    )
}


def _run_job(suite: str, n: int, seed: int, trial: int) -> tuple[bool, str]:
    """Run one trial on its own random stream; an exception fails the trial, not the run."""
    try:
        return SUITES[suite].run_trial(derive_rng(seed, suite, n, trial), n)
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"


def run_suites(
    suite_names,
    trials: int,
    seed: int,
    ns: "tuple[int, ...] | None" = None,
) -> tuple[list[str], bool]:
    """Run the named suites and return (report lines, overall pass flag).

    Every refusal comes before the first trial runs.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    suite_names = tuple(suite_names)
    # An empty suite list or size tuple would report a PASS that checked nothing.
    if not suite_names:
        raise ValueError("no suites to run")
    if ns is not None and not ns:
        raise ValueError("no sizes to run")
    # A repeated suite or size would run its trials again and count them twice.
    for what, items in (("suite", suite_names), ("size", tuple(ns or ()))):
        for index, item in enumerate(items):
            if item in items[:index]:
                raise ValueError(f"{what} {item!r} is listed twice")
    groups: list[tuple[str, int]] = []
    for name in suite_names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        spec = SUITES[name]
        sizes = ns if ns is not None else spec.default_ns
        for n in sizes:
            if n < 1:
                raise ValueError(f"n must be at least 1, got {n}")
            if n > spec.max_n:
                raise ValueError(f"suite {name} supports n up to {spec.max_n}, got {n}")
            groups.append((name, n))
    lines = []
    passed_total = 0
    for name, n in groups:
        results = [_run_job(name, n, seed, trial) for trial in range(1, trials + 1)]
        ok_count = sum(1 for ok, _ in results if ok)
        passed_total += ok_count
        line = f"{name} n={n}: {ok_count}/{trials} ok: {'PASS' if ok_count == trials else 'FAIL'}"
        if ok_count != trials:
            notes = "; ".join(
                f"trial {i}: {note}" for i, (ok, note) in enumerate(results, start=1) if not ok
            )
            line += f" [{notes}]"
        lines.append(line)
    checks = trials * len(groups)
    all_ok = passed_total == checks
    lines.append(f"result: {'PASS' if all_ok else 'FAIL'} ({passed_total}/{checks} checks)")
    return lines, all_ok
