"""Randomized cross-check suites behind the ``verify`` command.

Each suite draws seeded random instances and compares identity-based
evaluators against the definitional one, all run through the method registry
in methods, or checks that a claimed invariant (vanishing power sums, zero
criteria, reconstruction counts) holds exactly.  The invariant trials (cor1,
cor2, polarization) run on the instance lifted to exact integers by
methods.lift: scaling a matrix by c multiplies a degree-t power sum residual
by c**t, so every zero-ness they check is the same on the lifted matrix, and
the polarized permanent, homogeneous of degree n, is scaled back down before
it is compared.
Trials are independent jobs keyed by (suite, n, seed, trial): _run_job
derives each trial's random stream from that key, so a pool of workers can
run them in any order while the report stays deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
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
from .matrices import SquareMatrix
from .methods import evaluate_method, lift
from .polarization import DiagonalFunction, polarize
from .rings import MATRIX2
from .sampling import (
    derive_rng,
    random_integer_cube,
    random_integer_matrix,
    random_matrix2_element,
    random_matrix2_matrix,
    random_rational,
    random_rational_matrix,
    singular_matrix,
)

TrialFunction = Callable[[random.Random, int], "tuple[bool, str]"]
MAX_TRIALS = 1000


def _agree(obj, reference: str, runs) -> tuple[bool, str]:
    """Whether every (method, params) run on obj equals the reference method's value."""
    expected = evaluate_method(reference, obj)
    for method, params in runs:
        value = evaluate_method(method, obj, params)
        if not obj.ring.eq(value, expected):
            return False, f"{method}({params}) gave {value}, {reference} gave {expected}"
    return True, ""


def _shift_vectors(rng, n: int) -> list[tuple]:
    """The zero shift vector, then two random ones."""
    zero = tuple(Fraction(0) for _ in range(n))
    return [zero] + [tuple(random_rational(rng) for _ in range(n)) for _ in range(2)]


def _trial_permanent(rng, n: int) -> tuple[bool, str]:
    matrix = random_integer_matrix(rng, n)
    shifts = _shift_vectors(rng, n)
    runs = [("per_ryser", {})] + [("per_identity", {"gammas": gammas}) for gammas in shifts]
    return _agree(matrix, "per_definitional", runs)


def _trial_determinant(rng, n: int) -> tuple[bool, str]:
    matrix = random_rational_matrix(rng, n)
    gammas = (Fraction(0), Fraction(1), Fraction(-3, 2), random_rational(rng))
    runs = [("det_identity", {"gamma": gamma}) for gamma in gammas]
    return _agree(matrix, "det_definitional", runs)


def _trial_symmetrized(rng, n: int) -> tuple[bool, str]:
    matrix = random_matrix2_matrix(rng, n)
    deltas = [matrix.ring.zero(), random_matrix2_element(rng), random_matrix2_element(rng)]
    runs = [("eper_identity", {"delta": delta}) for delta in deltas]
    return _agree(matrix, "eper_definitional", runs)


def _trial_space_determinant(rng, n: int) -> tuple[bool, str]:
    return _agree(random_integer_cube(rng, n), "detp_definitional", [("detp_identity", {})])


def _nonzero_residual_exponent(lifted: SquareMatrix) -> int:
    """The first t in 1..n-1 whose diagonal power sum residual is nonzero, else 0."""
    ring = lifted.ring
    for t in range(1, lifted.n):
        if not ring.is_zero(diagonal_power_residual(lifted, t)):
            return t
    return 0


def _trial_diagonal_power_sums(rng, n: int) -> tuple[bool, str]:
    # A failure note recomputes its residual on the matrix as drawn, so it
    # prints in the drawn matrix's scale.
    matrix = random_rational_matrix(rng, n)
    lifted = lift(matrix, {})[0]
    t = _nonzero_residual_exponent(lifted)
    if t:
        return False, f"power sum residual {diagonal_power_residual(matrix, t)} at exponent {t}"
    claims_zero = determinant_zero_criterion(lifted)
    is_zero = matrix.ring.is_zero(evaluate_method("det_definitional", matrix))
    if claims_zero != is_zero:
        return False, "zero criterion disagrees with the determinant"
    singular = singular_matrix(rng, n)
    lifted = lift(singular, {})[0]
    t = _nonzero_residual_exponent(lifted)
    if t:
        residual = diagonal_power_residual(singular, t)
        return False, f"power sum residual {residual} at exponent {t} on a singular matrix"
    if not determinant_zero_criterion(lifted):
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
    matrix = random_matrix2_matrix(rng, n)
    ring = matrix.ring
    lifted = lift(matrix, {})[0]
    for m in range(1, n):
        if not lifted.ring.is_zero(submatrix_power_residual(lifted, m)):
            return False, f"submatrix power sum residual nonzero at exponent {m}"
    claims_zero = symmetrized_permanent_zero_criterion(lifted)
    is_zero = ring.is_zero(evaluate_method("eper_definitional", matrix))
    if claims_zero != is_zero:
        return False, "zero criterion disagrees with the definitional value"
    vanishing = _vanishing_symmetrized_instance(rng, n)
    if not ring.is_zero(evaluate_method("eper_definitional", vanishing)):
        return False, "constructed instance was not actually zero"
    if not symmetrized_permanent_zero_criterion(lift(vanishing, {})[0]):
        return False, "zero criterion missed a vanishing instance"
    return True, ""


def _trial_polarization(rng, n: int) -> tuple[bool, str]:
    matrix = random_rational_matrix(rng, n)
    reference = evaluate_method("per_definitional", matrix)
    for which, gammas in enumerate(_shift_vectors(rng, n)):
        # The columns and the shift are lifted by one scale.
        lifted, params, down = lift(matrix, {"gammas": gammas})
        ring = lifted.ring
        calls = 0

        def evaluate(point):
            nonlocal calls
            calls += 1
            duplicated = SquareMatrix(ring, [[point[i]] * n for i in range(n)])
            return permanent(duplicated)

        func = DiagonalFunction(arity=n, evaluate=evaluate)
        value = down(polarize(func, lifted.columns(), params["gammas"], ring))
        if not matrix.ring.eq(value, reference):
            return False, f"reconstruction gave {value} at shift {which}, expected {reference}"
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


def _run_job(job: tuple[str, int, int, int]) -> tuple[bool, str]:
    """Run one trial on its job's random stream; an exception fails the trial, not the run."""
    suite, n, seed, trial = job
    try:
        return SUITES[suite].run_trial(derive_rng(seed, suite, n, trial), n)
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}"


def _map_jobs(jobs, workers: int):
    processes = min(workers, len(jobs), os.cpu_count() or 1)
    if processes <= 1:
        return [_run_job(job) for job in jobs]
    with multiprocessing.Pool(processes) as pool:
        return pool.map(_run_job, jobs)


def run_suites(
    suite_names,
    trials: int,
    seed: int,
    workers: int = 1,
    ns: "tuple[int, ...] | None" = None,
) -> tuple[list[str], bool]:
    """Run the named suites and return (report lines, overall pass flag).

    Trials regenerate their instances from (seed, suite, n, trial), so the
    report is byte-identical for any worker count.
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
    jobs: list[tuple[str, int, int, int]] = []
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
            jobs.extend((name, n, seed, trial) for trial in range(1, trials + 1))
    results = _map_jobs(jobs, workers)
    lines = []
    for start in range(0, len(jobs), trials):
        name, n, _, _ = jobs[start]
        chunk = results[start : start + trials]
        ok_count = sum(1 for ok, _ in chunk if ok)
        line = f"{name} n={n}: {ok_count}/{trials} ok: {'PASS' if ok_count == trials else 'FAIL'}"
        if ok_count != trials:
            notes = "; ".join(
                f"trial {i}: {note}" for i, (ok, note) in enumerate(chunk, start=1) if not ok
            )
            line += f" [{notes}]"
        lines.append(line)
    passed_total = sum(1 for ok, _ in results if ok)
    all_ok = passed_total == len(jobs)
    verdict = "PASS" if all_ok else "FAIL"
    lines.append(f"result: {verdict} ({passed_total}/{len(jobs)} checks)")
    return lines, all_ok
