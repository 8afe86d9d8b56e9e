"""Layer micro-measurements: raw ring arithmetic and enumeration drains.

Ring operands have fixed shapes drawn from the seed:

- rational: numerators of 12 digits over denominators of 6 digits;
  pow_n raises to the 6th power (the det identity's n).
- symbolic: linear polynomials with 6 terms (a constant and 5 variables,
  3 of them shared) and p/q coefficients; pow_n raises to the 4th power.
- matrix2: 2x2 matrices of p/q entries with |p|, q <= 9; pow_n raises
  to the 5th power.

Each figure is the median of several repeats of a loop sized to run for
about 20 ms.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from matident.combinatorics import (
    EVEN,
    enumerate_permutations,
    enumerate_subdiagonals,
    enumerate_submatrices,
)
from matident.rings import MATRIX2, RATIONAL, SYMBOLIC, MatrixElement, Poly

POWERS = {"rational": 6, "symbolic": 4, "matrix2": 5}
_REPEATS = 7
_TARGET_SECONDS = 0.02


def _fraction(rng: random.Random, digits: int, denominator_digits: int) -> Fraction:
    numerator = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
    denominator = rng.randrange(10 ** (denominator_digits - 1), 10**denominator_digits)
    return Fraction(numerator, denominator)


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _linear(rng: random.Random, names) -> Poly:
    poly = Poly.constant(_small(rng) or 1)
    for name in names:
        poly = poly + Poly.constant(_small(rng) or 1) * Poly.variable(name)
    return poly


def operands(seed: int) -> dict:
    rng = random.Random(f"{seed}:micro")
    return {
        "rational": (RATIONAL, _fraction(rng, 12, 6), _fraction(rng, 12, 6)),
        "symbolic": (
            SYMBOLIC,
            _linear(rng, ("x1", "x2", "x3", "x4", "x5")),
            _linear(rng, ("x3", "x4", "x5", "x6", "x7")),
        ),
        "matrix2": (
            MATRIX2,
            MatrixElement([[_small(rng) for _ in range(2)] for _ in range(2)]),
            MatrixElement([[_small(rng) for _ in range(2)] for _ in range(2)]),
        ),
    }


def _per_call_ns(call) -> float:
    started = perf_counter()
    call()
    estimate = max(perf_counter() - started, 1e-7)
    loops = max(1, int(_TARGET_SECONDS / estimate))
    samples = []
    for _ in range(_REPEATS):
        started = perf_counter()
        for _ in range(loops):
            call()
        samples.append((perf_counter() - started) / loops)
    return statistics.median(samples) * 1e9


def ring_timings(seed: int) -> dict[str, float]:
    """rings.<ring>.{add,mul,pow_n}_ns at the fixed operand shapes."""
    metrics = {}
    for label, (ring, x, y) in operands(seed).items():
        exponent = POWERS[label]
        metrics[f"rings.{label}.add_ns"] = _per_call_ns(lambda: ring.add(x, y))
        metrics[f"rings.{label}.mul_ns"] = _per_call_ns(lambda: ring.mul(x, y))
        metrics[f"rings.{label}.pow_n_ns"] = _per_call_ns(lambda: ring.power(x, exponent))
    return metrics


def _drain_ms(make_stream, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        for _ in make_stream():
            pass
        samples.append(perf_counter() - started)
    return statistics.median(samples) * 1e3


def drains() -> dict[str, float]:
    """Each enumeration stream drained with no arithmetic, in milliseconds."""
    return {
        "combinatorics.drain.subdiagonals_7_6_ms": _drain_ms(
            lambda: enumerate_subdiagonals(7, 6, EVEN)
        ),
        "combinatorics.drain.permutations_8_ms": _drain_ms(
            lambda: enumerate_permutations(8), repeats=3
        ),
        "combinatorics.drain.submatrices_6_ms": _drain_ms(lambda: enumerate_submatrices(6)),
    }
