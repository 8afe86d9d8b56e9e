"""Operation counting and method comparison.

Counting lives in a wrapper ring rather than in the evaluators: rebinding a
matrix to a CountingRing makes every ring operation tick a counter while the
computed values stay exactly what the base ring produces.  Multiplications
performed inside Ring.power are tallied separately from free-form ones, which
is how the structural claim "identity evaluators multiply only inside n-th
powers" is checked.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Mapping

from . import identities
from .combinatorics import MAX_ENUMERATION_N
from .matrices import CubeMatrix, SquareMatrix
from .polarization import DiagonalFunction, polarize
from .rings import Ring
from .sampling import derive_rng, random_integer_matrix


@dataclass
class OpCounts:
    """Mutable tally of ring operations, and the report of one evaluator run.

    adds counts additions and subtractions; muls counts multiplications
    issued outside Ring.power while power_muls counts the ones inside it;
    f_evals counts diagonal-restriction calls made by polarization-based
    methods.  count_ops fills in the counted run's value, method, n and
    wall_time; wall_time is kept on the report but never printed by the CLI
    surfaces, which must be byte-identical for a fixed seed.
    """

    adds: int = 0
    negs: int = 0
    muls: int = 0
    power_muls: int = 0
    powers: int = 0
    int_divs: int = 0
    f_evals: int = 0
    value: Any = None
    method: str = ""
    n: int = 0
    wall_time: float = 0.0


# The op counts of an OpCounts report, in the order the CLI prints them.
COUNT_FIELDS = ("adds", "negs", "muls", "power_muls", "powers", "int_divs", "f_evals")


class CountingRing(Ring):
    """Wrapper ring that counts operations and delegates values to a base ring."""

    def __init__(self, base: Ring):
        name = f"counting({base.name})"
        super().__init__(name, base.from_int, base.is_element, base.commutative)
        self.base = base
        self.counts = OpCounts()
        self._power_depth = 0

    def add(self, x: Any, y: Any) -> Any:
        self.counts.adds += 1
        return self.base.add(x, y)

    def sub(self, x: Any, y: Any) -> Any:
        self.counts.adds += 1
        return self.base.sub(x, y)

    def neg(self, x: Any) -> Any:
        self.counts.negs += 1
        return self.base.neg(x)

    def mul(self, x: Any, y: Any) -> Any:
        if self._power_depth:
            self.counts.power_muls += 1
        else:
            self.counts.muls += 1
        return self.base.mul(x, y)

    def _div_exact(self, x: Any, k: int) -> Any:
        self.counts.int_divs += 1
        return self.base._div_exact(x, k)

    def power(self, x: Any, exponent: int) -> Any:
        self.counts.powers += 1
        self._power_depth += 1
        try:
            # Same square-and-multiply as the base ring, so values agree.
            return super().power(x, exponent)
        finally:
            self._power_depth -= 1


class MethodDisagreement(RuntimeError):
    """Methods that must agree produced different values."""


def _run_per_polarization(matrix: SquareMatrix, params: Mapping, counts: OpCounts) -> Any:
    """Permanent reconstructed from its diagonal restriction; counts F calls."""
    ring = matrix.ring
    n = matrix.n

    def diagonal_eval(column: tuple) -> Any:
        counts.f_evals += 1
        return identities.permanent(SquareMatrix.from_columns(ring, [column] * n))

    gamma = tuple(ring.zero() for _ in range(n))
    func = DiagonalFunction(n, diagonal_eval)
    return polarize(func, matrix.columns(), gamma, ring)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str  # "matrix" or "cube"
    run: Callable[[Any, Mapping, OpCounts], Any]
    max_n: int = MAX_ENUMERATION_N


METHODS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            "per_definitional", "matrix", lambda m, p, c: identities.permanent(m)
        ),
        MethodSpec(
            "per_identity",
            "matrix",
            lambda m, p, c: identities.permanent_identity(m, p.get("gammas")),
        ),
        MethodSpec(
            "per_ryser", "matrix", lambda m, p, c: identities.permanent_ryser(m)
        ),
        # 2^n permanents of n x n matrices: n = 7 takes seconds, n = 8 minutes.
        MethodSpec("per_polarization", "matrix", _run_per_polarization, max_n=7),
        MethodSpec(
            "det_definitional", "matrix", lambda m, p, c: identities.determinant(m)
        ),
        MethodSpec(
            "det_identity",
            "matrix",
            lambda m, p, c: identities.determinant_identity(m, p.get("gamma")),
        ),
        # n! diagonals of n! orderings each: n = 5 takes seconds, n = 6 minutes.
        MethodSpec(
            "eper_definitional",
            "matrix",
            lambda m, p, c: identities.symmetrized_permanent(m),
            max_n=5,
        ),
        MethodSpec(
            "eper_identity",
            "matrix",
            lambda m, p, c: identities.symmetrized_permanent_identity(m, p.get("delta")),
        ),
        # n! permanents of n! diagonals each: n = 6 takes seconds, n = 7 minutes.
        MethodSpec(
            "detp_definitional",
            "cube",
            lambda m, p, c: identities.space_determinant(m),
            max_n=6,
        ),
        MethodSpec(
            "detp_identity",
            "cube",
            lambda m, p, c: identities.space_determinant_identity(m),
        ),
    )
}


def _checked_spec(method: str, obj: SquareMatrix | CubeMatrix) -> MethodSpec:
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if spec.kind == "matrix" and not isinstance(obj, SquareMatrix):
        raise ValueError(f"method {method} expects a square matrix")
    if spec.kind == "cube" and not isinstance(obj, CubeMatrix):
        raise ValueError(f"method {method} expects a cube")
    if obj.n > spec.max_n:
        raise ValueError(f"method {method} supports n up to {spec.max_n}, got {obj.n}")
    return spec


class _IntegerRing(Ring):
    """Python ints, whose exact division refuses to leave a remainder."""

    def _div_exact(self, x: int, k: int) -> int:
        quotient, remainder = divmod(x, k)
        if remainder:
            raise ArithmeticError(f"{x} is not divisible by {k}")
        return quotient


_INTEGER = _IntegerRing(
    "integers", int, lambda x: isinstance(x, int) and not isinstance(x, bool)
)


def _lift(
    obj: SquareMatrix | CubeMatrix, params: dict
) -> tuple[SquareMatrix | CubeMatrix, dict, Callable[[Any], Any]]:
    """The request moved onto the integers, and the map that moves its value back.

    Every function in the registry is homogeneous of degree n in the entries
    and shifts together, so f(A, gamma) = f(L*A, L*gamma) / L**n for the least
    common denominator L of them all.  Only inputs made entirely of Fractions
    are lifted; anything else is returned unchanged, so its errors stay the
    evaluators' own.
    """
    unchanged = obj, params, lambda value: value
    square = isinstance(obj, SquareMatrix)
    rows = obj.entries if square else [row for section in obj.sections for row in section]
    values = [entry for row in rows for entry in row]
    gammas = params.get("gammas")
    if gammas is not None:
        if not isinstance(gammas, (tuple, list)):
            return unchanged
        values += gammas
    shifts = {key: params[key] for key in ("gamma", "delta") if params.get(key) is not None}
    values += shifts.values()
    if not all(isinstance(value, Fraction) for value in values):
        return unchanged
    scale = math.lcm(*(value.denominator for value in values))

    def up(value: Fraction) -> int:
        return value.numerator * (scale // value.denominator)

    lifted_params = {**params, **{key: up(value) for key, value in shifts.items()}}
    if gammas is not None:
        lifted_params["gammas"] = tuple(up(value) for value in gammas)
    if square:
        lifted = SquareMatrix(_INTEGER, [[up(x) for x in row] for row in obj.entries])
    else:
        lifted = CubeMatrix(
            _INTEGER, [[[up(x) for x in row] for row in section] for section in obj.sections]
        )
    return lifted, lifted_params, lambda value: Fraction(value, scale**obj.n)


def evaluate_method(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> Any:
    """Run a registered evaluator without instrumentation.

    A request made entirely of Fractions runs on the integers (see _lift);
    its value comes back as the same Fraction.
    """
    spec = _checked_spec(method, obj)
    lifted, params, lower = _lift(obj, dict(params or {}))
    return lower(spec.run(lifted, params, OpCounts()))


def count_ops(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> OpCounts:
    """Run a registered evaluator once, in a counting ring, and report its op
    counts and the value it computed.

    Callers compare report.value with a plain run: a mismatch means the
    wrapper ring changed semantics.  A lifted request (see _lift) counts the
    same operations on integers; moving its value back is not counted.
    """
    spec = _checked_spec(method, obj)
    lifted, params, lower = _lift(obj, dict(params or {}))
    counting = CountingRing(lifted.ring)
    started = time.perf_counter()
    value = spec.run(lifted.with_ring(counting), params, counting.counts)
    elapsed = time.perf_counter() - started
    return replace(
        counting.counts, value=lower(value), method=method, n=obj.n, wall_time=elapsed
    )


COMPARED_METHODS = (
    "per_definitional",
    "per_ryser",
    "per_identity",
    "det_definitional",
    "det_identity",
)

MAX_BENCH_N = 8

# Bench rows and the table leave out f_evals: no compared method calls a
# diagonal restriction.
TABLE_COLUMNS = ("method", "n", "value", *COUNT_FIELDS[:-1])


def compare_methods(n_min: int, n_max: int, seed: int) -> list[dict]:
    """Op-count comparison rows for the core methods on seeded random matrices.

    One integer matrix is drawn per n and shared by all methods; methods of
    the same family must agree on the value or the comparison hard-fails.
    Rows carry no wall-clock numbers, so output is reproducible.
    """
    if n_min < 1 or n_min > n_max or n_max > MAX_BENCH_N:
        raise ValueError(f"need 1 <= nmin <= nmax <= {MAX_BENCH_N}")
    rows = []
    for n in range(n_min, n_max + 1):
        matrix = random_integer_matrix(derive_rng(seed, "bench", n), n)
        family_values: dict[str, list[tuple[str, Any]]] = {}
        for method in COMPARED_METHODS:
            value = evaluate_method(method, matrix)
            report = count_ops(method, matrix)
            # The counted run must agree with its family like any other method.
            pairs = family_values.setdefault(method.split("_")[0], [])
            pairs += [(method, value), (f"instrumented {method}", report.value)]
            rows.append(
                {
                    "method": method,
                    "n": n,
                    "value": str(value),
                    **{field: getattr(report, field) for field in TABLE_COLUMNS[3:]},
                }
            )
        for family, pairs in family_values.items():
            _, reference = pairs[0]
            for name, value in pairs[1:]:
                if not matrix.ring.eq(value, reference):
                    raise MethodDisagreement(
                        f"{family} methods disagree at n={n}: "
                        f"{pairs[0][0]}={reference} but {name}={value}; "
                        f"matrix entries={matrix.entries}"
                    )
    return rows


def format_table(rows: list[dict]) -> str:
    """Aligned text table with a stable column order."""
    cells = [[str(row[column]) for column in TABLE_COLUMNS] for row in rows]
    widths = [
        max(len(header), *(len(line[i]) for line in cells)) if cells else len(header)
        for i, header in enumerate(TABLE_COLUMNS)
    ]
    def render(line: list[str]) -> str:
        parts = [line[0].ljust(widths[0])]
        parts += [line[i].rjust(widths[i]) for i in range(1, len(line))]
        return "  ".join(parts).rstrip()
    lines = [render(list(TABLE_COLUMNS))]
    lines += [render(line) for line in cells]
    return "\n".join(lines)


def write_records(rows: list[dict], path: str) -> None:
    """One JSON record per row, fields in table order."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
