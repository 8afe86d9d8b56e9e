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
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from . import identities
from .matrices import CubeMatrix, SquareMatrix
from .polarization import DiagonalFunction, componentwise_add, polarize
from .rings import Ring, binary_power
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


class CountingRing(Ring):
    """Wrapper ring that counts operations and delegates values to a base ring."""

    def __init__(self, base: Ring):
        self.base = base
        self.name = f"counting({base.name})"
        self.commutative = base.commutative
        self.counts = OpCounts()
        self._power_depth = 0

    def zero(self) -> Any:
        return self.base.zero()

    def one(self) -> Any:
        return self.base.one()

    def from_int(self, value: int) -> Any:
        return self.base.from_int(value)

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

    def eq(self, x: Any, y: Any) -> bool:
        return self.base.eq(x, y)

    def is_element(self, x: Any) -> bool:
        return self.base.is_element(x)

    def _div_exact(self, x: Any, k: int) -> Any:
        self.counts.int_divs += 1
        return self.base._div_exact(x, k)

    def power(self, x: Any, exponent: int) -> Any:
        self.counts.powers += 1
        self._power_depth += 1
        try:
            # Same square-and-multiply as the base ring, so values agree.
            return binary_power(self.base.one(), self.mul, x, exponent)
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
    return polarize(func, matrix.columns(), gamma, componentwise_add(ring), ring)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str  # "matrix" or "cube"
    run: Callable[[Any, Mapping, OpCounts], Any]


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
        MethodSpec("per_polarization", "matrix", _run_per_polarization),
        MethodSpec(
            "det_definitional", "matrix", lambda m, p, c: identities.determinant(m)
        ),
        MethodSpec(
            "det_identity",
            "matrix",
            lambda m, p, c: identities.determinant_identity(m, p.get("gamma")),
        ),
        MethodSpec(
            "eper_definitional",
            "matrix",
            lambda m, p, c: identities.symmetrized_permanent(m),
        ),
        MethodSpec(
            "eper_identity",
            "matrix",
            lambda m, p, c: identities.symmetrized_permanent_identity(m, p.get("delta")),
        ),
        MethodSpec(
            "detp_definitional", "cube", lambda m, p, c: identities.space_determinant(m)
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
    return spec


def evaluate_method(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> Any:
    """Run a registered evaluator without instrumentation."""
    spec = _checked_spec(method, obj)
    return spec.run(obj, dict(params or {}), OpCounts())


def count_ops(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> OpCounts:
    """Run a registered evaluator once, in a counting ring, and report its op
    counts and the value it computed.

    Callers compare report.value with a plain run: a mismatch means the
    wrapper ring changed semantics.
    """
    spec = _checked_spec(method, obj)
    counting = CountingRing(obj.ring)
    started = time.perf_counter()
    value = spec.run(obj.with_ring(counting), dict(params or {}), counting.counts)
    elapsed = time.perf_counter() - started
    return replace(counting.counts, value=value, method=method, n=obj.n, wall_time=elapsed)


COMPARED_METHODS = (
    "per_definitional",
    "per_ryser",
    "per_identity",
    "det_definitional",
    "det_identity",
)

MAX_BENCH_N = 8


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
                    "adds": report.adds,
                    "negs": report.negs,
                    "muls": report.muls,
                    "power_muls": report.power_muls,
                    "powers": report.powers,
                    "int_divs": report.int_divs,
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


TABLE_COLUMNS = (
    "method",
    "n",
    "value",
    "adds",
    "negs",
    "muls",
    "power_muls",
    "powers",
    "int_divs",
)


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
