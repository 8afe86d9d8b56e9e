"""Operation counts and method comparison.

count_ops reads a request's counts from the registry's closed forms without
running anything; that is what compute prints.  run_counted measures them:
rebinding a matrix to a CountingRing makes every ring operation a call that
ticks a counter.  Its folds are Ring's own loops, one call per operation,
while a power runs whole on the base ring and the multiplications it stands
for are tallied from its exponent's bits, apart from free-form ones, which
is how the structural claim "identity evaluators multiply only inside n-th
powers" is checked.  compare_methods runs every compared method counted,
checks its counts against the closed form and its value against a plain run,
whose folds are the base ring's own.  The evaluators themselves come from
the registry in methods.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Mapping

from .matrices import CubeMatrix, SquareMatrix
from .methods import (
    COUNT_FIELDS,
    MethodDisagreement,
    OpCounts,
    checked_spec,
    evaluate_method,
    lift,
)
# The registry's own dict, not a copy: perfbench/tracing.py rebinds its
# entries through bench.METHODS, and every run must see them.
from .methods import METHODS
from .rings import Ring, power_muls
from .sampling import derive_rng, random_integer_matrix


class CountingRing(Ring):
    """Wrapper ring that counts operations and delegates values to a base ring.

    Every operation is one call that ticks its counter, the folds included:
    they are Ring's loops over the overrides.  Only a power runs whole on the
    base ring, and its multiplications are tallied from the exponent's bits.
    """

    def __init__(self, base: Ring):
        name = f"counting({base.name})"
        super().__init__(name, base.from_int, base.is_element, base.commutative)
        self.base = base
        self.counts = OpCounts()

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
        self.counts.muls += 1
        return self.base.mul(x, y)

    def _div_exact(self, x: Any, k: int) -> Any:
        self.counts.int_divs += 1
        return self.base._div_exact(x, k)

    def power(self, x: Any, exponent: int) -> Any:
        value = self.base.power(x, exponent)
        self.counts.powers += 1
        self.counts.power_muls += power_muls(exponent)
        return value


def count_ops(method: str, obj: SquareMatrix | CubeMatrix) -> OpCounts:
    """The op counts one run of method makes on obj, from the registry's
    closed form; nothing is evaluated, and the report's value is None.

    The registry's checks (method name, container, size limits) are made as
    for a run.  The counts depend on method and obj.n alone, not on the ring
    or the shifts.
    """
    return checked_spec(method, obj).counts(obj.n)


def run_counted(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> OpCounts:
    """Run a registered evaluator once, in a counting ring, and report its op
    counts and the value it computed.

    Callers compare report.value with a plain run, where a mismatch means the
    wrapper ring changed semantics, and the counts with count_ops.  A lifted
    request (see methods.lift) counts the same operations on exact integers;
    moving its value back is not counted.
    """
    spec = checked_spec(method, obj)
    lifted, params, down = lift(obj, params)
    counting = CountingRing(lifted.ring)
    value = spec.run(lifted.with_ring(counting), params, counting.counts)
    return replace(counting.counts, value=down(value))


COMPARED_METHODS = (
    "per_definitional",
    "per_ryser",
    "per_identity",
    "det_definitional",
    "det_identity",
)

MAX_BENCH_N = min(METHODS[method].max_n for method in COMPARED_METHODS)

# Bench rows and the table leave out f_evals: no compared method calls a
# diagonal restriction.
TABLE_COLUMNS = ("method", "n", "value", *COUNT_FIELDS[:-1])


def compare_methods(n_min: int, n_max: int, seed: int) -> list[dict]:
    """Op-count comparison rows for the core methods on seeded random matrices.

    One integer matrix is drawn per n and shared by all methods; methods of
    the same family must agree on the value, and every counted run must make
    the counts of its closed form, or the comparison hard-fails.  Rows carry
    no wall-clock numbers, so output is reproducible.
    """
    if n_min < 1 or n_min > n_max or n_max > MAX_BENCH_N:
        raise ValueError(f"need 1 <= nmin <= nmax <= {MAX_BENCH_N}")
    rows = []
    for n in range(n_min, n_max + 1):
        matrix = random_integer_matrix(derive_rng(seed, "bench", n), n)
        family_values: dict[str, list[tuple[str, Any]]] = {}
        for method in COMPARED_METHODS:
            value = evaluate_method(method, matrix)
            report = run_counted(method, matrix)
            model = count_ops(method, matrix)
            for field in COUNT_FIELDS:
                counted, predicted = getattr(report, field), getattr(model, field)
                if counted != predicted:
                    raise MethodDisagreement(
                        f"counted {method} at n={n} made {field}={counted} "
                        f"but its closed form gives {predicted}"
                    )
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
