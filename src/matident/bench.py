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
from .rings import MATRIX2, SYMBOLIC, MatrixElement, Poly, Ring, _matrix, _poly
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
        # n! diagonals of n! orderings each: on matrix2 a plain and a counted run
        # take about 0.1 s together at n = 5 and about 6 s at n = 6.
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


class _PackedPolyRing(Ring):
    """Polynomials as {packed monomial: nonzero int coefficient} dicts.

    A monomial packs its exponents into one int, a fixed number of bits per
    variable (see _lift_polys), so the product of two monomials is one
    integer addition.  Elements are never mutated.
    """

    def add(self, x: dict, y: dict) -> dict:
        if len(x) < len(y):
            x, y = y, x
        terms = dict(x)
        for key, coeff in y.items():
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                del terms[key]
        return terms

    def sub(self, x: dict, y: dict) -> dict:
        terms = dict(x)
        for key, coeff in y.items():
            total = terms.get(key, 0) - coeff
            if total:
                terms[key] = total
            else:
                del terms[key]
        return terms

    def neg(self, x: dict) -> dict:
        return {key: -coeff for key, coeff in x.items()}

    def mul(self, x: dict, y: dict) -> dict:
        terms: dict[int, int] = {}
        get = terms.get
        for key_y, coeff_y in y.items():
            for key_x, coeff_x in x.items():
                key = key_x + key_y
                terms[key] = get(key, 0) + coeff_x * coeff_y
        if 0 in terms.values():
            return {key: coeff for key, coeff in terms.items() if coeff}
        return terms

    def _div_exact(self, x: dict, k: int) -> dict:
        quotients = {}
        for key, coeff in x.items():
            quotient, remainder = divmod(coeff, k)
            if remainder:
                raise ArithmeticError(f"coefficient {coeff} is not divisible by {k}")
            quotients[key] = quotient
        return quotients


class _IntegerMatrixRing(Ring):
    """2x2 integer matrices as (a, b, c, d) tuples, read row by row; exact
    division refuses a remainder in any cell."""

    def add(self, x: tuple, y: tuple) -> tuple:
        a, b, c, d = x
        e, f, g, h = y
        return (a + e, b + f, c + g, d + h)

    def sub(self, x: tuple, y: tuple) -> tuple:
        a, b, c, d = x
        e, f, g, h = y
        return (a - e, b - f, c - g, d - h)

    def neg(self, x: tuple) -> tuple:
        a, b, c, d = x
        return (-a, -b, -c, -d)

    def mul(self, x: tuple, y: tuple) -> tuple:
        a, b, c, d = x
        e, f, g, h = y
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def _div_exact(self, x: tuple, k: int) -> tuple:
        cells = [divmod(cell, k) for cell in x]
        if any(remainder for _, remainder in cells):
            raise ArithmeticError(f"{x} is not divisible by {k}")
        return tuple(quotient for quotient, _ in cells)


_INTEGER = _IntegerRing(
    "integers", int, lambda x: isinstance(x, int) and not isinstance(x, bool)
)
# These two carry the public rings' names, so a lifted request's errors (a
# noncommutative ring refused, say) read as they would unlifted.
_PACKED = _PackedPolyRing(
    SYMBOLIC.name, lambda k: {0: k} if k else {}, lambda x: isinstance(x, dict)
)
_INTEGER_MATRIX = _IntegerMatrixRing(
    MATRIX2.name, lambda k: (k, 0, 0, k), lambda x: isinstance(x, tuple), commutative=False
)

# What a lifter returns for a request's values and its n: the ring to run
# on, the map of one value up into it and the map of the result back down.
_Lifted = tuple[Ring, Callable[[Any], Any], Callable[[Any], Any]]


def _lift_rationals(values: list[Fraction], n: int) -> _Lifted:
    """Scale by the least common denominator L; the value comes back over L**n."""
    scale = math.lcm(*(value.denominator for value in values))

    def up(value: Fraction) -> int:
        return value.numerator * (scale // value.denominator)

    return _INTEGER, up, lambda value: Fraction(value, scale**n)


def _lift_polys(values: list[Poly], n: int) -> _Lifted:
    """Scale by the least common denominator L of every coefficient and pack
    each monomial into one int, w bits per variable in sorted-name order.

    Every monomial an evaluator forms is a product of at most n monomials of
    the inputs (Ring.power squares only up to the exponent), so no exponent
    exceeds n*D for the largest total degree D of an input, and w =
    (n*D).bit_length() bits keep every field from carrying into the next.
    """
    terms = [term for value in values for term in value.terms()]
    scale = math.lcm(*(coeff.denominator for _, coeff in terms))
    degree = max((sum(exponent for _, exponent in monomial) for monomial, _ in terms), default=0)
    width = (n * degree).bit_length()
    names = sorted({name for monomial, _ in terms for name, _ in monomial})
    offsets = {name: width * index for index, name in enumerate(names)}
    mask = (1 << width) - 1

    def up(value: Poly) -> dict:
        return {
            sum(exponent << offsets[name] for name, exponent in monomial): (
                coeff.numerator * (scale // coeff.denominator)
            )
            for monomial, coeff in value.terms()
        }

    def down(value: dict) -> Poly:
        denominator = scale**n
        return _poly(
            {
                tuple(
                    (name, key >> offset & mask)
                    for name, offset in offsets.items()
                    if key >> offset & mask
                ): Fraction(coeff, denominator)
                for key, coeff in value.items()
            }
        )

    return _PACKED, up, down


def _lift_matrices(values: list[MatrixElement], n: int) -> _Lifted:
    """Scale by c = L*n! for the least common denominator L of every cell.

    L alone is not enough: symmetrize divides products of m <= n factors by
    m!, and eper_identity divides by n!.  With every cell a multiple of n!,
    a product of m cells is a multiple of (n!)**m, so both divide exactly.
    The value comes back over c**n.
    """
    cells = [cell for value in values for row in value.rows for cell in row]
    scale = math.lcm(*(cell.denominator for cell in cells)) * math.factorial(n)

    def up(value: MatrixElement) -> tuple:
        return tuple(
            cell.numerator * (scale // cell.denominator) for row in value.rows for cell in row
        )

    def down(value: tuple) -> MatrixElement:
        denominator = scale**n
        return _matrix(*(Fraction(cell, denominator) for cell in value))

    return _INTEGER_MATRIX, up, down


# The lifter for a request whose values are all of one element type.
_LIFTERS = (
    (Fraction, _lift_rationals),
    (Poly, _lift_polys),
    (MatrixElement, _lift_matrices),
)


def lift(
    obj: SquareMatrix | CubeMatrix, params: dict
) -> tuple[SquareMatrix | CubeMatrix, dict, Callable[[Any], Any]]:
    """The request moved onto exact integers, and the map that moves its value back.

    Every function in the registry is homogeneous of degree n in the entries
    and shifts together, so f(A, gamma) = f(c*A, c*gamma) / c**n for any
    scale c.  A request whose entries and shifts are all Fractions, all
    Polys or all MatrixElements is scaled until every coefficient is an
    integer and runs over a ring of Python ints (see the _lift_* functions).
    Anything else is returned unchanged, so its errors stay the evaluators'
    own.  A degree-t residual of the lifted matrix is c**t times the one of
    obj, so it is zero exactly when obj's is; verify's corollary trials
    decide zero-ness on the lifted matrix alone.
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
    lifter = next(
        (fn for cls, fn in _LIFTERS if all(isinstance(value, cls) for value in values)), None
    )
    if lifter is None:
        return unchanged
    ring, up, down = lifter(values, obj.n)
    lifted_params = {**params, **{key: up(value) for key, value in shifts.items()}}
    if gammas is not None:
        lifted_params["gammas"] = tuple(up(value) for value in gammas)
    if square:
        lifted = SquareMatrix(ring, [[up(x) for x in row] for row in obj.entries])
    else:
        lifted = CubeMatrix(
            ring, [[[up(x) for x in row] for row in section] for section in obj.sections]
        )
    return lifted, lifted_params, down


def evaluate_method(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> Any:
    """Run a registered evaluator without instrumentation.

    A request made entirely of Fractions, of Polys or of MatrixElements runs
    on exact integers (see lift); its value comes back as the same element.
    """
    spec = _checked_spec(method, obj)
    lifted, params, lower = lift(obj, dict(params or {}))
    return lower(spec.run(lifted, params, OpCounts()))


def count_ops(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> OpCounts:
    """Run a registered evaluator once, in a counting ring, and report its op
    counts and the value it computed.

    Callers compare report.value with a plain run: a mismatch means the
    wrapper ring changed semantics.  A lifted request (see lift) counts the
    same operations on exact integers; moving its value back is not counted.
    """
    spec = _checked_spec(method, obj)
    lifted, params, lower = lift(obj, dict(params or {}))
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
