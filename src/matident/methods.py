"""The method registry that compute, bench and verify all read.

METHODS maps each `<fn>_<method>` name to the evaluator that computes it and
the container it takes.  evaluate_method runs one plainly; bench.count_ops
runs one in a counting ring.  Both first move the request onto exact
integers with lift when its values are all of one ring's element type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from . import identities
from .combinatorics import MAX_ENUMERATION_N
from .matrices import CubeMatrix, SquareMatrix
from .polarization import DiagonalFunction, polarize
from .rings import LIFTERS


@dataclass
class OpCounts:
    """Mutable tally of ring operations, and the report of one evaluator run.

    adds counts additions and subtractions; muls counts multiplications
    issued outside Ring.power while power_muls counts the ones inside it;
    f_evals counts diagonal-restriction calls made by polarization-based
    methods.  bench.count_ops fills in the counted run's value, method and n.
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


# The op counts of an OpCounts report, in the order the CLI prints them.
COUNT_FIELDS = ("adds", "negs", "muls", "power_muls", "powers", "int_divs", "f_evals")


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
    kind: type  # SquareMatrix or CubeMatrix
    run: Callable[[Any, Mapping, OpCounts], Any]
    max_n: int = MAX_ENUMERATION_N


METHODS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            "per_definitional", SquareMatrix, lambda m, p, c: identities.permanent(m)
        ),
        MethodSpec(
            "per_identity",
            SquareMatrix,
            lambda m, p, c: identities.permanent_identity(m, p.get("gammas")),
        ),
        MethodSpec(
            "per_ryser", SquareMatrix, lambda m, p, c: identities.permanent_ryser(m)
        ),
        # 2^n permanents of n x n matrices: n = 7 takes seconds, n = 8 minutes.
        MethodSpec("per_polarization", SquareMatrix, _run_per_polarization, max_n=7),
        MethodSpec(
            "det_definitional", SquareMatrix, lambda m, p, c: identities.determinant(m)
        ),
        MethodSpec(
            "det_identity",
            SquareMatrix,
            lambda m, p, c: identities.determinant_identity(m, p.get("gamma")),
        ),
        # n! diagonals of n! orderings each: on matrix2 a plain and a counted run
        # take about 0.1 s together at n = 5 and about 6 s at n = 6.
        MethodSpec(
            "eper_definitional",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent(m),
            max_n=5,
        ),
        MethodSpec(
            "eper_identity",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent_identity(m, p.get("delta")),
        ),
        # n! permanents of n! diagonals each: n = 6 takes seconds, n = 7 minutes.
        MethodSpec(
            "detp_definitional",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant(m),
            max_n=6,
        ),
        MethodSpec(
            "detp_identity",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant_identity(m),
        ),
    )
}


def lift(
    obj: SquareMatrix | CubeMatrix, params: dict
) -> tuple[SquareMatrix | CubeMatrix, dict, Callable[[Any], Any]]:
    """The request moved onto exact integers, and the map that moves its value back.

    Every function in the registry is homogeneous of degree n in the entries
    and shifts together, so f(A, gamma) = f(c*A, c*gamma) / c**n for any
    scale c.  A request whose entries and shifts are all Fractions, all
    Polys or all MatrixElements is scaled until every coefficient is an
    integer and runs over a ring of Python ints (see rings.LIFTERS).
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
        (fn for cls, fn in LIFTERS if all(isinstance(value, cls) for value in values)), None
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


def lifted_request(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None
) -> tuple[MethodSpec, SquareMatrix | CubeMatrix, dict, Callable[[Any], Any]]:
    """The checked spec of method, and the request lifted onto exact integers
    with the map that moves its value back (see lift)."""
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(obj, spec.kind):
        container = "square matrix" if spec.kind is SquareMatrix else "cube"
        raise ValueError(f"method {method} expects a {container}")
    if obj.n > spec.max_n:
        raise ValueError(f"method {method} supports n up to {spec.max_n}, got {obj.n}")
    return (spec, *lift(obj, dict(params or {})))


def evaluate_method(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> Any:
    """Run a registered evaluator without instrumentation.

    A request made entirely of Fractions, of Polys or of MatrixElements runs
    on exact integers (see lift); its value comes back as the same element.
    """
    spec, lifted, params, down = lifted_request(method, obj, params)
    return down(spec.run(lifted, params, OpCounts()))
