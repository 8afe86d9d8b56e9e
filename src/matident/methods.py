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
from .rings import LIFTERS, Poly


@dataclass
class OpCounts:
    """Mutable tally of ring operations, and the report of one evaluator run.

    adds counts additions and subtractions; muls counts multiplications
    issued outside powers while power_muls counts the ones square-and-multiply
    makes inside them;
    f_evals counts diagonal-restriction calls made by polarization-based
    methods.  bench.count_ops fills in the counted run's value.
    """

    adds: int = 0
    negs: int = 0
    muls: int = 0
    power_muls: int = 0
    powers: int = 0
    int_divs: int = 0
    f_evals: int = 0
    value: Any = None


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
    # The limit for polynomial entries, whose terms multiply with n.
    symbolic_max_n: int = MAX_ENUMERATION_N


# Each max_n keeps one compute (a plain and a counted run) on a rational
# document (matrix2 for eper) within about 5 s on a 2-vCPU machine, and each
# symbolic_max_n does the same on a symbolic document of distinct variables
# (a cube for detp), as the whole-run times below show (README.md, size limits).
METHODS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        # n! diagonals: 1.5 s at n = 9, 17 s at n = 10; symbolic 1.4-2 s at
        # n = 8, 15.7 s at n = 9.
        MethodSpec(
            "per_definitional",
            SquareMatrix,
            lambda m, p, c: identities.permanent(m),
            max_n=9,
            symbolic_max_n=8,
        ),
        # per_identity and per_ryser: 2^n products of row sums, which on
        # symbolic documents hold up to n^n terms each: 0.3-0.4 s at n = 6,
        # 6.3-10 s at n = 7.
        MethodSpec(
            "per_identity",
            SquareMatrix,
            lambda m, p, c: identities.permanent_identity(m, p.get("gammas")),
            symbolic_max_n=6,
        ),
        MethodSpec(
            "per_ryser",
            SquareMatrix,
            lambda m, p, c: identities.permanent_ryser(m),
            symbolic_max_n=6,
        ),
        # 2^n permanents of n x n matrices: n = 7 takes seconds, n = 8 minutes;
        # symbolic 0.9-1.2 s at n = 5, over 60 s at n = 6.
        MethodSpec(
            "per_polarization",
            SquareMatrix,
            _run_per_polarization,
            max_n=7,
            symbolic_max_n=5,
        ),
        # n! diagonals: 1.5 s at n = 9, 15 s at n = 10; symbolic 1.3-2 s at
        # n = 8, 14.5-18.8 s at n = 9.
        MethodSpec(
            "det_definitional",
            SquareMatrix,
            lambda m, p, c: identities.determinant(m),
            max_n=9,
            symbolic_max_n=8,
        ),
        # n! diagonals of n + 1 powers each: 1.6 s at n = 8, 14 s at n = 9;
        # symbolic 0.2-0.3 s at n = 5, 4.0-6.6 s at n = 6.
        MethodSpec(
            "det_identity",
            SquareMatrix,
            lambda m, p, c: identities.determinant_identity(m, p.get("gamma")),
            max_n=8,
            symbolic_max_n=5,
        ),
        # n! diagonals of n! orderings each: on matrix2 a plain and a counted run
        # take about 0.15 s together at n = 5 and about 7 s at n = 6; symbolic
        # 0.2-0.44 s at n = 5.
        MethodSpec(
            "eper_definitional",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent(m),
            max_n=5,
            symbolic_max_n=5,
        ),
        # 4^n submatrix sums, each to the n-th power: 3.8 s at n = 9, 13 s at
        # n = 10; symbolic 0.1-0.4 s at n = 4, 5.1-8.9 s at n = 5.
        MethodSpec(
            "eper_identity",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent_identity(m, p.get("delta")),
            max_n=9,
            symbolic_max_n=4,
        ),
        # n! permanents of n! diagonals each: at n = 6 a plain and a counted run
        # take about 0.5 s each; at n = 7 the plain run alone takes 25 s.
        # Symbolic 0.7-1.2 s at n = 5, 37 s at n = 6.
        MethodSpec(
            "detp_definitional",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant(m),
            max_n=6,
            symbolic_max_n=5,
        ),
        # n! permutations of n + 1 row-sum products each: 4.1 s at n = 8, 49 s
        # at n = 9; symbolic 1.5-2.4 s at n = 5, over 90 s at n = 6.
        MethodSpec(
            "detp_identity",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant_identity(m),
            max_n=8,
            symbolic_max_n=5,
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
    # The entries' type, not obj.ring, so a request rebound to a wrapper ring
    # is refused at the same sizes.
    corner = obj.entries[0][0] if isinstance(obj, SquareMatrix) else obj.sections[0][0][0]
    symbolic = isinstance(corner, Poly)
    limit = spec.symbolic_max_n if symbolic else spec.max_n
    if obj.n > limit:
        over = " over polynomials" if symbolic else ""
        raise ValueError(f"method {method} supports n up to {limit}{over}, got {obj.n}")
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
