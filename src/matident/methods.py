"""The method registry that compute, bench and verify all read.

METHODS maps each `<fn>_<method>` name to the evaluator that computes it, the
container it takes and the closed form of the op counts one run makes, which
depend on n alone.  evaluate_method runs an evaluator once, first moving the
request onto exact integers with lift when its values are all of one ring's
element type; compute prints the closed form's counts beside its value.
bench.run_counted runs an evaluator in a counting ring, and bench and the
tests check every closed form against those counted runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from . import identities
from .combinatorics import MAX_ENUMERATION_N
from .matrices import CubeMatrix, SquareMatrix
from .polarization import DiagonalFunction, polarize
from .rings import LIFTERS, Poly, power_muls


@dataclass
class OpCounts:
    """Mutable tally of ring operations, and the report of one evaluator run.

    adds counts additions and subtractions; muls counts multiplications
    issued outside powers while power_muls counts the ones square-and-multiply
    makes inside them;
    f_evals counts diagonal-restriction calls made by polarization-based
    methods.  bench.run_counted fills in the counted run's value; a closed
    form (MethodSpec.counts) leaves it None.
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
        return identities.permanent(SquareMatrix._of(ring, tuple((x,) * n for x in column)))

    gamma = tuple(ring.zero() for _ in range(n))
    func = DiagonalFunction(n, diagonal_eval)
    return polarize(func, matrix.columns(), gamma, ring)


_F = math.factorial


def _per_polarization_counts(n: int) -> OpCounts:
    """2**n permanents of n x n matrices (f_evals), n adds per step of the
    subset walk and one add or sub per value, the first negated for odd n."""
    s = 2**n
    return OpCounts(
        adds=s * _F(n) + (n + 1) * (s - 1),
        negs=n % 2,
        muls=s * _F(n) * (n - 1),
        int_divs=1,
        f_evals=s,
    )


def _power_sum_counts(n: int, adds: int, powers: int) -> OpCounts:
    """Counts of an identity that multiplies only inside its n-th powers and
    divides once by n!."""
    return OpCounts(adds=adds, power_muls=powers * power_muls(n), powers=powers, int_divs=1)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: type  # SquareMatrix or CubeMatrix
    run: Callable[[Any, Mapping, OpCounts], Any]
    # The op counts of one run at size n, whatever the ring and the shifts.
    counts: Callable[[int], OpCounts]
    # The limit for polynomial entries, whose terms multiply with n.  No
    # default, so no entry admits them up to the document maximum by omission.
    symbolic_max_n: int
    max_n: int = MAX_ENUMERATION_N


# Each max_n keeps one compute on a rational document (matrix2 for eper)
# within about 5 s on a 2-vCPU machine, and each symbolic_max_n does the same
# on a symbolic document of distinct variables (a cube for detp), as the
# one-run times below show (README.md, size limits).
METHODS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        # n! diagonals, folded from n = 5 as a row-by-row Laplace expansion
        # of n * 2**(n-1) steps; symbolic 0.73 s at n = 8, 14.6 s at n = 9.
        MethodSpec(
            "per_definitional",
            SquareMatrix,
            lambda m, p, c: identities.permanent(m),
            lambda n: OpCounts(adds=_F(n), muls=_F(n) * (n - 1)),
            symbolic_max_n=8,
        ),
        # per_identity and per_ryser: 2^n products of row sums, 0.04-0.06 s at
        # n = 10; on symbolic documents each holds up to n^n terms: 0.11-0.17 s
        # at n = 6, 2.2-3.0 s at n = 7.
        MethodSpec(
            "per_identity",
            SquareMatrix,
            lambda m, p, c: identities.permanent_identity(m, p.get("gammas")),
            # n adds per step of the subset walk, one per product.
            lambda n: OpCounts(adds=n * (2**n - 1) + 2**n, muls=2**n * (n - 1)),
            symbolic_max_n=6,
        ),
        MethodSpec(
            "per_ryser",
            SquareMatrix,
            lambda m, p, c: identities.permanent_ryser(m),
            lambda n: OpCounts(adds=(n + 1) * (2**n - 1), negs=n % 2, muls=(2**n - 1) * (n - 1)),
            symbolic_max_n=6,
        ),
        # 2^n permanents of n x n matrices, each a Laplace expansion from
        # n = 5; symbolic 0.37 s at n = 5, 44 s at n = 6.
        MethodSpec(
            "per_polarization",
            SquareMatrix,
            _run_per_polarization,
            _per_polarization_counts,
            symbolic_max_n=5,
        ),
        # n! diagonals, expanded as for per_definitional; symbolic 0.74-0.75 s
        # at n = 8, 12.1 s at n = 9.
        MethodSpec(
            "det_definitional",
            SquareMatrix,
            lambda m, p, c: identities.determinant(m),
            lambda n: OpCounts(adds=_F(n), muls=_F(n) * (n - 1)),
            symbolic_max_n=8,
        ),
        # n! diagonals of n + 1 powers each: 0.16 s at n = 8, 2.2 s at n = 9;
        # symbolic 0.11-0.13 s at n = 5, 2.0-2.5 s at n = 6.
        MethodSpec(
            "det_identity",
            SquareMatrix,
            lambda m, p, c: identities.determinant_identity(m, p.get("gamma")),
            # The first diagonal sum, one sub per subdiagonal, four per swap
            # of the n! - 1, and one add or sub per power.
            lambda n: _power_sum_counts(
                n,
                adds=n + n * _F(n) + 4 * (_F(n) - 1) + (n + 1) * _F(n),
                powers=(n + 1) * _F(n),
            ),
            max_n=8,
            symbolic_max_n=5,
        ),
        # n! diagonals of n! orderings each: 1.5-1.6 s at n = 6 (n = 7 has 49
        # times the orderings); symbolic 0.15 s at n = 5.
        MethodSpec(
            "eper_definitional",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent(m),
            lambda n: OpCounts(adds=_F(n) ** 2, muls=_F(n) ** 2 * (n - 1), int_divs=_F(n)),
            max_n=6,
            symbolic_max_n=5,
        ),
        # 4^n submatrix sums, each to the n-th power: 1.7 s at n = 9, 5.6 s at
        # n = 10; symbolic 0.08-0.09 s at n = 4, 2.2-2.6 s at n = 5.
        MethodSpec(
            "eper_identity",
            SquareMatrix,
            lambda m, p, c: identities.symmetrized_permanent_identity(m, p.get("delta")),
            # The row walk's n adds per step, an add or sub and a power per
            # submatrix and per term, and the delta**n word subtracted.
            lambda n: _power_sum_counts(
                n,
                adds=n * (2**n - 1) + 2 * (2**n - 1) ** 2 + 1,
                powers=(2**n - 1) ** 2 + 1,
            ),
            max_n=9,
            symbolic_max_n=4,
        ),
        # n! permanents of n! diagonals each, folded as one two-axis Laplace
        # expansion of n^2 * C(2n-2, n-1) steps: 0.27 s at n = 8, 0.65-0.74 s
        # and 105 MB at n = 9 (n = 10 takes 4.7 times the steps); symbolic
        # 0.34 s at n = 5, 21.8 s at n = 6.
        MethodSpec(
            "detp_definitional",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant(m),
            lambda n: OpCounts(adds=_F(n) * (_F(n) + 1), muls=_F(n) ** 2 * (n - 1)),
            max_n=9,
            symbolic_max_n=5,
        ),
        # n! permutations of n + 1 row-sum products each: 0.55 s at n = 8,
        # 5.7 s at n = 9; symbolic 0.7-1.1 s at n = 5, 150 s at n = 6.
        MethodSpec(
            "detp_identity",
            CubeMatrix,
            lambda m, p, c: identities.space_determinant_identity(m),
            # Per permutation: n row sums, n^2 depleted sums, n + 1 products
            # and n + 1 terms.
            lambda n: OpCounts(adds=_F(n) * (2 * n * n + 1), muls=_F(n) * (n + 1) * (n - 1)),
            max_n=8,
            symbolic_max_n=5,
        ),
    )
}


def lift(
    obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> tuple[SquareMatrix | CubeMatrix, dict, Callable[[Any], Any]]:
    """The request moved onto exact integers by one scale, and the map that
    moves a value back.

    Every function in the registry is homogeneous of degree n in the entries
    and shifts together, so f(A, gamma) = f(c*A, c*gamma) / c**n for any
    scale c.  A request whose entries and shifts (gammas, gamma, delta) are
    all Fractions, all Polys or all MatrixElements is scaled until every
    coefficient is an integer and runs over a ring of Python ints (see
    rings.LIFTERS; Fractions and MatrixElements scale through rings.scale_up
    and come back through rings.scale_down).  One scale covers the entries
    and every shift.  Anything else, gammas that are not a tuple or a list
    included, is returned as given, so its errors stay the evaluators' own.
    """
    params = dict(params or {})
    unchanged = obj, params, lambda value: value
    square = isinstance(obj, SquareMatrix)
    rows = obj.entries if square else [row for section in obj.sections for row in section]
    values = [entry for row in rows for entry in row]
    gammas = params.get("gammas")
    if gammas is not None:
        if not isinstance(gammas, (tuple, list)):
            return unchanged
        values += gammas
    shifts = [key for key in ("gamma", "delta") if params.get(key) is not None]
    values += (params[key] for key in shifts)
    lifter = next(
        (fn for cls, fn in LIFTERS if all(isinstance(value, cls) for value in values)), None
    )
    if lifter is None:
        return unchanged
    ring, up, down = lifter(values, obj.n)
    lifted_params = {**params, **{key: up(params[key]) for key in shifts}}
    if gammas is not None:
        lifted_params["gammas"] = tuple(map(up, gammas))

    def lift_rows(rows: tuple) -> tuple:
        return tuple(tuple(map(up, row)) for row in rows)

    if square:
        lifted = SquareMatrix._of(ring, lift_rows(obj.entries))
    else:
        lifted = CubeMatrix._of(ring, tuple(map(lift_rows, obj.sections)))
    return lifted, lifted_params, down


def checked_spec(method: str, obj: SquareMatrix | CubeMatrix) -> MethodSpec:
    """The spec of method, once obj is its container and within its size limit."""
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
    return spec


def evaluate_method(
    method: str, obj: SquareMatrix | CubeMatrix, params: Mapping | None = None
) -> Any:
    """Run a registered evaluator without instrumentation.

    A request made entirely of Fractions, of Polys or of MatrixElements runs
    on exact integers (see lift); its value comes back as the same element.
    """
    spec = checked_spec(method, obj)
    lifted, params, down = lift(obj, params)
    return down(spec.run(lifted, params, OpCounts()))
