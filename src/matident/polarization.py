"""Reconstruct a symmetric multiadditive function from its diagonal.

Given only F(x) = f(x, ..., x) for a symmetric function f that is additive in
each argument, the full value f(x_1, ..., x_n) is an alternating sum of F over
all subset sums shifted by a free base point, divided by n!.  The operator
treats F as opaque: it only ever calls it, exactly 2**n times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .identities import _gray_sums
from .rings import Ring


@dataclass(frozen=True)
class DiagonalFunction:
    """The diagonal restriction F(x) = f(x, ..., x) of an n-ary function."""

    arity: int
    evaluate: Callable[[Any], Any]


def polarize(func: DiagonalFunction, xs: Sequence[tuple], gamma: tuple, ring: Ring) -> Any:
    """Recover f(x_1, ..., x_n) from the diagonal restriction F.

    Input-space points are tuples of ring elements as long as gamma (any
    other length is refused before F is called), added componentwise;
    `ring` also supplies the output-side arithmetic including the exact
    division by n!.  Subsets are visited in the Gray-code order of
    identities' subset walk, so each point sum is the previous one with one
    point added or subtracted componentwise; the empty subset contributes
    F(gamma) with sign (-1)**n, and the result does not depend on gamma.
    """
    n = func.arity
    if n < 1:
        raise ValueError("diagonal function arity must be at least 1")
    points = tuple(xs)
    if len(points) != n:
        raise ValueError(f"expected {n} input points, got {len(points)}")
    if any(len(point) != len(gamma) for point in points):
        raise ValueError(f"every input point must have the length of gamma, {len(gamma)}")
    # Not Ring.signed_sum: the first term is negated, not subtracted from
    # zero, and the printed adds and negs count exactly that.  Subset S
    # enters with sign (-1)**(n - |S|), the walk's sign times parity.
    parity = -1 if n % 2 else 1
    walk = _gray_sums(gamma, points, ring.add, ring.sub)
    _, shifted = next(walk)
    value = func.evaluate(shifted)
    total = value if parity > 0 else ring.neg(value)
    for sign, shifted in walk:
        value = func.evaluate(shifted)
        total = ring.add(total, value) if sign == parity else ring.sub(total, value)
    return ring.div_int(total, math.factorial(n))
