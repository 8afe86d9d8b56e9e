"""Exact ring arithmetic behind one small interface.

Three rings are provided as :class:`Ring` instances: arbitrary-precision
rationals (RATIONAL), sparse multivariate polynomials over the rationals
(SYMBOLIC), and 2x2 rational matrices (MATRIX2, the stock noncommutative
test ring).  Every evaluator in this package performs arithmetic exclusively
through a ring object, which is what lets the benchmark layer swap in a
counting wrapper without touching evaluator code.

Each of the three has a private lifted twin over Python ints (integers,
packed-monomial int polynomials, integer 2x2 matrices), and LIFTERS maps an
element type to the function that scales a request's values onto its twin
and the result back (see methods.lift).  scale_up and scale_down are the
one definition of that scaling for Fractions and MatrixElements, which
methods.lift and verify both use.  A 2x2 element and its twin share one
cell layout and one set of formulas, so lifting scales each cell.
The integer twin runs the folds (sum, signed_sum, product, product_sum,
power_sum, diagonal_sum) on builtins, and it is the one ring whose
expanded_sum folds the Laplace plan that the caller offers in place of a
loop over the diagonals; the packed-polynomial twin runs signed_sum,
product_sum, diagonal_sum and power_sum into one accumulating dict.  The 2x2 twin,
which is noncommutative, keeps Ring's folds.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import itemgetter, mul, or_
from typing import Any, Callable, Iterable, Mapping, Sequence

VARIABLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def power_muls(exponent: int) -> int:
    """The multiplications Ring.power makes for x**exponent: bit_length - 1
    squarings and bit_count - 1 further multiplications, none for x**0."""
    return exponent.bit_length() + exponent.bit_count() - 2 if exponent else 0


class Ring:
    """An exact ring whose elements supply ``+ - * / ==`` themselves.

    A ring is an instance: it names itself, builds elements from integers and
    recognises its own elements, and every operation is the element type's
    operator.  Wrapper rings (the counting ring) subclass it and override the
    operation methods, so operations stay methods, never instance attributes,
    and the folds (sum, signed_sum, product, product_sum, power_sum,
    diagonal_sum) go through the overrides.  product_sum and power_sum are
    signed_sum over products and powers, and diagonal_sum is the same over
    the products of the diagonals that the even and the odd pickers of
    combinatorics.diagonals take from a flat entry tuple.  expanded_sum
    runs the loop it is given, so every ring but the integer one folds a
    definitional sum through these operations.
    """

    def __init__(
        self,
        name: str,
        from_int: Callable[[int], Any],
        is_element: Callable[[Any], bool],
        commutative: bool = True,
    ):
        self.name = name
        self.commutative = commutative
        self._from_int = from_int
        self._is_element = is_element
        # Elements are immutable values, so zero and one are built once.
        self._zero = from_int(0)
        self._one = from_int(1)

    def zero(self) -> Any:
        return self._zero

    def one(self) -> Any:
        return self._one

    def from_int(self, value: int) -> Any:
        return self._from_int(value)

    def is_element(self, x: Any) -> bool:
        return self._is_element(x)

    def add(self, x: Any, y: Any) -> Any:
        return x + y

    def sub(self, x: Any, y: Any) -> Any:
        return x - y

    def neg(self, x: Any) -> Any:
        return -x

    def mul(self, x: Any, y: Any) -> Any:
        return x * y

    def eq(self, x: Any, y: Any) -> bool:
        return x == y

    def _div_exact(self, x: Any, k: int) -> Any:
        return x / k

    def div_int(self, x: Any, k: int) -> Any:
        """Exact division by a nonzero integer.

        Identity evaluators divide by the full product n! in one call rather
        than by 2..n successively.
        """
        if k == 0:
            raise ZeroDivisionError("division of a ring element by integer zero")
        return self._div_exact(x, k)

    def power(self, x: Any, exponent: int) -> Any:
        """x**exponent for exponent >= 0, with x**0 = one, by square-and-multiply
        (power_muls(exponent) multiplications)."""
        if exponent < 0:
            raise ValueError("ring exponent must be nonnegative")
        if exponent == 0:
            return self.one()
        result = None
        base = x
        while True:
            if exponent & 1:
                result = base if result is None else self.mul(result, base)
            exponent >>= 1
            if not exponent:
                return result
            base = self.mul(base, base)

    def is_zero(self, x: Any) -> bool:
        return self.eq(x, self.zero())

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold items with add; the empty sum is zero."""
        total = None
        for item in items:
            total = item if total is None else self.add(total, item)
        return self.zero() if total is None else total

    def signed_sum(self, pairs: Iterable[tuple[int, Any]]) -> Any:
        """Fold (sign, item) pairs onto zero: add the item for sign 1, subtract
        it for sign -1, so every item costs exactly one add or sub."""
        add, sub = self.add, self.sub
        total = self.zero()
        for sign, item in pairs:
            total = add(total, item) if sign > 0 else sub(total, item)
        return total

    def product(self, items: Iterable[Any]) -> Any:
        """Fold items with mul (left to right); the empty product is one."""
        total = None
        for item in items:
            total = item if total is None else self.mul(total, item)
        return self.one() if total is None else total

    def _signed_products(self, pairs: Iterable[tuple[int, Iterable[Any]]]) -> Any:
        """Sum of sign times the product of factors over (sign, factors) pairs:
        one product and one add or sub per pair."""
        product = self.product
        return self.signed_sum((sign, product(factors)) for sign, factors in pairs)

    def product_sum(self, signs: Iterable[int], factors: Iterable[Iterable[Any]]) -> Any:
        """Sum of signs[k] times the product of factors[k]: one product and
        one add or sub per term."""
        return self._signed_products(zip(signs, factors))

    def power_sum(self, signs: Iterable[int], bases: Iterable[Any], exponent: int) -> Any:
        """Sum of signs[k] times bases[k]**exponent: one power and one add or
        sub per term."""
        return self.signed_sum(zip(signs, map(self.power, bases, repeat(exponent))))

    def diagonal_sum(
        self, flat: Sequence[Any], even: Iterable[Callable], odd: Iterable[Callable]
    ) -> Any:
        """Sum over the diagonals of a matrix whose row-major entries are
        flat of their products, added for the pickers in even and subtracted
        for those in odd: pick(flat) gives a diagonal's entries in row order
        (see combinatorics.diagonals).  One product and one add or sub per
        diagonal."""
        halves = ((1, even), (-1, odd))
        return self._signed_products((sign, pick(flat)) for sign, half in halves for pick in half)

    def expanded_sum(self, expansion: Callable[[], tuple], loop: Callable[[], Any]) -> Any:
        """The sum that loop() folds with this ring's operations, which
        expansion() gives again as (flat, plan), a row-by-row Laplace
        expansion plan over the entries flat (combinatorics.laplace_plan).
        This ring runs loop and never calls expansion, so no plan or flat
        entries are built for it; the integer ring folds the plan."""
        return loop()


def _accumulate(terms: dict, pairs: Iterable[tuple[int, Mapping]]) -> dict:
    """Add each (sign, coefficient map) pair into terms in place, negated for
    sign -1, and delete every key that cancels to 0; returns terms.  The maps
    must hold no zero coefficient, as Poly terms and packed elements never do."""
    get = terms.get
    for sign, item in pairs:
        for key, coeff in item.items():
            total = get(key, 0) + coeff if sign > 0 else get(key, 0) - coeff
            if total:
                terms[key] = total
            else:
                del terms[key]
    return terms


def _add_product(terms: dict, sign: int, x: dict, y: dict) -> None:
    """Add sign * x * y for packed x and y into terms term by term, keeping
    any coefficient that cancels to 0 for the caller to drop."""
    get = terms.get
    for key_y, coeff_y in y.items():
        coeff_y *= sign
        for key_x, coeff_x in x.items():
            key = key_x + key_y
            terms[key] = get(key, 0) + coeff_x * coeff_y


def _merge_monomials(a: tuple, b: tuple) -> tuple:
    """The product of two sorted (name, exponent) tuples: exponents of equal
    names add, and the result is sorted by name again."""
    if not a:
        return b
    if not b:
        return a
    merged = a + b
    # Most products share no name, and then one sort is the whole merge.
    if len(dict(merged)) == len(merged):
        return tuple(sorted(merged))
    exponents = dict(a)
    for name, exponent in b:
        exponents[name] = exponents.get(name, 0) + exponent
    return tuple(sorted(exponents.items()))


class Poly:
    """Sparse multivariate polynomial over the rationals.

    A monomial is a tuple of (variable name, exponent) pairs sorted by name;
    the empty tuple is the constant monomial.  Terms with zero coefficient are
    never stored, so structural equality of the term maps is polynomial
    equality and the printed form is canonical.  Instances are immutable
    values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Fraction | int] | None = None):
        normalized: dict[tuple, Fraction] = {}
        if terms:
            for monomial, coeff in terms.items():
                value = Fraction(coeff)
                if value:
                    normalized[monomial] = value
        object.__setattr__(self, "_terms", normalized)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Poly instances are immutable")

    @classmethod
    def constant(cls, value: Fraction | int) -> "Poly":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if not VARIABLE_NAME_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        return cls({((name, 1),): _ONE})

    def terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in canonical (sorted monomial) order."""
        # Monomials are distinct, so sorting by them alone is the same order
        # without comparing whole (monomial, coefficient) pairs.
        return sorted(self._terms.items(), key=itemgetter(0))

    def coefficient(self, monomial: tuple) -> Fraction:
        return self._terms.get(monomial, _ZERO)

    def variables(self) -> set[str]:
        return {name for monomial in self._terms for name, _ in monomial}

    @staticmethod
    def _coerce(value: Any) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return None

    def __add__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly(_accumulate(dict(self._terms), ((1, other._terms),)))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly(_accumulate(dict(self._terms), ((-1, other._terms),)))

    def __rsub__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple, Fraction] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                monomial = _merge_monomials(mono_a, mono_b)
                terms[monomial] = terms.get(monomial, _ZERO) + coeff_a * coeff_b
        return _poly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return _poly({m: c / other for m, c in self._terms.items()})

    def __eq__(self, other: Any) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant (zero included) equals its Fraction, so it hashes alike.
        if self._terms.keys() <= {()}:
            return hash(self._terms.get((), _ZERO))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def evaluate(self, values: Mapping[str, Fraction | int]) -> Fraction:
        """Substitute rationals for every variable."""
        total = _ZERO
        for monomial, coeff in self._terms.items():
            factor = coeff
            for name, exponent in monomial:
                factor *= Fraction(values[name]) ** exponent
            total += factor
        return total

    def __str__(self) -> str:
        """Terms in canonical order joined by " + " and " - ", each as its
        coefficient times its monomial, with a coefficient of 1 or -1 shown
        as the bare monomial or its negation; "0" for no terms."""
        pieces = []
        for monomial, coeff in self.terms():
            text = str(coeff)
            if monomial:
                body = "*".join([name if exp == 1 else f"{name}^{exp}" for name, exp in monomial])
                text = body if text == "1" else f"-{body}" if text == "-1" else f"{text}*{body}"
            pieces.append(f" - {text[1:]}" if text[0] == "-" else f" + {text}")
        if not pieces:
            return "0"
        text = "".join(pieces)
        return text[3:] if text[1] == "+" else f"-{text[3:]}"

    def __repr__(self) -> str:
        return f"Poly({self})"


class MatrixElement:
    """2x2 matrix of rationals, the package's noncommutative ring element.

    cells is (a, b, c, d) for [[a, b], [c, d]], and the operators run the
    lifted integer 2x2 ring's formulas on these Fraction cells."""

    __slots__ = ("cells",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        frozen = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
        if len(frozen) != 2 or any(len(row) != 2 for row in frozen):
            raise ValueError("matrix element must be 2x2")
        object.__setattr__(self, "cells", frozen[0] + frozen[1])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MatrixElement instances are immutable")

    @classmethod
    def scalar(cls, value: Fraction | int) -> "MatrixElement":
        value = Fraction(value)
        return _matrix((value, _ZERO, _ZERO, value))

    def __add__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return _matrix(_INTEGER_MATRIX.add(self.cells, other.cells))

    def __sub__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return _matrix(_INTEGER_MATRIX.sub(self.cells, other.cells))

    def __neg__(self) -> "MatrixElement":
        return _matrix(_INTEGER_MATRIX.neg(self.cells))

    def __mul__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return _matrix(_INTEGER_MATRIX.mul(self.cells, other.cells))

    def __truediv__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a matrix element by zero")
        return _matrix(tuple(cell / other for cell in self.cells))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __str__(self) -> str:
        a, b, c, d = self.cells
        return f"[[{a}, {b}], [{c}, {d}]]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


def _poly(terms: dict[tuple, Fraction]) -> Poly:
    """The polynomial with these Fraction coefficients, built without the
    public constructor's coercion; zero terms are dropped."""
    poly = object.__new__(Poly)
    object.__setattr__(poly, "_terms", {m: c for m, c in terms.items() if c})
    return poly


def _matrix(cells: tuple[Fraction, Fraction, Fraction, Fraction]) -> MatrixElement:
    """The element with these Fraction cells (a, b, c, d), built without the
    public constructor's shape check and coercion."""
    element = object.__new__(MatrixElement)
    object.__setattr__(element, "cells", cells)
    return element


# Fraction keeps values reduced with a positive denominator, which is the
# canonical form this package relies on.
RATIONAL = Ring("rationals", Fraction, lambda x: isinstance(x, Fraction))
SYMBOLIC = Ring(
    "polynomials over the rationals", Poly.constant, lambda x: isinstance(x, Poly)
)
MATRIX2 = Ring(
    "2x2 rational matrices",
    MatrixElement.scalar,
    lambda x: isinstance(x, MatrixElement),
    commutative=False,
)


class _IntegerRing(Ring):
    """Python ints, whose exact division refuses to leave a remainder.

    The element operations are operator's builtins, and the folds and powers
    run on the builtins (sum, math.prod, int powers), which give the same
    exact values as Ring's one-call-per-operation folds and
    square-and-multiply.  product_sum and power_sum map math.prod or pow and
    the signs over their terms, so no Python frame runs per term.
    diagonal_sum sums the even diagonals' products and subtracts the odd
    ones' sum, so no diagonal pays a sign.  expanded_sum folds the
    Laplace plan instead of running the loop: level by level, one product
    per step in C, each target's steps summed together, and the entries
    read from flat followed by their negations, so no step pays a sign
    either.  At n = 7 that is 448 steps in seven levels, in place of 5040
    diagonals of seven entries.  A counting ring over this one runs only
    its operations and powers; its folds are Ring's loops, which pick
    every diagonal.
    """

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    eq = staticmethod(operator.eq)

    def sum(self, items: Iterable[int]) -> int:
        return sum(items)

    def signed_sum(self, pairs: Iterable[tuple[int, int]]) -> int:
        return sum(item if sign > 0 else -item for sign, item in pairs)

    def product(self, items: Iterable[int]) -> int:
        return math.prod(items)

    def product_sum(self, signs: Iterable[int], factors: Iterable[Iterable[int]]) -> int:
        # Every loop runs in C: multiply out, apply the sign, add up.
        return sum(map(mul, signs, map(math.prod, factors)))

    def diagonal_sum(
        self, flat: Sequence[int], even: Iterable[Callable], odd: Iterable[Callable]
    ) -> int:
        prod = math.prod
        return sum(prod(pick(flat)) for pick in even) - sum(prod(pick(flat)) for pick in odd)

    def expanded_sum(self, expansion: Callable[[], tuple], loop: Callable[[], int]) -> int:
        flat, plan = expansion()
        entries = (*flat, *map(operator.neg, flat))
        partial = (1,)
        for sources, picks, steps in plan:
            # Every step's product, then each target's steps summed: the
            # same map read steps at a time by zip.
            products = map(mul, sources(partial), picks(entries))
            partial = tuple(map(sum, zip(*(products,) * steps)))
        return partial[0]

    def power_sum(self, signs: Iterable[int], bases: Iterable[int], exponent: int) -> int:
        if exponent < 0:
            raise ValueError("ring exponent must be nonnegative")
        return sum(map(mul, signs, map(pow, bases, repeat(exponent))))

    def power(self, x: int, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("ring exponent must be nonnegative")
        return x**exponent

    def _div_exact(self, x: int, k: int) -> int:
        quotient, remainder = divmod(x, k)
        if remainder:
            raise ArithmeticError(f"{x} is not divisible by {k}")
        return quotient


class _PackedPolyRing(Ring):
    """Polynomials as {packed monomial: nonzero int coefficient} dicts.

    A monomial packs its exponents into one int, a fixed number of bits per
    variable (see _lift_polys), so the product of two monomials is one
    integer addition.  Elements are never mutated; a fold accumulates into
    one fresh dict.  signed_sum adds whole elements into it.  product_sum
    and diagonal_sum (through _signed_products) and power_sum multiply out
    each term but its last multiplication, which adds its products straight
    into the fold, so a term's full product is never built as a dict of its
    own.
    """

    def add(self, x: dict, y: dict) -> dict:
        if len(x) < len(y):
            x, y = y, x
        return _accumulate(dict(x), ((1, y),))

    def sub(self, x: dict, y: dict) -> dict:
        return _accumulate(dict(x), ((-1, y),))

    def signed_sum(self, pairs: Iterable[tuple[int, dict]]) -> dict:
        return _accumulate({}, pairs)

    def neg(self, x: dict) -> dict:
        return {key: -coeff for key, coeff in x.items()}

    def mul(self, x: dict, y: dict) -> dict:
        # Factors in disjoint variables fill disjoint bit fields, so each
        # pair of terms makes its own monomial; a factor of one term does
        # too.  Then one comprehension of nonzero coefficient products is
        # the whole product.  Products of row sums in distinct variables are
        # of this kind.  The factors of a power share their variables and go
        # to the accumulating loop.
        if x is not y and (
            len(x) == 1 or len(y) == 1 or not reduce(or_, x, 0) & reduce(or_, y, 0)
        ):
            return {
                key_x + key_y: coeff_x * coeff_y
                for key_y, coeff_y in y.items()
                for key_x, coeff_x in x.items()
            }
        terms: dict[int, int] = {}
        _add_product(terms, 1, x, y)
        if 0 in terms.values():
            return {key: coeff for key, coeff in terms.items() if coeff}
        return terms

    def _signed_products(self, pairs: Iterable[tuple[int, Iterable[dict]]]) -> dict:
        terms: dict[int, int] = {}
        for sign, factor in pairs:
            *head, last = tuple(factor) or (self._one,)
            _add_product(terms, sign, self.product(head), last)
        return {key: coeff for key, coeff in terms.items() if coeff}

    def power_sum(self, signs: Iterable[int], bases: Iterable[dict], exponent: int) -> dict:
        # x**e is h*h for h = x**(e // 2), times x when e is odd; the last of
        # these products goes straight into the sum.
        if exponent < 0:
            raise ValueError("ring exponent must be nonnegative")
        terms: dict[int, int] = {}
        power, half = self.power, exponent >> 1
        for sign, base in zip(signs, bases):
            root = power(base, half)
            if exponent & 1:
                _add_product(terms, sign, self.mul(root, root), base)
            else:
                _add_product(terms, sign, root, root)
        return {key: coeff for key, coeff in terms.items() if coeff}

    def _div_exact(self, x: dict, k: int) -> dict:
        quotients = {}
        for key, coeff in x.items():
            quotient, remainder = divmod(coeff, k)
            if remainder:
                raise ArithmeticError(f"coefficient {coeff} is not divisible by {k}")
            quotients[key] = quotient
        return quotients


class _IntegerMatrixRing(Ring):
    """2x2 integer matrices as (a, b, c, d) tuples, read row by row.  add,
    sub, neg and mul hold for any cells (MatrixElement runs them on Fractions);
    only the exact division is integer-only, refusing a remainder in any cell."""

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


def scale_up(value: Any, scale: int) -> Any:
    """value times scale, as ints: a Fraction as an int, a MatrixElement as its
    (a, b, c, d) cells, and a tuple (gammas, a row, rows) item by item.  scale
    is a multiple of every denominator in value."""
    if isinstance(value, Fraction):
        return value.numerator * (scale // value.denominator)
    if isinstance(value, MatrixElement):
        value = value.cells
    return tuple(scale_up(item, scale) for item in value)


def scale_down(value: Any, scale: int, n: int) -> Any:
    """A lifted value of degree n moved back over scale**n: an int as a
    Fraction, the (a, b, c, d) cells of a 2x2 twin as a MatrixElement."""
    denominator = scale**n
    if isinstance(value, tuple):
        return _matrix(tuple(Fraction(cell, denominator) for cell in value))
    return Fraction(value, denominator)


def _scaled(ring: Ring, scale: int, n: int) -> _Lifted:
    """ring, with scale_up and scale_down bound to scale and to degree n."""
    return ring, lambda value: scale_up(value, scale), lambda value: scale_down(value, scale, n)


def _lift_rationals(values: list[Fraction], n: int) -> _Lifted:
    """Scale by the least common denominator L; the value comes back over L**n."""
    return _scaled(_INTEGER, math.lcm(*(value.denominator for value in values)), n)


def _lift_polys(values: list[Poly], n: int) -> _Lifted:
    """Scale by the least common denominator L of every coefficient and pack
    each monomial into one int, w bits per variable in sorted-name order.

    Every monomial an evaluator forms is a product of at most n monomials of
    the inputs (Ring.power squares only up to the exponent), so no exponent
    exceeds n*D for the largest total degree D of an input, and w =
    (n*D).bit_length() bits keep every field from carrying into the next.
    """
    terms = [term for value in values for term in value._terms.items()]
    scale = math.lcm(*(coeff.denominator for _, coeff in terms))
    degree = max((sum(exponent for _, exponent in monomial) for monomial, _ in terms), default=0)
    width = (n * degree).bit_length()
    names = sorted({name for monomial, _ in terms for name, _ in monomial})
    offsets = {name: width * index for index, name in enumerate(names)}
    mask = (1 << width) - 1
    # Every bit of a variable's field maps to its name and offset, so the
    # lowest set bit of a packed monomial names its first variable.
    fields = {
        1 << bit: (name, offset)
        for name, offset in offsets.items()
        for bit in range(offset, offset + width)
    }

    def up(value: Poly) -> dict:
        return {
            sum(exponent << offsets[name] for name, exponent in monomial): (
                coeff.numerator * (scale // coeff.denominator)
            )
            for monomial, coeff in value._terms.items()
        }

    def unpack(key: int) -> tuple:
        """The monomial of a packed key, from its set fields alone, lowest
        first, which is name order."""
        monomial = []
        while key:
            name, offset = fields[key & -key]
            exponent = key >> offset & mask
            monomial.append((name, exponent))
            key ^= exponent << offset
        return tuple(monomial)

    def down(value: dict) -> Poly:
        denominator = scale**n
        return _poly({unpack(key): Fraction(coeff, denominator) for key, coeff in value.items()})

    return _PACKED, up, down


def _lift_matrices(values: list[MatrixElement], n: int) -> _Lifted:
    """Scale by c = L*n! for the least common denominator L of every cell.

    L alone is not enough: symmetrize divides products of m <= n factors by
    m!, and eper_identity divides by n!.  With every cell a multiple of n!,
    a product of m cells is a multiple of (n!)**m, so both divide exactly.
    The value comes back over c**n.
    """
    scale = math.lcm(*(cell.denominator for value in values for cell in value.cells))
    return _scaled(_INTEGER_MATRIX, scale * math.factorial(n), n)


# The lifter for a request whose values are all of one element type.
LIFTERS = (
    (Fraction, _lift_rationals),
    (Poly, _lift_polys),
    (MatrixElement, _lift_matrices),
)
