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
and the result back (see methods.lift).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import getitem, or_
from typing import Any, Callable, Iterable, Mapping, Sequence

VARIABLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Ring:
    """An exact ring whose elements supply ``+ - * / ==`` themselves.

    A ring is an instance: it names itself, builds elements from integers and
    recognises its own elements, and every operation is the element type's
    operator.  Wrapper rings (the counting ring) subclass it and override the
    operation methods, so operations stay methods, never instance attributes,
    and the folds (sum, signed_sum, product, diagonal_sum) go through the
    overrides.
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
        """x**exponent for exponent >= 0, with x**0 = one, by square-and-multiply:
        bit_length - 1 squarings and bit_count - 1 further multiplications.
        """
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

    def diagonal_sum(
        self, rows: Sequence[Sequence[Any]], pairs: Iterable[tuple[Sequence[int], int]]
    ) -> Any:
        """Signed sum over (image, sign) pairs of the product of the entries
        image picks from rows, row i giving entry image[i]: one product of
        len(rows) entries and one add or sub per pair."""
        product = self.product
        return self.signed_sum((sign, product(map(getitem, rows, image))) for image, sign in pairs)


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
        return sorted(self._terms.items())

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
        if not self._terms:
            return "0"
        parts = []
        for monomial, coeff in self.terms():
            body = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in monomial
            )
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += f" - {part[1:]}"
            else:
                text += f" + {part}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


class MatrixElement:
    """2x2 matrix of rationals, the package's noncommutative ring element."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        frozen = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
        if len(frozen) != 2 or any(len(row) != 2 for row in frozen):
            raise ValueError("matrix element must be 2x2")
        object.__setattr__(self, "rows", frozen)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("MatrixElement instances are immutable")

    @classmethod
    def scalar(cls, value: Fraction | int) -> "MatrixElement":
        value = Fraction(value)
        return _matrix(value, _ZERO, _ZERO, value)

    def __add__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return _matrix(a + e, b + f, c + g, d + h)

    def __sub__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return _matrix(a - e, b - f, c - g, d - h)

    def __neg__(self) -> "MatrixElement":
        (a, b), (c, d) = self.rows
        return _matrix(-a, -b, -c, -d)

    def __mul__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return _matrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __truediv__(self, other: Any) -> "MatrixElement":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a matrix element by zero")
        (a, b), (c, d) = self.rows
        return _matrix(a / other, b / other, c / other, d / other)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MatrixElement):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(a) for a in row) + "]" for row in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"MatrixElement({self})"


def _poly(terms: dict[tuple, Fraction]) -> Poly:
    """The polynomial with these Fraction coefficients, built without the
    public constructor's coercion; zero terms are dropped."""
    poly = object.__new__(Poly)
    object.__setattr__(poly, "_terms", {m: c for m, c in terms.items() if c})
    return poly


def _matrix(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> MatrixElement:
    """The element [[a, b], [c, d]] built from Fractions without the public
    constructor's shape check and coercion."""
    element = object.__new__(MatrixElement)
    object.__setattr__(element, "rows", ((a, b), (c, d)))
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

    The folds and powers run on the builtins (sum, math.prod, int powers),
    which give the same exact values as Ring's one-call-per-operation folds
    and square-and-multiply.  A counting ring over this one runs them too.
    """

    def sum(self, items: Iterable[int]) -> int:
        return sum(items)

    def signed_sum(self, pairs: Iterable[tuple[int, int]]) -> int:
        return sum(item if sign > 0 else -item for sign, item in pairs)

    def product(self, items: Iterable[int]) -> int:
        return math.prod(items)

    def diagonal_sum(
        self, rows: Sequence[Sequence[int]], pairs: Iterable[tuple[Sequence[int], int]]
    ) -> int:
        prod = math.prod
        return sum(
            prod(map(getitem, rows, image)) if sign > 0 else -prod(map(getitem, rows, image))
            for image, sign in pairs
        )

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
    integer addition.  Elements are never mutated; a fold (signed_sum, and
    diagonal_sum through it) accumulates into one fresh dict.
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
LIFTERS = (
    (Fraction, _lift_rationals),
    (Poly, _lift_polys),
    (MatrixElement, _lift_matrices),
)
