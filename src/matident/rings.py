"""Exact ring arithmetic behind one small interface.

Three rings are provided as :class:`Ring` instances: arbitrary-precision
rationals (RATIONAL), sparse multivariate polynomials over the rationals
(SYMBOLIC), and 2x2 rational matrices (MATRIX2, the stock noncommutative
test ring).  Every evaluator in this package performs arithmetic exclusively
through a ring object, which is what lets the benchmark layer swap in a
counting wrapper without touching evaluator code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

VARIABLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Ring:
    """An exact ring whose elements supply ``+ - * / ==`` themselves.

    A ring is an instance: it names itself, builds elements from integers and
    recognises its own elements, and every operation is the element type's
    operator.  Wrapper rings (the counting ring) subclass it and override the
    operation methods, so operations stay methods, never instance attributes,
    and the folds (sum, signed_sum, product) go through the overrides.
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
        """x**exponent for exponent >= 0, with x**0 = one, by square-and-multiply.

        Wrapper rings inherit this through self.one and self.mul, so plain and
        instrumented evaluations multiply in exactly the same order.
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
        terms = dict(self._terms)
        for monomial, coeff in other._terms.items():
            terms[monomial] = terms.get(monomial, _ZERO) + coeff
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Any) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for monomial, coeff in other._terms.items():
            terms[monomial] = terms.get(monomial, _ZERO) - coeff
        return _poly(terms)

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
