"""Reference values and closed-form op counts for the output checks.

Nothing here calls matident's evaluators or enumerators: permutations come
from itertools with a sign from the cycle decomposition, rational
determinants come from Gaussian elimination, permanents of order 9 and up
from a Gray-code Ryser formula, and all arithmetic uses the entries' own
operators (Fraction, Poly, MatrixElement), so one oracle serves every ring.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def cycle_sign(perm) -> int:
    """Sign of a permutation of 0..n-1 from its cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = perm[cursor]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _product(factors):
    result = factors[0]
    for factor in factors[1:]:
        result = result * factor
    return result


def _signed_sum(rows, signed: bool):
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        term = _product([rows[i][perm[i]] for i in range(n)])
        if signed and cycle_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def brute_permanent(rows):
    return _signed_sum(rows, signed=False)


def brute_determinant(rows):
    return _signed_sum(rows, signed=True)


def ryser_permanent(rows):
    """Permanent by Ryser's formula, column subsets walked in Gray-code order."""
    n = len(rows)
    row_sums = [Fraction(0)] * n
    total = Fraction(0)
    gray = 0
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        gray ^= 1 << bit
        if gray >> bit & 1:
            row_sums = [s + row[bit] for s, row in zip(row_sums, rows)]
        else:
            row_sums = [s - row[bit] for s, row in zip(row_sums, rows)]
        term = _product(row_sums)
        total = total - term if gray.bit_count() % 2 else total + term
    return -total if n % 2 else total


def gauss_determinant(rows):
    """Exact determinant of a rational matrix by row reduction."""
    matrix = [[Fraction(value) for value in row] for row in rows]
    n = len(matrix)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if matrix[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        for r in range(col + 1, n):
            factor = matrix[r][col] / matrix[col][col]
            if factor:
                matrix[r] = [matrix[r][c] - factor * matrix[col][c] for c in range(n)]
    return det


def brute_symmetrized_permanent(rows):
    """Sum over diagonals of the average product over all factor orderings."""
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        factors = [rows[i][perm[i]] for i in range(n)]
        orderings = None
        for ordering in itertools.permutations(factors):
            term = _product(list(ordering))
            orderings = term if orderings is None else orderings + term
        term = orderings / math.factorial(n)
        total = term if total is None else total + term
    return total


def brute_space_determinant(sections):
    """Signed sum over s of the permanent whose column i is column s(i) of section i.

    sections[k][i][j] is the (i, j) entry of section k, all 0-based.
    """
    n = len(sections)
    total = None
    for perm in itertools.permutations(range(n)):
        assembled = [[sections[i][t][perm[i]] for i in range(n)] for t in range(n)]
        term = brute_permanent(assembled)
        if cycle_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def reference_value(fn: str, ring: str, entries):
    """The value `matident compute --fn fn` must print for these entries."""
    if fn == "det":
        return gauss_determinant(entries) if ring == "rational" else brute_determinant(entries)
    if fn == "per":
        if ring == "rational" and len(entries) > 8:
            return ryser_permanent(entries)
        return brute_permanent(entries)
    if fn == "eper":
        return brute_symmetrized_permanent(entries)
    if fn == "detp":
        return brute_space_determinant(entries)
    raise ValueError(f"no reference for {fn!r}")


def expected_counts(fn: str, method: str, n: int) -> dict:
    """Closed forms of the pinned counts muls, powers, int_divs and f_evals.

    adds is left out on purpose: flattening the enumeration layer changes it.
    """
    fact = math.factorial(n)
    muls = powers = int_divs = 0
    if method == "definitional":
        if fn in ("per", "det"):
            muls = fact * (n - 1)
        elif fn == "eper":
            # every diagonal is symmetrized over its n! orderings, then divided by n!
            muls = fact * fact * (n - 1)
            int_divs = fact
        elif fn == "detp":
            muls = fact * fact * (n - 1)
    elif method == "ryser":
        muls = (2**n - 1) * (n - 1)
    elif fn == "per":
        muls = 2**n * (n - 1)
    elif fn == "det":
        # one n-th power per full diagonal and per length-(n-1) subdiagonal
        powers = fact + n * fact
        int_divs = 1
    elif fn == "eper":
        # one power per submatrix selection plus the spurious delta**n word
        powers = (2**n - 1) ** 2 + 1
        int_divs = 1
    elif fn == "detp":
        muls = fact * (n + 1) * (n - 1)
    return {"muls": muls, "powers": powers, "int_divs": int_divs, "f_evals": 0}
