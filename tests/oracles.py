"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's enumeration and ring helpers:
permutations come straight from itertools, parity from cycle decomposition,
and the elimination determinant row-reduces Fractions.  Arithmetic uses the
entries' own operators so the same oracle covers rationals, polynomials,
and matrix-valued entries.
"""

import itertools
import math
from fractions import Fraction


def cycle_sign(perm):
    """Permutation sign from its cycle decomposition (perm maps 0..n-1)."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = perm[cursor]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _product(factors):
    result = factors[0]
    for factor in factors[1:]:
        result = result * factor
    return result


def brute_permanent(rows):
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        term = _product([rows[i][perm[i]] for i in range(n)])
        total = term if total is None else total + term
    return total


def brute_determinant(rows):
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        term = _product([rows[i][perm[i]] for i in range(n)])
        if cycle_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return total


def gauss_determinant(rows):
    """Fraction-exact determinant by row reduction with partial pivoting."""
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


def brute_symmetrized(factors):
    """Average of the product over all orderings of the factors."""
    total = None
    for ordering in itertools.permutations(factors):
        term = _product(list(ordering))
        total = term if total is None else total + term
    return total / math.factorial(len(factors))


def brute_symmetrized_permanent(rows):
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        term = brute_symmetrized([rows[i][perm[i]] for i in range(n)])
        total = term if total is None else total + term
    return total


def brute_space_determinant(sections):
    """Signed sum over column assignments of permanents of assembled slices.

    sections[k][i][j] is the (i, j) entry of slice k, all 0-based; column i
    of the assembled matrix is column perm[i] of slice i.
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


def brute_submatrix_power_sum(rows, exponent, delta):
    """Sum of (-1)**(r+s) * (delta + submatrix element sum)**exponent over every
    choice of r >= 1 rows and s >= 1 columns, each sum rebuilt from its entries."""
    n = len(rows)
    total = None
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            for chosen_rows in itertools.combinations(range(n), r):
                for chosen_cols in itertools.combinations(range(n), s):
                    shifted = delta
                    for i in chosen_rows:
                        for j in chosen_cols:
                            shifted = shifted + rows[i][j]
                    term = _product([shifted] * exponent)
                    if (r + s) % 2:
                        term = -term
                    total = term if total is None else total + term
    return total


def even_transpositions(n):
    """Steinhaus-Johnson-Trotter swaps by Even's direction arrays.

    Every value carries a direction; the largest value still moving swaps
    one step that way and stops on reaching either end or a larger
    neighbour, and every larger value then turns to face it.  Returns the
    left index i of each swap of positions (i, i+1), from the identity.
    """
    arrangement = list(range(n))
    position = list(range(n))
    # -1 moves left, +1 moves right, 0 is still; the value 0 never moves.
    direction = [0] + [-1] * (n - 1)
    swaps = []
    value = n - 1
    while value > 0:
        i = position[value]
        j = i + direction[value]
        other = arrangement[j]
        arrangement[i], arrangement[j] = other, value
        position[value], position[other] = j, i
        swaps.append(min(i, j))
        k = j + direction[value]
        if k < 0 or k >= n or arrangement[k] > value:
            direction[value] = 0
        for larger in range(value + 1, n):
            direction[larger] = 1 if position[larger] < j else -1
        value = n - 1
        while value > 0 and not direction[value]:
            value -= 1
    return swaps


def matrix2_add(x, y):
    """Entrywise sum of two 2x2 matrices given as nested lists."""
    return [[x[i][j] + y[i][j] for j in range(2)] for i in range(2)]


def matrix2_sub(x, y):
    return [[x[i][j] - y[i][j] for j in range(2)] for i in range(2)]


def matrix2_neg(x):
    return [[-x[i][j] for j in range(2)] for i in range(2)]


def matrix2_mul(x, y):
    """Row-by-column product: entry (i, j) sums x[i][k] * y[k][j] over k."""
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def poly_text(terms):
    """The printed form of a polynomial given as {monomial: coefficient},
    where a monomial is a name-sorted tuple of (name, exponent) pairs: its
    nonzero terms in sorted monomial order, the first with a leading "-" when
    negative and the rest joined by " + " or " - ", each as |coefficient|
    (left out when it is 1 and the monomial is not empty) and name or
    name^exponent factors joined by "*"; "0" when no term is left."""
    pieces = []
    for monomial in sorted(m for m, c in terms.items() if c):
        coefficient = Fraction(terms[monomial])
        factors = [name if exponent == 1 else f"{name}^{exponent}" for name, exponent in monomial]
        if abs(coefficient) != 1 or not factors:
            factors.insert(0, str(abs(coefficient)))
        pieces.append(("-" if coefficient < 0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    sign, text = pieces[0]
    text = text if sign == "+" else "-" + text
    for sign, piece in pieces[1:]:
        text += f" {sign} {piece}"
    return text


def poly_product(x, y):
    """The product of two polynomials given as {monomial: coefficient} (see
    poly_text): every pair of terms, exponents of a shared name added."""
    terms = {}
    for monomial_x, coefficient_x in x.items():
        for monomial_y, coefficient_y in y.items():
            exponents = dict(monomial_x)
            for name, exponent in monomial_y:
                exponents[name] = exponents.get(name, 0) + exponent
            monomial = tuple(sorted(exponents.items()))
            terms[monomial] = terms.get(monomial, 0) + coefficient_x * coefficient_y
    return terms
