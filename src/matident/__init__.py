"""Exact evaluators and cross-checks for permanent-family matrix functions.

The package computes permanents, determinants, symmetrized permanents over
noncommutative rings, and space-matrix determinants, each two ways: from the
definition and through a power-sum identity that trades multiplications for
additions and n-th powers.  Everything runs in exact arithmetic (rationals,
multivariate polynomials, small rational matrices), so all cross-checks are
equality tests, not tolerance tests.
"""

from .identities import (
    check_diagonal_power_identity,
    check_submatrix_power_identity,
    determinant,
    determinant_identity,
    determinant_zero_criterion,
    diagonal_power_residual,
    permanent,
    permanent_identity,
    permanent_ryser,
    space_determinant,
    space_determinant_identity,
    submatrix_power_residual,
    symmetrized_permanent,
    symmetrized_permanent_identity,
    symmetrized_permanent_zero_criterion,
)
from .matrices import (
    CubeMatrix,
    SquareMatrix,
    symbolic_cube,
    symbolic_gammas,
    symbolic_matrix,
)
from .polarization import DiagonalFunction, polarize
from .rings import (
    MATRIX2,
    RATIONAL,
    SYMBOLIC,
    MatrixElement,
    Poly,
    Ring,
)

__version__ = "0.1.0"

__all__ = [
    "CubeMatrix",
    "DiagonalFunction",
    "MATRIX2",
    "MatrixElement",
    "Poly",
    "RATIONAL",
    "Ring",
    "SYMBOLIC",
    "SquareMatrix",
    "check_diagonal_power_identity",
    "check_submatrix_power_identity",
    "determinant",
    "determinant_identity",
    "determinant_zero_criterion",
    "diagonal_power_residual",
    "permanent",
    "permanent_identity",
    "permanent_ryser",
    "polarize",
    "space_determinant",
    "space_determinant_identity",
    "submatrix_power_residual",
    "symbolic_cube",
    "symbolic_gammas",
    "symbolic_matrix",
    "symmetrized_permanent",
    "symmetrized_permanent_identity",
    "symmetrized_permanent_zero_criterion",
    "__version__",
]
