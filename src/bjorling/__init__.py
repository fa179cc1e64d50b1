"""Minimal surfaces in Lorentzian 3-dimensional Lie groups.

Curve-and-normal (Bjorling) data is marched through a first-order frame
PDE system as a truncated power series, then the coordinate immersion is
marched the same way through the group's frame matrix and certified by
independent residual checks.
"""

from .config import CurveClass, GridSpec, Mode, ProblemKind, Tolerances
from .errors import (
    BjorlingError,
    CausalMismatch,
    CharacteristicData,
    ConsistencyFailure,
    ConstraintDrift,
    DegenerateFrame,
    DomainError,
    ExpressionError,
    NonIntegrable,
    NotInvertible,
    ProblemValidationError,
    Rejection,
    SchemaError,
    UnsupportedRecipe,
)
from .groups import (
    GroupModel,
    by_name,
    connection_from_structure,
    de_sitter,
    generic_group,
    h2xr,
    heisenberg,
    lorentz_cross,
    lorentz_dot,
)
from .series import BiSeries, USeries, ode_taylor
from .solver import (
    BjorlingProblem,
    BjorlingSolution,
    ck_march,
    classify_curve,
    initial_data,
    reconstruct_surface,
    solve_bjorling,
)
from .verify import (
    ResidualReport,
    boundary_residuals,
    compare_to_reference,
    grid_certificates,
    hermitian_sign_profile,
    weierstrass_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "BjorlingError",
    "BjorlingProblem",
    "BjorlingSolution",
    "CausalMismatch",
    "CharacteristicData",
    "ConsistencyFailure",
    "ConstraintDrift",
    "CurveClass",
    "DegenerateFrame",
    "DomainError",
    "ExpressionError",
    "GridSpec",
    "GroupModel",
    "Mode",
    "NonIntegrable",
    "NotInvertible",
    "ProblemKind",
    "ProblemValidationError",
    "Rejection",
    "ResidualReport",
    "SchemaError",
    "Tolerances",
    "USeries",
    "UnsupportedRecipe",
    "boundary_residuals",
    "by_name",
    "ck_march",
    "classify_curve",
    "compare_to_reference",
    "connection_from_structure",
    "de_sitter",
    "generic_group",
    "grid_certificates",
    "h2xr",
    "heisenberg",
    "hermitian_sign_profile",
    "initial_data",
    "lorentz_cross",
    "lorentz_dot",
    "ode_taylor",
    "reconstruct_surface",
    "solve_bjorling",
    "weierstrass_residuals",
]
