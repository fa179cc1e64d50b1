"""Minimal surfaces in Lorentzian 3-dimensional Lie groups.

Curve-and-normal (Bjorling) data is marched through a first-order frame
PDE system as a truncated power series, then the coordinate immersion is
marched the same way through the group's frame matrix and certified by
independent residual checks.
"""

from .config import CurveClass, GridSpec, ProblemKind, Tolerances
from .errors import (
    BjorlingError,
    BranchError,
    CausalMismatch,
    CharacteristicData,
    ConstraintDrift,
    DegenerateFrame,
    DegenerateSqrt,
    DomainError,
    ExpressionError,
    NonIntegrable,
    NotInvertible,
    ProblemValidationError,
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
from .scalars import KScalar, Mode, kconst, kunit
from .series import (
    BiSeries,
    KSeries,
    USeries,
    ode_taylor,
    para_cr_residual,
)
from .solver import (
    BjorlingProblem,
    BjorlingSolution,
    ck_march,
    ck_march_cone_lift,
    classify_curve,
    cone_series,
    initial_data,
    reconstruct_surface,
    solve_bjorling,
)
from .verify import (
    ResidualReport,
    boundary_residuals,
    compare_to_reference,
    conformality_residual,
    graph_identity_residual,
    hermitian_sign_profile,
    tension_residual,
    weierstrass_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "BjorlingError",
    "BjorlingProblem",
    "BjorlingSolution",
    "BranchError",
    "CausalMismatch",
    "CharacteristicData",
    "ConstraintDrift",
    "CurveClass",
    "DegenerateFrame",
    "DegenerateSqrt",
    "DomainError",
    "ExpressionError",
    "GridSpec",
    "GroupModel",
    "KScalar",
    "KSeries",
    "Mode",
    "NonIntegrable",
    "NotInvertible",
    "ProblemKind",
    "ProblemValidationError",
    "ResidualReport",
    "SchemaError",
    "Tolerances",
    "USeries",
    "UnsupportedRecipe",
    "boundary_residuals",
    "by_name",
    "ck_march",
    "ck_march_cone_lift",
    "classify_curve",
    "compare_to_reference",
    "cone_series",
    "conformality_residual",
    "connection_from_structure",
    "de_sitter",
    "generic_group",
    "graph_identity_residual",
    "h2xr",
    "heisenberg",
    "hermitian_sign_profile",
    "initial_data",
    "kconst",
    "kunit",
    "lorentz_cross",
    "lorentz_dot",
    "ode_taylor",
    "para_cr_residual",
    "reconstruct_surface",
    "solve_bjorling",
    "tension_residual",
    "weierstrass_residuals",
]
