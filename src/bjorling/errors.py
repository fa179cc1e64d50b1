"""Exception types shared across the package."""


class BjorlingError(Exception):
    """Base class for all library errors."""


class NotInvertible(BjorlingError):
    """Attempted inversion of zero or of a zero divisor."""


class DomainError(BjorlingError):
    """Point outside a group chart, or a generator left its analytic domain."""


class NonIntegrable(BjorlingError):
    """The rebuilt immersion's u-derivative disagrees with its frame data."""


class CausalMismatch(BjorlingError):
    """Curve causal character does not match the requested problem kind."""


class CharacteristicData(BjorlingError):
    """Initial curve is lightlike, so the Cauchy problem degenerates."""


class ConstraintDrift(BjorlingError):
    """Quadratic cone constraint drifted while marching; inconsistent data."""


class UnsupportedRecipe(BjorlingError):
    """No immersion can be rebuilt: no frame matrix, or an entry with no series."""


class DegenerateFrame(BjorlingError):
    """Surface normal too close to zero to normalize."""


class ProblemValidationError(BjorlingError):
    """Problem data violates one of its stated invariants."""


class SchemaError(BjorlingError):
    """Malformed problem or solution file."""


class ExpressionError(SchemaError):
    """Unparseable or disallowed jet expression."""
