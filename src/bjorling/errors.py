"""Exception types shared across the package.

Two categories group the errors a solve can end in: a ``Rejection`` is a
problem the solver refuses (the CLI's exit 2), a ``ConsistencyFailure`` is
a solve whose own consistency checks failed (exit 3).  Every other error
is a usage, file or evaluation error (exit 1).
"""


class BjorlingError(Exception):
    """Base class for all library errors."""


class Rejection(BjorlingError):
    """The problem is refused: its data admit no solve the solver can carry out."""


class ConsistencyFailure(BjorlingError):
    """The solve broke one of its own consistency checks."""


class NotInvertible(BjorlingError):
    """Attempted inversion of zero or of a zero divisor."""


class DomainError(Rejection):
    """Point outside a group chart, or a generator left its analytic domain."""


class NonIntegrable(ConsistencyFailure):
    """The rebuilt immersion's u-derivative disagrees with its frame data."""


class CausalMismatch(Rejection):
    """Curve causal character does not match the requested problem kind."""


class CharacteristicData(Rejection):
    """Initial curve is lightlike, so the Cauchy problem degenerates."""


class ConstraintDrift(ConsistencyFailure):
    """Quadratic cone constraint drifted while marching; inconsistent data."""


class UnsupportedRecipe(Rejection):
    """No immersion can be rebuilt: no frame matrix, or an entry with no series."""


class DegenerateFrame(BjorlingError):
    """Surface normal too close to zero to normalize."""


class ProblemValidationError(Rejection):
    """Problem data violates one of its stated invariants."""


class SchemaError(BjorlingError):
    """Malformed problem or solution file."""


class ExpressionError(SchemaError):
    """Unparseable or disallowed jet expression."""
