"""Exception types shared across the package.

Errors that describe a genuine mathematical obstruction (rather than a bad
invocation) derive from ObstructionError so the CLI can map them to a
distinct exit code.
"""


class IfsConjError(Exception):
    """Base class for all package errors."""


class ObstructionError(IfsConjError):
    """A verified mathematical obstruction, not a usage problem."""


class NonConjugateError(ObstructionError):
    """The requested conjugacy provably does not exist."""

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NonHyperbolicError(ObstructionError):
    """A slope or fixed-point derivative sits on the unit/zero boundary."""


class DomainEscapeError(IfsConjError):
    """An orbit left the declared map domain."""

    def __init__(self, message, step=None, value=None):
        super().__init__(message)
        self.step = step
        self.value = value


class UnsupportedMapError(IfsConjError):
    """Operation requires a map kind the given map is not."""


class NumericFailureError(IfsConjError):
    """An iteration cap was exhausted, or a finite input gave a non-finite value."""


class InversionRangeError(IfsConjError):
    """Requested preimage lies outside the image of the homeomorphism."""


class ConvergenceFailureError(IfsConjError):
    """Iterative limit did not converge within the allowed depth."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class HypothesisError(IfsConjError):
    """Inputs violate the hypotheses the operation needs."""


class WrongCaseError(IfsConjError):
    """Operation applied to an IFS whose linear part is of another case."""


class NotFixedPointError(IfsConjError):
    """The origin is not (numerically) fixed by every map."""


class DimensionMismatchError(IfsConjError):
    """Vector/matrix dimensions disagree."""


class InvertibilityError(IfsConjError):
    """Map is not monotone on the working interval."""


class ContinuumOfFixedPointsError(ObstructionError):
    """f(x) - x vanishes identically on a subinterval."""


class GenerationError(IfsConjError):
    """Could not generate an admissible perturbation within the budget."""


class SchemaError(IfsConjError):
    """A configuration document violates the expected schema."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
