"""Exception types shared across the package."""


class DbaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DbaError):
    """Array or operator dimensions are inconsistent."""


class NotPositiveDefinite(DbaError):
    """A matrix required to be positive definite failed factorization."""


class Breakdown(DbaError):
    """Conjugate gradient met nonpositive curvature (operator not PD)."""


class StrategyPrecondition(DbaError):
    """A structured-solver strategy was requested but its prerequisites fail."""


class UnsupportedObjective(DbaError):
    """The solver variant cannot handle the problem's objective functions."""


class LineSearchFailure(DbaError):
    """Backtracking line search failed to produce sufficient decrease."""


class SubproblemFailure(DbaError):
    """A scenario subproblem solve failed; the message names the scenario."""


class ParseError(DbaError):
    """A problem or solution file could not be parsed."""


class ParameterError(DbaError, ValueError):
    """A solver parameter lies outside its admissible range."""


class NonFiniteData(DbaError, ValueError):
    """Problem data contain NaN or Inf; the message names the array."""


class NumericalError(DbaError):
    """An iterate turned non-finite; the message names the iteration."""
