"""Typed errors shared across the toolkit.

Every recoverable domain failure raises a subclass of :class:`TwoscaleError`;
numerical kernels never let NaNs propagate silently.
"""


class TwoscaleError(Exception):
    """Base class for all domain errors raised by this package."""


class NonConvergenceError(TwoscaleError):
    """A tolerance could not be reached within the evaluation budget."""


class NotHermitianError(TwoscaleError):
    """Matrix is too asymmetric to be treated as Hermitian."""


class DegenerateWindowError(TwoscaleError):
    """A log-log fit window contains nonpositive ordinates."""


class InsufficientDecadesError(TwoscaleError):
    """A Fourier profile does not span enough dyadic annuli."""


class NotNormalizedError(TwoscaleError):
    """Coefficients of a refinement equation do not sum to the dilation."""


class DivergingError(TwoscaleError):
    """Cascade iteration residuals are growing instead of contracting."""


class BudgetExceededError(TwoscaleError):
    """A request exceeds a stated budget (grid points, times iterations,
    truncation levels or density prefix sums)."""


class BadParameterError(TwoscaleError, ValueError):
    """A named preset or parameter value is outside its admissible range
    (also a ValueError, the type of a bad argument)."""


class DuplicatePointError(TwoscaleError):
    """A wavelet system was given the same (dilation, translation) twice."""


class InconsistentTagsError(TwoscaleError):
    """Declared generator property tags contradict each other or the kind."""


class InvalidEquationError(TwoscaleError):
    """A two-scale equation violates its structural invariants."""
