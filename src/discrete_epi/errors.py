"""Exception taxonomy shared across the package.

The command line front end maps these onto distinct exit codes:
bad arguments and domain violations exit 2, exhausted iteration or
refinement budgets exit 3, and internal consistency failures (exact
algebra that should cancel but does not) exit 4.
"""

from __future__ import annotations

__all__ = [
    "BudgetExceededError",
    "ConsistencyError",
    "MassConservationError",
    "PrecisionMismatchError",
    "QuadratureError",
    "SeriesTruncationError",
]

class PrecisionMismatchError(ValueError):
    """Two precision-carrying values were combined at different precisions."""


class MassConservationError(ValueError):
    """A weight vector does not sum to one within the mass tolerance."""


class BudgetExceededError(RuntimeError):
    """A computation would pass, or has hit, its work budget.

    Carries the partial evaluation, when there is one, so callers can
    inspect how far the computation got.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class SeriesTruncationError(BudgetExceededError):
    """A series evaluation hit its term cap before reaching the tolerance."""


class QuadratureError(BudgetExceededError):
    """No smoothed-entropy route can meet the requested tolerance.

    The closed form's bound does not fit it, and the trapezoidal rule
    refuses before any sample: the tolerance is at or below its
    truncation floor, or it needs a grid past its step cap.
    """


class ConsistencyError(RuntimeError):
    """An exact identity failed to hold (non-zero remainder, parity leak).

    This always indicates a genuine defect, never a tolerance issue, so
    it is raised as a hard error and surfaces as its own exit code.
    """
