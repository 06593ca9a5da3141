"""Exception types shared across the package."""


class TsirelsonError(Exception):
    """Base class for all errors raised by this package."""


class EmptyMatrix(TsirelsonError):
    pass


class NonFiniteEntry(TsirelsonError):
    pass


class InvalidSize(TsirelsonError):
    pass


class LengthMismatch(TsirelsonError):
    pass


class NotPSD(TsirelsonError):
    pass


class InvalidRank(TsirelsonError):
    pass


class MaxIterReached(TsirelsonError):
    """Iteration cap hit before the ascent stopped.

    Each iteration runs at most two sweeps.  Carries the partial solution;
    certification of the dual still yields a valid upper bound, so callers
    may recover.
    """

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


class TooLarge(TsirelsonError):
    pass


class NotUnitVector(TsirelsonError):
    pass


class DimensionMismatch(TsirelsonError):
    pass


class SettingCountMismatch(TsirelsonError):
    pass
