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


class InvalidRank(TsirelsonError):
    pass


class MaxIterReached(TsirelsonError):
    """Not raised: a capped ascent returns converged=False; kept for perfbench's import."""


class TooLarge(TsirelsonError):
    pass


class NotUnitVector(TsirelsonError):
    pass


class DimensionMismatch(TsirelsonError):
    pass


class SettingCountMismatch(TsirelsonError):
    pass
