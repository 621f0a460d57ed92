"""Exception hierarchy shared by all issp modules."""


class IsspError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsspError):
    """An instance could not be read or parsed."""


class NonPositiveEndpoint(IsspError):
    """An interval endpoint is smaller than 1."""


class InvertedInterval(IsspError):
    """An interval has lo > hi."""


class NonPositiveTarget(IsspError):
    """The target is smaller than 1."""


class ValueOutsideInterval(IsspError):
    """A solution entry is neither 0 nor inside its interval."""


class TargetExceeded(IsspError):
    """A solution's total exceeds the target."""


class NegativeGap(IsspError):
    """relative_error called with approx > reference."""


class InstanceTooLarge(IsspError):
    """Exhaustive enumeration refused: n exceeds its cap."""


class MemoryBudgetExceeded(IsspError):
    """A solver would exceed its memory budget."""


class InvalidSetting(IsspError):
    """A flag or a setting such as ISSP_MEMORY_BUDGET_MB is malformed or out of range."""


class EpsilonOutOfRange(IsspError):
    """The requested relative error is not in (0, 1)."""


class NOutOfRange(IsspError):
    """A generator was asked for an unsupported instance size."""


class SubsetInfeasible(IsspError):
    """A subset's lower-endpoint sum already exceeds the target."""


class OutOfRange(IsspError):
    """A value passed to bucket_index lies outside (0, T]."""


class NoPairFound(IsspError):
    """The two-array sweep found no admissible (u1, u2) pair (caller bug)."""


class EmptyArray(IsspError):
    """Backtracking started from an all-empty bucket array (caller bug)."""
