"""The errors of this package: the classes that ``cli.main`` maps to its exit codes.

A failure raises the class of its exit code where it happens.  A bad
argument to a library function (an epsilon outside (0, 1), an n outside a
family's range) raises ValueError instead.
"""


class IsspError(Exception):
    """Base of the four below; raised itself, a solver's answer failed its
    check or an internal invariant broke (exit 5)."""


class InputError(IsspError):
    """An instance could not be read, parsed or validated (exit 2)."""


class InvalidSetting(IsspError):
    """A flag or a setting such as ISSP_MEMORY_BUDGET_MB is malformed or out of range (exit 3)."""


class MemoryBudgetExceeded(IsspError):
    """A solver would exceed its memory budget (exit 4)."""


class InstanceTooLarge(IsspError):
    """Exhaustive enumeration refused: n exceeds its cap (exit 4)."""
