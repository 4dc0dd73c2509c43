"""Shared exception types.

The CLI maps these onto its exit codes: InputError -> 2, CrossCheckError -> 3,
ResourceLimitError -> 4.
"""


class GgsLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GgsLabError, ValueError):
    """Malformed input or a violated operation precondition."""


class ResourceLimitError(GgsLabError):
    """A configured scale guard was exceeded (quotient size, scan size, model order)."""


class CrossCheckError(GgsLabError):
    """Two independent routes to the same quantity disagree, or a condition that is
    mathematically forced failed on concrete data. Either way something is wrong
    enough that the result cannot be reported as a plain counterexample."""
