"""Exception hierarchy shared across the package.

Errors caused by user-supplied data raise InputError (CLI exit code 2),
exhausted budgets raise BudgetError (exit code 3), and violations of
internal invariants raise InternalCheckError (exit code 4), which always
indicates a bug rather than bad input.
"""


class HurwitzError(Exception):
    """Base class for all package errors."""


class InputError(HurwitzError, ValueError):
    """Invalid user input: malformed files, bad arguments, broken invariants."""

    def __init__(self, message, pointer=None):
        if pointer:
            message = f"{message} (at {pointer})"
        super().__init__(message)
        self.pointer = pointer


class BudgetError(HurwitzError):
    """A configured resource cap (tuple budget, element cap) was exceeded."""

    def __init__(self, message, consumed=None, budget=None):
        super().__init__(message)
        self.consumed = consumed
        self.budget = budget


class UnsupportedConfigurationError(InputError):
    """A named precondition of an operation does not hold for this input."""


class InternalCheckError(HurwitzError):
    """A self-check failed; signals a bug in the package, not in the input."""
