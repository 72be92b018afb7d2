"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AddcompError",
    "PreconditionViolated",
    "CoverFailed",
    "RatioNotSatisfied",
    "IndexOutOfRange",
    "BlockPreconditionFailed",
    "TooLarge",
    "NoCover",
]


class AddcompError(Exception):
    """Base class for all library-specific failures."""


class PreconditionViolated(AddcompError):
    """A documented precondition failed; the message names the clause."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class CoverFailed(AddcompError):
    """Internal consistency failure: a cover that must exist was not found."""


class RatioNotSatisfied(AddcompError):
    """No (alpha, tail start) pair satisfies the growth-ratio condition."""


class IndexOutOfRange(AddcompError):
    """The sequence is too short for the derived parameters."""


class BlockPreconditionFailed(AddcompError):
    """A dyadic block's runtime counting check failed at the given exponent."""

    def __init__(self, exponent: int, detail: str = ""):
        self.exponent = exponent
        super().__init__(detail or f"block precondition failed at exponent {exponent}")

    def __reduce__(self):  # the default, cls(*self.args), would take the message as the exponent
        return type(self), (self.exponent, str(self))


class TooLarge(AddcompError):
    """The instance exceeds the exhaustive-search size cap."""


class NoCover(AddcompError):
    """Even the full candidate set fails to cover the target range."""
