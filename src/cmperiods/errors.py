"""Structured errors shared by every module in the package."""

from __future__ import annotations


class CMPeriodsError(Exception):
    """Base class for all structured errors raised by this package."""


class InvalidModelError(CMPeriodsError):
    """An embedding-set model violates one of its structural invariants."""


class InvalidCMTypeError(CMPeriodsError):
    """A proposed CM type does not pick exactly one embedding per conjugate pair."""


class UnreachablePointError(CMPeriodsError):
    """No group element carries the base point of a family to the requested point."""


class IllPosedModelError(CMPeriodsError):
    """Two group elements reaching the same point produce contradictory signs."""


class PreconditionError(CMPeriodsError):
    """An operation was called with inputs outside its stated preconditions."""


class DominanceError(PreconditionError):
    """A weight required to be dominant is not."""


class DegenerateInputError(CMPeriodsError):
    """A strict-inequality assumption fails (a comparison hits zero exactly)."""


class NotCriticalError(CMPeriodsError):
    """The exponent set contains the middle point, so no critical range exists."""


class SideError(CMPeriodsError):
    """An unramified character was passed to an operation for the wrong group."""


class ScenarioError(CMPeriodsError):
    """A scenario file is malformed or violates a declared invariant."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
