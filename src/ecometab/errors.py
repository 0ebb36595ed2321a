"""Exception hierarchy shared across the package.

Every failure the library raises on purpose derives from ``EcometabError``,
so callers (the CLI in particular) can turn any analysis failure into a
single diagnostic line without catching bare ``Exception``.
"""

from __future__ import annotations


class EcometabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EcometabError):
    """Malformed input file; carries the offending row and column."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column '{column}'")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class MissingDataError(EcometabError):
    """A requested item is not reported for one or more years."""


class EmptyPeriodError(EcometabError):
    """A year range selects no records."""


class AlignmentError(EcometabError):
    """Two series do not share the same year set."""


class InsufficientDataError(EcometabError):
    """Fewer observations than the operation requires."""


class DegenerateRegressorError(EcometabError):
    """The explanatory variable has zero variance."""


class DomainError(EcometabError):
    """An argument is outside the mathematical domain of the operation."""


class ConvergenceError(EcometabError):
    """An iterative numerical method did not reach its tolerance."""
