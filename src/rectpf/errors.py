"""Exception hierarchy with stable, machine-readable error codes.

Every failure mode in the package carries a short code string (for example
``SINGULAR_Y`` or ``LOSSY_NETWORK``) so that CLI output and tests can match
on it without parsing prose.  The CLI maps :class:`CaseValidationError` to
exit code 2, and :class:`SolverError` and :class:`InternalCheckError` to
exit code 3.
"""

from __future__ import annotations


class RectpfError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class SolverError(RectpfError):
    """A solve could not produce a result (singular system, failed gate...)."""

    code = "SOLVER_ERROR"


class CaseValidationError(RectpfError):
    """A case file or in-memory case violates the schema.

    ``violations`` lists every problem found, not just the first one.
    """

    code = "VALIDATION_ERROR"

    def __init__(self, violations, *, code: str | None = None):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations), code=code)


class InternalCheckError(RectpfError):
    """A built-in cross-check failed.  Indicates a bug, not bad input."""

    code = "INTERNAL_CHECK"
