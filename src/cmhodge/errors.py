"""Exception hierarchy shared by the whole package.

Errors are classified by how the command line reports them: usage errors
(exit code 2), domain errors (exit code 3), and theorem violations (exit
code 4); each class carries its code as ``exit_code``.  Every exception
carries a machine readable ``reason`` slug next to its human message so
callers never have to parse prose.
"""


class CMHodgeError(Exception):
    reason = "error"
    exit_code = 3

    def __init__(self, message: str, reason: str | None = None) -> None:
        super().__init__(message)
        if reason is not None:
            self.reason = reason


class UsageError(CMHodgeError):
    """The caller broke an interface contract (bad arguments, mixed inputs)."""

    reason = "usage-error"
    exit_code = 2


class ConductorMismatchError(UsageError):
    reason = "conductor-mismatch"


class DomainError(CMHodgeError):
    """Mathematically invalid input (not a CM field, bad orientation, ...)."""

    reason = "domain-error"


class NotCMFieldError(DomainError):
    reason = "not-a-cm-field"


class InvalidOrientationError(DomainError):
    reason = "invalid-orientation"


class NotNilpotentError(DomainError):
    reason = "not-nilpotent"


class EnumerationCapError(DomainError):
    reason = "enumeration-cap-exceeded"


class PreconditionError(DomainError):
    reason = "precondition-not-met"


class TheoremViolationError(CMHodgeError):
    """A verdict contradicted a proved statement.  Firing one is release blocking."""

    reason = "theorem-violation"
    exit_code = 4
