"""Exception types shared across the package, one per exit code."""


class ApxError(Exception):
    """Base class for all package errors; on its own, bad input or output
    that cannot be written (exit 2)."""


class TheoremViolation(ApxError):
    """A statement of the paper checked on the instance at hand failed:
    the implementation or the theorem is wrong, never the input."""
