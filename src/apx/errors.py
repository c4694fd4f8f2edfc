"""Exception types shared across the package: one per exit code, and
``NotFullDimensional``, which ``subdivision.prove_cover`` catches by
name."""


class ApxError(Exception):
    """Base class for all package errors; on its own, bad input or output
    that cannot be written (exit 2)."""


class NotFullDimensional(ApxError):
    """Point set does not affinely span its ambient space."""


class TheoremViolation(ApxError):
    """A statement of the paper checked on the instance at hand failed:
    the implementation or the theorem is wrong, never the input."""
