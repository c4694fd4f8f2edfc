"""Exception types shared across the package."""


class ApxError(Exception):
    """Base class for all package errors."""


class ParseError(ApxError):
    """Graph input file could not be parsed."""


class EdgeNotInGraph(ApxError):
    """Requested edge is not an edge of the graph."""


class DisconnectedGraph(ApxError):
    """Operation requires a connected graph."""


class NotFullDimensional(ApxError):
    """Point set does not affinely span its ambient space."""


class PreconditionViolated(ApxError):
    """Subset contains exactly one of the two contracted-edge points."""


class NotCorankOne(ApxError):
    """Signature is only defined for corank-1 subsets."""


class TheoremViolation(ApxError):
    """A statement of the paper checked on the instance at hand failed:
    the implementation or the theorem is wrong, never the input."""
