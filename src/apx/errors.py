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


class CorrespondenceViolation(ApxError):
    """Cell-to-facet correspondence failed; signals an implementation
    or hypothesis failure, never an expected outcome."""


class PreconditionViolated(ApxError):
    """Subset contains exactly one of the two contracted-edge points."""


class NotCorankOne(ApxError):
    """Signature is only defined for corank-1 subsets."""


class UnsupportedCorank(ApxError):
    """No closed-form volume for this corank; use the triangulation oracle."""


class NoValidCyclePair(ApxError):
    """Corank-2 cell admits no basis pair with an even cycle avoiding
    the contracted edge."""


class MorphismViolation(ApxError):
    """Matroid morphism property failed; never expected."""


class TheoremViolation(ApxError):
    """A statement of the paper checked on the instance at hand failed:
    the implementation or the theorem is wrong, never the input."""
