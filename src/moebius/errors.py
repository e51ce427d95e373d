"""Exception types shared across the library."""


class MoebiusError(Exception):
    """Base class for all domain errors raised by this package."""


class BandBoundary(MoebiusError):
    """Coordinate pair lies on or outside the open band |y - x| < 1."""


class NotBasicAligned(MoebiusError):
    """No representative pair shares the coordinate required by the triangle family."""


class UnboundedRect(MoebiusError):
    """The rectangle touches the band boundary along a set carrying infinitely many cluster points."""


class DepthLimit(MoebiusError):
    """Enumeration would exceed the depth cap (MOEBIUS_MAX_DEPTH)."""


class NotInCluster(MoebiusError):
    """Mutation requested at an object that is not a chord of the cluster."""


class InCluster(MoebiusError):
    """Operation undefined for objects lying in the standard cluster."""


class ShapeMismatch(MoebiusError):
    """Matrix morphism shapes are not composable."""


class NoMorphism(MoebiusError):
    """There is no nonzero morphism between the given string modules."""


class NotAModule(MoebiusError):
    """Vertex data violates the quiver relations."""


class InvalidWord(MoebiusError):
    """Letter sequence is not a valid reduced string."""


class Unreachable(MoebiusError):
    """Target vertex is not reachable by a digit walk from the base vertex."""


class AllOnesTail(MoebiusError):
    """Digit prefix consists entirely of ones; such tails are excluded."""


class ParseError(MoebiusError):
    """Malformed textual input."""
