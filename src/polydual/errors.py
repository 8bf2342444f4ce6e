"""Exception types shared across the geometry and solver modules."""


class GeometryError(Exception):
    """Base class for numeric-geometry failures."""


class NotSpacelikeSeparated(GeometryError):
    """Two de Sitter points are not joined by a spacelike geodesic shorter than pi."""


class DomainExceeded(GeometryError):
    """An inverse-trig argument left its admissible interval by more than the slack."""


class InvalidSurface(GeometryError):
    pass


class InvalidConeMetric(GeometryError):
    pass


class LengthOverflow(GeometryError):
    """A scaled spherical edge length reached pi."""


class FlipBlocked(GeometryError):
    """The developed quadrilateral does not admit the opposite diagonal."""


class InvalidPolyhedron(GeometryError):
    pass


class EmptyInterior(InvalidPolyhedron):
    pass


class UnboundedPolyhedron(InvalidPolyhedron):
    pass


class OrbitBoundTooSmall(GeometryError):
    """The apex vertex link changed when the orbit word bound was raised."""


class SolverError(Exception):
    """Base class for realization-solver failures."""


class StepStalled(SolverError):
    """Newton damping reached its floor without reducing the residual."""


class FeasibilityLost(SolverError):
    """The iterate left the set of convex-position configurations."""


class HomotopyBlocked(SolverError):
    """The continuation path left the chart and no edge flip restores it."""

    def __init__(self, message, s=None, edge=None):
        super().__init__(message)
        self.s = s
        self.edge = edge
