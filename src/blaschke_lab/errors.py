"""Exception types shared by every module of the lab.

Each failure mode that callers are expected to branch on gets its own
class; plain ``ValueError`` is reserved for malformed arguments.
"""

from __future__ import annotations


class BlaschkeLabError(Exception):
    """Base class for all lab-specific failures."""


class SolverFailure(BlaschkeLabError):
    """Root finder did not converge; carries the best iterate found."""

    def __init__(self, message, best=None, residuals=None):
        super().__init__(message)
        self.best = best
        self.residuals = residuals


class ContourProximityError(BlaschkeLabError):
    """A contour node came too close to a zero of f - w.

    The winding count along such a contour is unreliable; the caller
    should perturb the radius and retry.
    """

    def __init__(self, message, radius=None, min_distance=None):
        super().__init__(message)
        self.radius = radius
        self.min_distance = min_distance


class RefinementOverflowError(BlaschkeLabError):
    """Adaptive contour subdivision exceeded its node budget."""


class PoleError(BlaschkeLabError):
    """Evaluation hit a pole of the map (only reachable on |z| = 1)."""


class DomainError(BlaschkeLabError):
    """Argument lies outside the domain of the map."""


class NotAnAutomorphismError(BlaschkeLabError):
    """Automorphism recovery failed: the map is not a disc automorphism."""

    def __init__(self, message, sup_error=None):
        super().__init__(message)
        self.sup_error = sup_error


class DiscPreservationError(BlaschkeLabError):
    """A map produced |f(z)| >= 1 at a point inside the disc."""


class BoundaryAmbiguityError(BlaschkeLabError):
    """A computed root sits in the annulus around |z| = 1 where interior/
    exterior classification is numerically meaningless."""

    def __init__(self, message, roots=None):
        super().__init__(message)
        self.roots = roots


class InternalConsistencyError(BlaschkeLabError):
    """A structural identity that mathematics guarantees was violated;
    signals a solver bug, never a legitimate input."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class MapSpecError(BlaschkeLabError):
    """Map-spec JSON failed to parse; ``path`` names the offending node."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path
