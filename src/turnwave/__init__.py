"""turnwave: contour dynamics for Muskat and water-wave interfaces.

Desk-scale simulation and verification of interface turning (finite-time
vertical tangent), Rayleigh-Taylor sign breakdown, and continuation past
turnover on shrinking strips of analyticity.
"""

from .closures import PhysicalConstants
from .curve import Curve, SlopeReport, arc_chord, derivative, min_slope

__all__ = [
    "Curve",
    "SlopeReport",
    "PhysicalConstants",
    "arc_chord",
    "derivative",
    "min_slope",
]

__version__ = "0.1.0"
