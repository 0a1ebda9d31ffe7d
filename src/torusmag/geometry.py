"""Geometry of the ring torus: radii, aspect ratio and metric factor.

The torus is parameterized by the poloidal angle theta and the azimuth
phi; the unit normal e_n = cos(theta) e_rho + sin(theta) e_z points away
from the tube axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when a geometric quantity is requested outside its domain."""


@dataclass(frozen=True)
class TorusGeometry:
    """Ring torus of major radius R and minor radius a (same length unit)."""

    major_radius: float
    minor_radius: float

    def __post_init__(self) -> None:
        if not (self.major_radius > 0 and self.minor_radius > 0):
            raise DomainError("torus radii must be positive")
        if not self.minor_radius < self.major_radius:
            raise DomainError(
                f"need a < R for an embedded ring torus, got "
                f"a={self.minor_radius}, R={self.major_radius}"
            )

    @property
    def alpha(self) -> float:
        """Aspect ratio a/R, in (0, 1)."""
        return self.minor_radius / self.major_radius

    def w(self, theta):
        """Distance from the symmetry axis, W(theta) = R + a cos(theta)."""
        return self.major_radius + self.minor_radius * np.cos(theta)


def metric_factor_f(geom: TorusGeometry, theta):
    """Surface measure weight F(theta) = 1 + alpha cos(theta) = W/R."""
    return 1.0 + geom.alpha * np.cos(theta)

