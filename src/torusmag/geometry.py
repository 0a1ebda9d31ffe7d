"""Geometry of the ring torus: metric factor and principal curvatures.

The torus is parameterized by the poloidal angle theta and the azimuth
phi; the unit normal e_n = cos(theta) e_rho + sin(theta) e_z points away
from the tube axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Raised when a geometric quantity is requested outside its domain."""


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvatures of the torus.

    k1, k2 are the principal curvatures (1/length); h = (k1 + k2)/2 and
    k = k1*k2 are the mean and Gaussian curvatures.
    """

    k1: float
    k2: float
    h: float
    k: float


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


def torus_curvatures(geom: TorusGeometry, theta: float) -> CurvatureData:
    """Curvatures of the torus at poloidal angle theta.

    k1 = 1/a (around the tube) and k2 = cos(theta)/W(theta); the normal
    points away from the tube axis.
    """
    a = geom.minor_radius
    w = float(geom.w(theta))
    k1 = 1.0 / a
    k2 = math.cos(theta) / w
    return CurvatureData(k1=k1, k2=k2, h=0.5 * (k1 + k2), k=k1 * k2)

