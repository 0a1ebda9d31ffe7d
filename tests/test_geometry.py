"""Surface geometry: torus forms and the curvature potential.

`torus_curvatures` below gives the torus curvatures in closed form; the
vmag reference in test_field rests on it.  The Monge formulas for a
surface of revolution, kept here as an independent reference, cross-check
it; TestCurvatures and TestGeometricPotential check the Monge reference
itself on surfaces with known answers.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusmag.geometry import DomainError, TorusGeometry, metric_factor_f


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


@dataclass(frozen=True)
class SurfaceProfile:
    """Height S(rho) of a surface of revolution, with analytic S', S''."""

    shape: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]

    @staticmethod
    def flat() -> "SurfaceProfile":
        return SurfaceProfile(lambda r: 0.0, lambda r: 0.0, lambda r: 0.0)

    @staticmethod
    def sphere(radius: float) -> "SurfaceProfile":
        """Upper hemisphere, valid for 0 < rho < radius."""
        return circle_profile(0.0, radius)


@dataclass(frozen=True)
class MongeCurvatures:
    z: float
    k1: float
    k2: float
    h: float
    k: float


def circle_profile(center: float, radius: float) -> SurfaceProfile:
    """Upper half of the circle of the given radius centred at rho = center."""

    def s(r):
        return math.sqrt(radius * radius - (r - center) ** 2)

    return SurfaceProfile(
        s, lambda r: -(r - center) / s(r), lambda r: -(radius * radius) / s(r) ** 3
    )


def curvatures(profile: SurfaceProfile, rho: float) -> MongeCurvatures:
    """k1 = -S''/Z^3 and k2 = -S'/(rho Z) with Z = sqrt(1 + S'^2)."""
    if not rho > 0:
        raise DomainError(f"rho must be positive, got {rho}")
    s1, s2 = float(profile.d1(rho)), float(profile.d2(rho))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise DomainError(f"profile derivatives not finite at rho={rho}")
    z = math.sqrt(1.0 + s1 * s1)
    k1, k2 = -s2 / z**3, -s1 / (rho * z)
    return MongeCurvatures(z=z, k1=k1, k2=k2, h=0.5 * (k1 + k2), k=k1 * k2)


def geometric_potential_vc(profile: SurfaceProfile, rho: float) -> float:
    c = curvatures(profile, rho)
    return c.h**2 - c.k


def torus_profile(geom: TorusGeometry) -> SurfaceProfile:
    """Local Monge profile of the upper half of the torus."""
    return circle_profile(geom.major_radius, geom.minor_radius)


def catenoid_profile(c: float = 1.0) -> SurfaceProfile:
    """S(rho) = c * arccosh(rho/c), the catenoid height, for rho > c."""

    def s(r):
        return c * math.acosh(r / c)

    def s1(r):
        return c / math.sqrt(r * r - c * c)

    def s2(r):
        return -c * r / (r * r - c * c) ** 1.5

    return SurfaceProfile(s, s1, s2)


class TestCurvatures:
    def test_flat_plane_is_curvature_free(self):
        c = curvatures(SurfaceProfile.flat(), 3.7)
        assert c.k1 == 0 and c.k2 == 0 and c.h == 0 and c.k == 0
        assert c.z == 1.0

    def test_hemisphere_is_umbilic(self):
        radius = 2.0
        c = curvatures(SurfaceProfile.sphere(radius), radius / 2.0)
        assert c.k1 == pytest.approx(1.0 / radius, rel=1e-12)
        assert c.k2 == pytest.approx(1.0 / radius, rel=1e-12)
        assert c.h**2 - c.k == pytest.approx(0.0, abs=1e-14)

    def test_mean_and_gaussian_compose_from_principals(self):
        c = curvatures(catenoid_profile(), 1.7)
        assert c.h == 0.5 * (c.k1 + c.k2)
        assert c.k == c.k1 * c.k2

    @pytest.mark.parametrize("rho", [1.3, 1.6, 2.4])
    def test_h_matches_finite_difference_normal_variation(self, rho):
        # mean curvature as half the cylindrical divergence of the unit
        # normal field n(rho), evaluated by central differences; for the
        # catenoid this doubles as a minimal-surface (h = 0) check
        profiles = [catenoid_profile(), SurfaceProfile.sphere(4.0)]
        eps = 1e-5
        for prof in profiles:

            def normal(r):
                s1 = prof.d1(r)
                z = math.sqrt(1.0 + s1 * s1)
                return np.array([-s1 / z, 1.0 / z])  # (e_rho, e_z) components

            n0 = normal(rho)
            dn = (normal(rho + eps) - normal(rho - eps)) / (2.0 * eps)
            div = dn[0] + n0[0] / rho
            c = curvatures(prof, rho)
            assert 0.5 * div == pytest.approx(c.h, rel=1e-5, abs=1e-7)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(DomainError):
            curvatures(SurfaceProfile.flat(), 0.0)

    def test_rejects_nonfinite_derivative(self):
        prof = SurfaceProfile(lambda r: 0.0, lambda r: math.inf, lambda r: 0.0)
        with pytest.raises(DomainError, match="2.5"):
            curvatures(prof, 2.5)

    def test_profile_derivatives_match_finite_differences(self):
        prof = catenoid_profile()
        for rho in (1.3, 2.1, 5.0):
            eps = 1e-6 * rho
            fd1 = (prof.shape(rho + eps) - prof.shape(rho - eps)) / (2 * eps)
            fd2 = (
                prof.shape(rho + eps) - 2 * prof.shape(rho) + prof.shape(rho - eps)
            ) / eps**2
            assert prof.d1(rho) == pytest.approx(fd1, rel=1e-6)
            assert prof.d2(rho) == pytest.approx(fd2, rel=1e-3)


class TestGeometricPotential:
    def test_sphere_vanishes_everywhere(self):
        prof = SurfaceProfile.sphere(3.0)
        for rho in (0.5, 1.5, 2.5):
            assert geometric_potential_vc(prof, rho) == pytest.approx(0.0, abs=1e-13)

    def test_flat_plane_vanishes(self):
        assert geometric_potential_vc(SurfaceProfile.flat(), 1.0) == 0.0

    def test_torus_top_matches_monge_evaluation(self, geom):
        # theta = pi/2 is the top of the tube, rho = R there
        direct = torus_curvatures(geom, math.pi / 2.0)
        via_monge = geometric_potential_vc(torus_profile(geom), geom.major_radius)
        expected = 0.25 * (1.0 / geom.minor_radius) ** 2
        assert direct.h**2 - direct.k == pytest.approx(expected, rel=1e-12)
        assert via_monge == pytest.approx(expected, rel=1e-8)

    @given(
        st.floats(min_value=1.05, max_value=10.0),
        st.floats(min_value=1.0, max_value=5.0),
    )
    def test_never_negative(self, rho_over_c, c):
        value = geometric_potential_vc(catenoid_profile(c), rho_over_c * c)
        assert value >= 0.0


class TestTorusGeometry:
    def test_alpha_is_ratio(self):
        geom = TorusGeometry(400.0, 100.0)
        assert geom.alpha == 0.25

    def test_rejects_degenerate_tori(self):
        with pytest.raises(DomainError):
            TorusGeometry(100.0, 100.0)
        with pytest.raises(DomainError):
            TorusGeometry(-1.0, 0.5)

    def test_metric_factor_values(self, geom):
        assert metric_factor_f(geom, 0.0) == pytest.approx(1.5)
        assert metric_factor_f(geom, math.pi) == pytest.approx(0.5)

    def test_metric_factor_integrates_to_two_pi(self, geom):
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        integral = np.mean(metric_factor_f(geom, theta)) * 2.0 * np.pi
        assert integral == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_metric_factor_equals_w_over_r(self, geom):
        for theta in (0.1, 2.0, 4.5):
            assert metric_factor_f(geom, theta) == pytest.approx(
                geom.w(theta) / geom.major_radius, rel=1e-14
            )


class TestTorusCurvatures:
    def test_tube_top(self, geom):
        c = torus_curvatures(geom, math.pi / 2.0)
        assert c.k1 == pytest.approx(1.0 / geom.minor_radius)
        assert c.k2 == pytest.approx(0.0, abs=1e-15)
        assert c.k == pytest.approx(0.0, abs=1e-15)

    def test_outer_equator(self, geom):
        c = torus_curvatures(geom, 0.0)
        # k2 = cos(0)/W(0) = 1/(R * F(0)) with F(0) = 1.5
        assert c.k2 == pytest.approx(1.0 / (geom.major_radius * 1.5), rel=1e-12)

    def test_h2_minus_k_identity(self, geom):
        for theta in np.linspace(0.0, 2.0 * np.pi, 17):
            c = torus_curvatures(geom, theta)
            w = geom.w(theta)
            expected = 0.25 * (1.0 / geom.minor_radius - math.cos(theta) / w) ** 2
            assert c.h**2 - c.k == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_local_monge_representation(self, geom):
        prof = torus_profile(geom)
        for theta in (0.3, 1.0, 2.0, 2.8):  # upper half, away from equators
            rho = geom.major_radius + geom.minor_radius * math.cos(theta)
            monge = curvatures(prof, rho)
            direct = torus_curvatures(geom, theta)
            assert monge.k1 == pytest.approx(direct.k1, rel=1e-8)
            assert monge.k2 == pytest.approx(direct.k2, rel=1e-8)

    def test_dimensionless_vc_equals_quarter_inverse_f_squared(self, geom):
        # a^2 (h^2 - k) == 1/(4 F^2) exactly on the torus
        a = geom.minor_radius
        for theta in np.linspace(0.0, 2.0 * np.pi, 23):
            c = torus_curvatures(geom, theta)
            f = metric_factor_f(geom, theta)
            assert a**2 * (c.h**2 - c.k) == pytest.approx(
                0.25 / f**2, rel=1e-12
            )
