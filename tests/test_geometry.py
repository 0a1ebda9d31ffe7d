"""Surface geometry: torus forms and the curvature potential.

The program describes the torus by its aspect ratio alone, through
F = 1 + alpha cos(theta).  The references here use the reference torus as
a pair of radii, MAJOR_RADIUS and MINOR_RADIUS, whose ratio is the
`alpha` fixture.  `torus_curvatures` below gives its curvatures in closed
form; the vmag reference in test_field rests on it.  The Monge formulas
for a surface of revolution, kept here as an independent reference,
cross-check it; TestCurvatures and TestGeometricPotential check the Monge
reference itself on surfaces with known answers.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusmag.basis import _primitive_gram, gram_schmidt_basis
from torusmag.cli import ConfigError, RunConfig
from torusmag.field import FieldConfig
from torusmag.hamiltonian import _CURVATURE, _term_table
from torusmag.oracle import GridSpec, grid_solve

#: The reference torus in angstrom; MINOR_RADIUS / MAJOR_RADIUS is 0.5.
MAJOR_RADIUS, MINOR_RADIUS = 500.0, 250.0


def w(theta):
    """Distance from the symmetry axis, W(theta) = R + a cos(theta)."""
    return MAJOR_RADIUS + MINOR_RADIUS * np.cos(theta)


def curvature_potential(alpha: float, theta) -> np.ndarray:
    """The program's dimensionless curvature potential, read from its term table."""
    coeff, harm, jt, jp = _term_table(alpha, 0.0, 0.0, np.atleast_1d(theta))[_CURVATURE]
    assert (harm, jt, jp) == ({0: 1.0}, 0, 0)
    return coeff.real


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


def torus_curvatures(theta: float) -> CurvatureData:
    """Curvatures of the reference torus at poloidal angle theta.

    k1 = 1/a (around the tube) and k2 = cos(theta)/W(theta); the normal
    points away from the tube axis.
    """
    k1 = 1.0 / MINOR_RADIUS
    k2 = math.cos(theta) / float(w(theta))
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
        raise ValueError(f"rho must be positive, got {rho}")
    s1, s2 = float(profile.d1(rho)), float(profile.d2(rho))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise ValueError(f"profile derivatives not finite at rho={rho}")
    z = math.sqrt(1.0 + s1 * s1)
    k1, k2 = -s2 / z**3, -s1 / (rho * z)
    return MongeCurvatures(z=z, k1=k1, k2=k2, h=0.5 * (k1 + k2), k=k1 * k2)


def geometric_potential_vc(profile: SurfaceProfile, rho: float) -> float:
    c = curvatures(profile, rho)
    return c.h**2 - c.k


def torus_profile() -> SurfaceProfile:
    """Local Monge profile of the upper half of the reference torus."""
    return circle_profile(MAJOR_RADIUS, MINOR_RADIUS)


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
        with pytest.raises(ValueError):
            curvatures(SurfaceProfile.flat(), 0.0)

    def test_rejects_nonfinite_derivative(self):
        prof = SurfaceProfile(lambda r: 0.0, lambda r: math.inf, lambda r: 0.0)
        with pytest.raises(ValueError, match="2.5"):
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

    def test_torus_top_matches_monge_evaluation(self):
        # theta = pi/2 is the top of the tube, rho = R there
        direct = torus_curvatures(math.pi / 2.0)
        via_monge = geometric_potential_vc(torus_profile(), MAJOR_RADIUS)
        expected = 0.25 * (1.0 / MINOR_RADIUS) ** 2
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
    def test_alpha_is_ratio(self, alpha):
        # the radii behind the references are the default run's torus
        assert MINOR_RADIUS / MAJOR_RADIUS == alpha == RunConfig().alpha
        assert RunConfig().major_radius == MAJOR_RADIUS

    def test_rejects_degenerate_tori(self):
        # a = R (alpha = 1) touches the axis; a negative R gives alpha < 0
        for alpha in (1.0, -0.5, 0.0, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                gram_schmidt_basis(alpha)
            with pytest.raises(ValueError, match="alpha"):
                grid_solve(alpha, FieldConfig(0.0, 0.0), GridSpec(16, 16))
            with pytest.raises(ConfigError, match="alpha"):
                RunConfig(alpha=alpha)
        with pytest.raises(ConfigError, match="radii"):
            RunConfig(major_radius=-1.0)

    def test_metric_factor_values(self, alpha):
        # the curvature potential 1/(4 F^2) carries F(0) = 1.5, F(pi) = 0.5
        vc = curvature_potential(alpha, np.array([0.0, math.pi]))
        assert np.sqrt(0.25 / vc) == pytest.approx([1.5, 0.5], rel=1e-14)

    def test_metric_factor_integrates_to_two_pi(self, alpha):
        # the closed-form Gram entry of the constant primitive is the
        # integral of F over one period
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        integral = np.mean(1.0 + alpha * np.cos(theta)) * 2.0 * np.pi
        assert integral == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert _primitive_gram(alpha, False, 1)[0, 0] == pytest.approx(
            integral, rel=1e-12
        )

    def test_metric_factor_equals_w_over_r(self, alpha):
        for theta in (0.1, 2.0, 4.5):
            assert 1.0 + alpha * math.cos(theta) == pytest.approx(
                w(theta) / MAJOR_RADIUS, rel=1e-14
            )


class TestTorusCurvatures:
    def test_tube_top(self):
        c = torus_curvatures(math.pi / 2.0)
        assert c.k1 == pytest.approx(1.0 / MINOR_RADIUS)
        assert c.k2 == pytest.approx(0.0, abs=1e-15)
        assert c.k == pytest.approx(0.0, abs=1e-15)

    def test_outer_equator(self):
        c = torus_curvatures(0.0)
        # k2 = cos(0)/W(0) = 1/(R * F(0)) with F(0) = 1.5
        assert c.k2 == pytest.approx(1.0 / (MAJOR_RADIUS * 1.5), rel=1e-12)

    def test_h2_minus_k_identity(self):
        for theta in np.linspace(0.0, 2.0 * np.pi, 17):
            c = torus_curvatures(theta)
            expected = 0.25 * (1.0 / MINOR_RADIUS - math.cos(theta) / w(theta)) ** 2
            assert c.h**2 - c.k == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_local_monge_representation(self):
        prof = torus_profile()
        for theta in (0.3, 1.0, 2.0, 2.8):  # upper half, away from equators
            rho = MAJOR_RADIUS + MINOR_RADIUS * math.cos(theta)
            monge = curvatures(prof, rho)
            direct = torus_curvatures(theta)
            assert monge.k1 == pytest.approx(direct.k1, rel=1e-8)
            assert monge.k2 == pytest.approx(direct.k2, rel=1e-8)

    def test_dimensionless_vc_equals_quarter_inverse_f_squared(self, alpha):
        # a^2 (h^2 - k) == 1/(4 F^2) exactly on the torus; the right side is
        # the program's curvature potential
        theta = np.linspace(0.0, 2.0 * np.pi, 23)
        vc = curvature_potential(alpha, theta)
        for t, expected in zip(theta, vc):
            c = torus_curvatures(t)
            assert MINOR_RADIUS**2 * (c.h**2 - c.k) == pytest.approx(
                expected, rel=1e-12
            )
