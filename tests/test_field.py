"""Vector potential frame decomposition and the magnetic surface coupling.

`vector_potential` below decomposes A = (1/2) B x r along the surface
frame; checked against the Cartesian cross product, it is the reference
for the magnetic coupling row of `hamiltonian._term_table`, which must be
2 a^2 h A_N, with h from test_geometry's `torus_curvatures`.  Lengths
are those of test_geometry's reference torus, MAJOR_RADIUS and MINOR_RADIUS.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from test_geometry import MAJOR_RADIUS, MINOR_RADIUS, torus_curvatures, w
from torusmag.field import FieldConfig, energy_scale_mev, tau_from_tesla
from torusmag.hamiltonian import _COUPLING, _ISIN, _term_table


@dataclass(frozen=True)
class SurfaceVectorPotential:
    """Vector potential components along (e_theta, e_phi, e_n)."""

    a_theta: float
    a_phi: float
    a_n: float


def field_strengths(field: FieldConfig) -> tuple[float, float]:
    """(B0, B1) in units of hbar/(e R^2) times 1/length^2."""
    r2 = MAJOR_RADIUS**2
    return field.tau0 / r2, field.tau1 / r2


def vector_potential(
    field: FieldConfig,
    theta: float,
    phi: float,
    q: float = 0.0,
) -> SurfaceVectorPotential:
    """Coulomb-gauge A at a point (theta, phi, q) near the surface.

    q is the signed distance along the surface normal and must satisfy
    |q| < a.  Note d(a_n)/dq = 0: the normal component of A is constant
    through the layer.
    """
    a, r0 = MINOR_RADIUS, MAJOR_RADIUS
    if not abs(q) < a:
        raise ValueError(f"|q| must be below the minor radius, got q={q}")
    b0, b1 = field_strengths(field)
    # Shifted frame factors: a_q = a (1 + q/a), W_q = W (1 + q cos(theta)/W).
    a_q = a + q
    w_q = w(theta) + q * math.cos(theta)
    a_theta = 0.5 * b1 * math.sin(phi) * (r0 * math.cos(theta) + a_q)
    a_phi = 0.5 * (b0 * w_q - b1 * a_q * math.sin(theta) * math.cos(phi))
    a_n = 0.5 * b1 * r0 * math.sin(phi) * math.sin(theta)
    return SurfaceVectorPotential(a_theta=a_theta, a_phi=a_phi, a_n=a_n)


def vmag_potential(field: FieldConfig, theta, phi):
    """Real magnetic coupling at (theta, phi), read from the term table.

    Its row is (-V(theta), the i sin(phi) harmonics, no derivatives), the
    term -i V(theta) sin(phi); the value is i times that term.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    al = MINOR_RADIUS / MAJOR_RADIUS
    coeff, harm, jt, jp = _term_table(al, field.tau0, field.tau1, theta)[_COUPLING]
    assert harm is _ISIN and (jt, jp) == (0, 0)
    p_phi = sum(c * np.exp(1j * m * phi) for m, c in harm.items())
    value = -coeff * p_phi.imag
    return value if value.size > 1 else float(value[0])


def cartesian_point(theta, phi, q=0.0):
    """Embedding point and the local orthonormal frame as Cartesian vectors."""
    r0, a = MAJOR_RADIUS, MINOR_RADIUS
    e_rho = np.array([math.cos(phi), math.sin(phi), 0.0])
    e_phi = np.array([-math.sin(phi), math.cos(phi), 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    e_n = math.cos(theta) * e_rho + math.sin(theta) * e_z
    e_theta = -math.sin(theta) * e_rho + math.cos(theta) * e_z
    point = (r0 + (a + q) * math.cos(theta)) * e_rho + (a + q) * math.sin(theta) * e_z
    return point, e_theta, e_phi, e_n


def cartesian_a(field, point):
    b0, b1 = field_strengths(field)
    b_vec = np.array([b1, 0.0, b0])
    return 0.5 * np.cross(b_vec, point)


class TestFieldConfig:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FieldConfig(math.nan, 0.0)
        with pytest.raises(ValueError):
            FieldConfig(0.0, math.inf)

    def test_signs_permitted(self):
        cfg = FieldConfig(-1.5, -0.5)
        assert cfg.tau0 == -1.5 and cfg.tau1 == -0.5

    def test_hermitian_unless_coupling_dropped_in_plane(self):
        assert FieldConfig(0.0, 1.0).hermitian
        assert FieldConfig(2.0, 0.0, vmag_on=False).hermitian
        assert not FieldConfig(0.0, 1.0, vmag_on=False).hermitian
        assert not FieldConfig(1.0, -0.5, vc_on=False, vmag_on=False).hermitian


class TestVectorPotential:
    def test_axial_field_has_no_theta_or_normal_component(self):
        field = FieldConfig(tau0=2.0, tau1=0.0)
        for theta, phi, q in [(0.3, 1.1, 0.0), (2.0, 4.0, 50.0), (5.1, 0.2, -80.0)]:
            a = vector_potential(field, theta, phi, q)
            assert a.a_theta == 0.0
            assert a.a_n == 0.0
            b0, _ = field_strengths(field)
            w_q = w(theta) + q * math.cos(theta)
            assert a.a_phi == pytest.approx(0.5 * b0 * w_q, rel=1e-14)

    def test_normal_component_vanishes_on_equator(self):
        field = FieldConfig(tau0=0.0, tau1=1.0)
        for phi in (0.0, 1.0, 3.0):
            assert vector_potential(field, 0.0, phi).a_n == 0.0

    def test_normal_component_independent_of_q(self):
        field = FieldConfig(tau0=0.7, tau1=1.3)
        values = {
            vector_potential(field, 0.9, 2.2, q).a_n
            for q in (-100.0, 0.0, 100.0)
        }
        assert len(values) == 1

    def test_rejects_points_outside_layer(self):
        with pytest.raises(ValueError):
            vector_potential(FieldConfig(1.0, 0.0), 0.0, 0.0, MINOR_RADIUS)

    def test_matches_cartesian_cross_product(self):
        field = FieldConfig(tau0=1.2, tau1=-0.8)
        for theta, phi, q in [(0.4, 0.9, 0.0), (2.7, 5.0, 60.0), (4.0, 2.0, -40.0)]:
            point, e_t, e_p, e_n = cartesian_point(theta, phi, q)
            a_cart = cartesian_a(field, point)
            a = vector_potential(field, theta, phi, q)
            assert a.a_theta == pytest.approx(float(a_cart @ e_t), abs=1e-14)
            assert a.a_phi == pytest.approx(float(a_cart @ e_p), abs=1e-14)
            assert a.a_n == pytest.approx(float(a_cart @ e_n), abs=1e-14)

    def test_magnitude_matches_cartesian(self):
        field = FieldConfig(tau0=0.9, tau1=1.7)
        for theta, phi in [(0.2, 0.7), (1.9, 3.3), (5.5, 4.8)]:
            point, *_ = cartesian_point(theta, phi)
            a = vector_potential(field, theta, phi)
            frame_sq = a.a_theta**2 + a.a_phi**2 + a.a_n**2
            cart_sq = float(np.sum(cartesian_a(field, point) ** 2))
            assert frame_sq == pytest.approx(cart_sq, rel=1e-10)

    def test_coulomb_gauge_divergence_free(self):
        # central-difference divergence of A = (1/2) B x r in Cartesian space
        field = FieldConfig(tau0=1.0, tau1=1.0)
        point, *_ = cartesian_point(0.8, 1.4)
        eps = 1e-3
        div = 0.0
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = eps
            div += (
                cartesian_a(field, point + step)[axis]
                - cartesian_a(field, point - step)[axis]
            ) / (2.0 * eps)
        assert div == pytest.approx(0.0, abs=1e-15)


class TestVmagPotential:
    def test_vanishes_for_axial_field(self):
        field = FieldConfig(tau0=3.0, tau1=0.0)
        theta = np.linspace(0.0, 2.0 * np.pi, 11)
        assert np.all(vmag_potential(field, theta, 1.0) == 0.0)

    def test_direct_substitution_at_tube_top(self):
        field = FieldConfig(tau0=0.0, tau1=1.6)
        value = vmag_potential(field, math.pi / 2.0, math.pi / 2.0)
        assert value == pytest.approx(field.tau1 / 4.0, rel=1e-14)

    def test_odd_in_phi(self):
        field = FieldConfig(0.0, 2.0)
        for theta, phi in [(0.7, 0.4), (2.5, 1.9)]:
            assert vmag_potential(field, theta, phi) == pytest.approx(
                -vmag_potential(field, theta, -phi), rel=1e-14
            )

    def test_equals_mean_curvature_times_normal_potential(self):
        # dimensionless identity: value == 2 a^2 h(theta) A_N(theta, phi)
        # with A_N in units hbar/(e R^2) times length
        field = FieldConfig(tau0=0.4, tau1=1.1)
        a = MINOR_RADIUS
        for theta, phi in [(0.5, 0.8), (1.7, 2.9), (3.9, 5.2), (5.8, 0.3)]:
            h = torus_curvatures(theta).h
            a_n = vector_potential(field, theta, phi).a_n
            expected = 2.0 * a**2 * h * a_n
            assert vmag_potential(field, theta, phi) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    def test_prefactor_shape(self, alpha):
        # (1 + 2 alpha cos theta)/F is the mean-curvature factor 2 a h
        al = alpha
        for theta in (0.2, 1.1, 2.6, 4.4):
            h = torus_curvatures(theta).h
            f = 1.0 + al * math.cos(theta)
            assert 2.0 * MINOR_RADIUS * h == pytest.approx(
                (1.0 + 2.0 * al * math.cos(theta)) / f, rel=1e-12
            )


class TestUnits:
    def test_tau_per_tesla_at_reference_radius(self):
        tau = tau_from_tesla(1.0, 500e-10)
        assert tau == pytest.approx(3.80, rel=2e-3)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_tau_rejects_nonfinite_field(self, b):
        with pytest.raises(ValueError, match="finite"):
            tau_from_tesla(b, 500e-10)

    def test_energy_scale_reference_value(self):
        assert energy_scale_mev(MINOR_RADIUS * 1e-10) == pytest.approx(0.061, rel=2e-2)
