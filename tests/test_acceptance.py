"""Acceptance suite: one test (or parametrized group) per criterion.

Criterion 1  basis regression against the printed and closed-form values
Criterion 2  axial-field ground-state table at tau = 0, 1, 2
Criterion 3  tilted-field table and the on/off vs on/on energy divergence
Criterion 4  in-plane table and the zero-circulation property
Criterion 5  basis pipeline against the independent grid oracle
Criterion 6  operator and solver property suite
Criterion 7  figure-shape substitutes (crossover kink, curve separation)

Published table amplitudes are compared in magnitude after global-phase
alignment at the stated tolerances.  Comparisons are parametrized one
amplitude per test so that disagreements localize precisely.

The torus and a uniform field are invariant under the inversion
(theta, phi) -> (-theta, phi + pi), so a non-degenerate eigenstate lies in
one sector, labelled (nu + [kind == g]) mod 2.  In the published in-plane
on/on tau = 2 state the dominant rows f0 and g1 i sin(phi) lie in one
sector and f1 cos(phi) in the other, so that row must vanish; it asserts 0
and keeps the published value beside it.  Every other row asserts its
published value.
"""

import math

import numpy as np
import pytest

from torusmag.basis import gram_schmidt_basis
from torusmag.cli import RunConfig, _field_grounds
from torusmag.field import FieldConfig
from torusmag.hamiltonian import VARIANTS
from torusmag.oracle import GridSpec, grid_solve
from torusmag.solver import ground_state_composition

from helpers import (amplitude, assemble_variant, circulation, hermiticity_defect,
                     operator_matrix, residual, solve_ground, spectrum)

SQRT2 = math.sqrt(2.0)


def split(orientation: str, tau: float) -> tuple[float, float]:
    return {
        "axial": (tau, 0.0),
        "tilted": (tau / SQRT2, tau / SQRT2),
        "in_plane": (0.0, tau),
    }[orientation]


class PointCache:
    """Solve each (orientation, tau) field once, as the commands do: all
    three variants from one assembly, through `cli._field_grounds`."""

    def __init__(self, basis):
        self.basis = basis
        self._store = {}

    def solve(self, orientation, tau, vc, vmag):
        key = (orientation, tau)
        if key not in self._store:
            cfg = RunConfig(orientation=orientation)
            grounds = _field_grounds(cfg, self.basis, [tau], len(VARIANTS))
            self._store[key] = {
                (vc_on, vmag_on): (g.eps0, ground_state_composition(g.vector, self.basis))
                for (_, vc_on, vmag_on), (_, _, g) in zip(VARIANTS, grounds)
            }
        return self._store[key][vc, vmag]

    def eps0(self, orientation, tau, vc, vmag):
        return self.solve(orientation, tau, vc, vmag)[0]

    def comp(self, orientation, tau, vc, vmag):
        return self.solve(orientation, tau, vc, vmag)[1]


@pytest.fixture(scope="module")
def points(basis):
    return PointCache(basis)


class TestCriterion1BasisRegression:
    def test_printed_values_within_2e3(self, basis):
        f0 = basis.even[0]
        f1 = basis.even[1]
        g1 = basis.odd[0]
        assert f0[0] == pytest.approx(0.3987, abs=2e-3)
        assert f1[1] == pytest.approx(0.6031, abs=2e-3)
        assert f1[0] == pytest.approx(-0.1508, abs=2e-3)
        assert g1[0] == pytest.approx(0.5642, abs=2e-3)

    def test_closed_forms_within_1e10(self, basis):
        scale = 1.0 / math.sqrt(0.875 * math.pi)
        assert basis.even[0, 0] == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-10
        )
        assert basis.even[1, 1] == pytest.approx(scale, abs=1e-10)
        assert basis.even[1, 0] == pytest.approx(
            -0.25 * scale, abs=1e-10
        )
        assert basis.odd[0, 0] == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-10
        )


def _magnitude(comp, kind, n, nu):
    return abs(amplitude(comp, (kind, n, nu)))


def _sin_coeff(comp, kind, n, m):
    """Magnitude of the i sin(m phi) coefficient of the nu = +/-m pair."""
    cp = amplitude(comp, (kind, n, m))
    cm = amplitude(comp, (kind, n, -m))
    return abs(cp - cm)


def _cos_coeff(comp, kind, n, m):
    cp = amplitude(comp, (kind, n, m))
    cm = amplitude(comp, (kind, n, -m))
    return abs(cp + cm)


class TestCriterion2AxialTable:
    """Published axial-field ground states, tolerance 0.01 in magnitude."""

    def test_offoff_tau0_is_constant(self, points):
        comp = points.comp("axial", 0.0, False, False)
        assert _magnitude(comp, "f", 0, 0) == pytest.approx(1.0, abs=0.01)

    def test_offoff_tau1_near_constant(self, points):
        comp = points.comp("axial", 1.0, False, False)
        assert _magnitude(comp, "f", 0, 0) > 0.99

    def test_offoff_tau2_has_nu_minus_one_character(self, points):
        assert points.comp("axial", 2.0, False, False).dominant_nu() == -1

    @pytest.mark.parametrize(
        "tau,vc,kind,n,nu,published",
        [
            (2.0, False, "f", 0, -1, 0.969),
            (2.0, False, "f", 1, -1, 0.245),
            (0.0, True, "f", 0, 0, 0.968),
            (0.0, True, "f", 1, 0, 0.244),
            (1.0, True, "f", 0, 0, 0.957),
            (1.0, True, "f", 1, 0, 0.254),
            (2.0, True, "f", 0, -1, 0.987),
            (2.0, True, "f", 1, -1, 0.158),
        ],
        ids=[
            "offoff-tau2-f0", "offoff-tau2-f1",
            "onoff-tau0-f0", "onoff-tau0-f1",
            "onoff-tau1-f0", "onoff-tau1-f1",
            "onoff-tau2-f0", "onoff-tau2-f1",
        ],
    )
    def test_amplitudes(self, points, tau, vc, kind, n, nu, published):
        comp = points.comp("axial", tau, vc, False)
        assert _magnitude(comp, kind, n, nu) == pytest.approx(published, abs=0.01)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 2.0])
    def test_magnetic_toggle_is_entrywise_noop(self, basis, tau):
        on = assemble_variant(FieldConfig(tau, 0.0, vmag_on=True), basis)
        off = assemble_variant(FieldConfig(tau, 0.0, vmag_on=False), basis)
        assert np.array_equal(on, off)


class TestCriterion3TiltedTable:
    """Published tilted-field on/on states, tolerance 0.02 in magnitude.

    The published tau = 2 state puts weight 0.95 in the inversion sector of
    f0 nu = -1 and 0.05 in that of f0 nu = 0, so it is not an eigenstate.
    The computed ground state lies wholly in the f0 nu = 0 sector, so it
    differs from the published one as a whole, not by a stray row; all
    four rows assert their published values.
    """

    @pytest.mark.parametrize(
        "tau,kind,n,nu,published",
        [
            (1.0, "f", 0, 0, 0.957),
            (1.0, "f", 1, 0, 0.232),
            (1.0, "g", 1, 1, 0.094),
            (1.0, "g", 1, -1, 0.127),
            (2.0, "f", 0, -1, 0.909),
            (2.0, "f", 0, 0, 0.126),
            (2.0, "g", 1, -1, 0.173),
            (2.0, "g", 1, 0, 0.351),
        ],
        ids=[
            "tau1-f0", "tau1-f1", "tau1-g1-eplus", "tau1-g1-eminus",
            "tau2-f0-eminus", "tau2-f0", "tau2-g1-eminus", "tau2-g1",
        ],
    )
    def test_amplitudes(self, points, tau, kind, n, nu, published):
        comp = points.comp("tilted", tau, True, True)
        assert _magnitude(comp, kind, n, nu) == pytest.approx(published, abs=0.02)

    def test_energy_divergence_strict_at_tau2(self, points):
        on = points.eps0("tilted", 2.0, True, True)
        off = points.eps0("tilted", 2.0, True, False)
        # physical energy -eps: the magnetic coupling pulls the ground
        # energy down, so raw eps(on/on) is strictly larger
        assert on > off

    def test_divergence_grows_with_tau(self, points):
        gap1 = abs(
            points.eps0("tilted", 1.0, True, True)
            - points.eps0("tilted", 1.0, True, False)
        )
        gap2 = abs(
            points.eps0("tilted", 2.0, True, True)
            - points.eps0("tilted", 2.0, True, False)
        )
        assert gap2 > gap1


class TestCriterion4InPlaneTable:
    """Published in-plane states, tolerance 0.02, plus zero circulation.

    In the published on/on tau = 2 state, f1 cos(phi) lies in the other
    inversion sector from the dominant rows f0 and g1 i sin(phi), so an
    eigenstate led by those rows has no f1 cos(phi) part: that row expects
    0 instead of the published 0.250.  Every other row expects its
    published value.
    """

    @pytest.mark.parametrize(
        "tau,vc,vmag,checker,args,expected",
        [
            (1.0, False, False, _magnitude, ("f", 0, 0), 0.978),
            (1.0, False, False, _sin_coeff, ("g", 1, 1), 0.279),
            (2.0, False, False, _magnitude, ("f", 0, 0), 0.894),
            (2.0, False, False, _magnitude, ("f", 1, 0), 0.133),
            (2.0, False, False, _sin_coeff, ("g", 1, 1), 0.552),
            (1.0, True, False, _magnitude, ("f", 0, 0), 0.964),
            (1.0, True, False, _magnitude, ("f", 1, 0), 0.218),
            (2.0, True, False, _magnitude, ("f", 0, 0), 0.941),
            (2.0, True, False, _magnitude, ("f", 1, 0), 0.132),
            (2.0, True, False, _sin_coeff, ("g", 1, 1), 0.403),
            (1.0, True, True, _magnitude, ("f", 0, 0), 0.954),
            (1.0, True, True, _magnitude, ("f", 1, 0), 0.178),
            (1.0, True, True, _sin_coeff, ("g", 1, 1), 0.320),
            (2.0, True, True, _magnitude, ("f", 0, 0), 0.869),
            # published 0.250, but the published state mixes both
            # inversion sectors; its dominant rows fix the sector
            (2.0, True, True, _cos_coeff, ("f", 1, 1), 0.0),
            (2.0, True, True, _sin_coeff, ("g", 1, 1), 0.314),
        ],
        ids=[
            "offoff-tau1-f0", "offoff-tau1-g1sin",
            "offoff-tau2-f0", "offoff-tau2-f1", "offoff-tau2-g1sin",
            "onoff-tau1-f0", "onoff-tau1-f1",
            "onoff-tau2-f0", "onoff-tau2-f1", "onoff-tau2-g1sin",
            "onon-tau1-f0", "onon-tau1-f1", "onon-tau1-g1sin",
            "onon-tau2-f0", "onon-tau2-f1cos", "onon-tau2-g1sin",
        ],
    )
    def test_amplitudes(self, points, tau, vc, vmag, checker, args, expected):
        comp = points.comp("in_plane", tau, vc, vmag)
        assert checker(comp, *args) == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_offoff_ground_state_has_no_net_circulation(self, points, tau):
        comp = points.comp("in_plane", tau, False, False)
        assert abs(circulation(comp)) < 1e-8


class TestCriterion5OracleEquivalence:
    @pytest.mark.parametrize("orientation", ["axial", "tilted", "in_plane"])
    @pytest.mark.parametrize("tau", [0.0, 1.0, 2.0])
    def test_nine_point_agreement(self, alpha, points, orientation, tau):
        eps_basis = points.eps0(orientation, tau, True, True)
        t0, t1 = split(orientation, tau)
        eps_grid = float(grid_solve(alpha, FieldConfig(t0, t1), GridSpec(64, 32))[0])
        tol = max(1e-3, 1e-3 * abs(eps_basis))
        assert abs(eps_basis - eps_grid) <= tol


class TestCriterion6Properties:
    @pytest.mark.parametrize(
        "tau0,tau1,vc,vmag",
        [(0.0, 0.0, True, True), (2.0, 0.0, True, True),
         (1.0, 1.0, True, True), (0.0, 2.0, False, True)],
    )
    def test_hermiticity(self, basis, tau0, tau1, vc, vmag):
        h = operator_matrix(FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag), basis)
        assert hermiticity_defect(h) < 1e-10

    def test_basis_orthonormality(self, basis):
        from test_basis import basis_gram

        gram = basis_gram(basis)
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_block_decoupling_at_axial_field(self, basis):
        h = assemble_variant(FieldConfig(1.5, 0.0), basis)
        worst = 0.0
        labels = basis.labels()
        for i, (ki, _, nui) in enumerate(labels):
            for j, (kj, _, nuj) in enumerate(labels):
                if nui != nuj or ki != kj:
                    worst = max(worst, abs(h[i, j]))
        assert worst < 1e-12

    def test_field_reversal_spectrum_invariance(self, basis):
        fwd, _ = spectrum(assemble_variant(FieldConfig(1.3, 0.7), basis))
        rev, _ = spectrum(assemble_variant(FieldConfig(-1.3, -0.7), basis))
        assert np.max(np.abs(fwd - rev)) < 1e-10

    def test_variational_monotonicity(self, alpha):
        field = FieldConfig(1.0, 1.0)
        raw = []
        for ne, no, nur in [(3, 3, (-1, 1)), (4, 4, (-2, 2)), (6, 6, (-2, 2))]:
            b = gram_schmidt_basis(alpha, n_even=ne, n_odd=no, nu_range=nur)
            raw.append(solve_ground(assemble_variant(field, b), b).eps0)
        # physical E = -eps must not increase as the basis grows
        assert raw[0] <= raw[1] + 1e-12 <= raw[2] + 2e-12

    @pytest.mark.parametrize(
        "tau0,tau1", [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 2.0)]
    )
    def test_eigenpair_residuals(self, basis, tau0, tau1):
        h = assemble_variant(FieldConfig(tau0, tau1), basis)
        assert residual(solve_ground(h, basis), h) < 1e-8


class TestCriterion7FigureShapes:
    def _crossover(self, points, vc):
        taus = np.arange(0.0, 2.0001, 0.05)
        previous = points.comp("axial", float(taus[0]), vc, False).dominant_nu()
        for tau in taus[1:]:
            current = points.comp("axial", float(tau), vc, False).dominant_nu()
            if current != previous:
                return float(tau)
            previous = current
        return None

    def test_axial_crossover_near_tau_one_without_vc(self, points):
        tau_star = self._crossover(points, vc=False)
        assert tau_star is not None
        assert 0.9 <= tau_star <= 1.3

    def test_vc_postpones_the_crossover(self, points):
        bare = self._crossover(points, vc=False)
        dressed = self._crossover(points, vc=True)
        # the curvature potential smooths the kink near tau = 1: either no
        # crossover inside the window or one well beyond it
        assert dressed is None or dressed > bare + 0.3

    def test_inplane_curves_separate_quickly(self, points):
        gap_small = abs(
            points.eps0("in_plane", 0.25, True, True)
            - points.eps0("in_plane", 0.25, True, False)
        )
        gap_one = abs(
            points.eps0("in_plane", 1.0, True, True)
            - points.eps0("in_plane", 1.0, True, False)
        )
        assert gap_one > gap_small

    def test_inplane_bare_curve_has_no_circulation_structure(self, points):
        for tau in (0.5, 1.0, 1.5, 2.0):
            comp = points.comp("in_plane", tau, False, False)
            assert abs(circulation(comp)) < 1e-8
            assert comp.dominant_nu() == 0
