"""Spectral grid discretization cross-validating the basis pipeline."""

import numpy as np
import pytest

from torusmag.field import FieldConfig
from torusmag.geometry import metric_factor_f
from torusmag.hamiltonian import assemble
from torusmag.oracle import (
    AccuracyError,
    GridSpec,
    UnsupportedVariantError,
    _build_operator,
    fourier_diff_matrix,
    grid_solve,
)
from torusmag.solver import eigensolve


class TestGridSpec:
    def test_rejects_odd_or_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(15, 32)
        with pytest.raises(ValueError):
            GridSpec(64, 8)
        with pytest.raises(ValueError):
            GridSpec(33, 32)

    def test_default_is_valid(self):
        grid = GridSpec()
        assert grid.n_theta == 64 and grid.n_phi == 32


class TestDifferentiationMatrices:
    def test_first_derivative_exact_on_harmonics(self):
        n = 32
        d = fourier_diff_matrix(n, 1)
        x = np.arange(n) * 2.0 * np.pi / n
        for m in (1, 3, 7):
            assert np.allclose(d @ np.sin(m * x), m * np.cos(m * x), atol=1e-10)

    def test_second_derivative_exact_on_harmonics(self):
        n = 32
        d = fourier_diff_matrix(n, 2)
        x = np.arange(n) * 2.0 * np.pi / n
        for m in (2, 5):
            assert np.allclose(d @ np.cos(m * x), -(m**2) * np.cos(m * x), atol=1e-9)

    def test_first_derivative_antisymmetric(self):
        d = fourier_diff_matrix(24, 1)
        assert np.max(np.abs(d + d.T)) < 1e-12


class TestGridSolve:
    def test_free_particle_ground_state(self, geom):
        # at zero field with both potentials off the flat state is the
        # ground state; the similarity transform turns it into sqrt(F)
        field = FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False)
        grid = GridSpec(32, 16)
        assert grid_solve(geom, field, grid)[0] == pytest.approx(0.0, abs=1e-8)
        theta = np.arange(grid.n_theta) * 2.0 * np.pi / grid.n_theta
        flat = np.repeat(np.sqrt(metric_factor_f(geom, theta)), grid.n_phi)
        m = _build_operator(geom, field, grid)
        assert np.linalg.norm(m @ flat) / np.linalg.norm(flat) < 1e-6

    def test_operator_hermitian_after_transform(self, geom):
        m = _build_operator(geom, FieldConfig(1.0, 1.0), GridSpec(32, 16))
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_axial_states_have_single_azimuthal_harmonic(self, geom):
        # an operator invariant under phi -> phi + one grid step conserves
        # nu, so each non-degenerate state holds a single harmonic; an
        # in-plane component breaks the invariance at O(1)
        grid = GridSpec(32, 16)
        j = (np.arange(grid.n_phi) + 1) % grid.n_phi
        perm = (np.arange(grid.n_theta)[:, None] * grid.n_phi + j).ravel()

        def shift_defect(field):
            m = _build_operator(geom, field, grid)
            return np.max(np.abs(m[np.ix_(perm, perm)] - m))

        assert shift_defect(FieldConfig(2.0, 0.0)) < 1e-12
        assert shift_defect(FieldConfig(0.0, 2.0)) > 0.1

    def test_matches_basis_solution_field_free(self, geom, basis):
        field = FieldConfig(0.0, 0.0, vc_on=True, vmag_on=True)
        eps_basis = eigensolve(assemble(geom, field, basis)).ground()[0]
        eps_grid = grid_solve(geom, field, GridSpec(64, 16))[0]
        assert eps_grid == pytest.approx(eps_basis, rel=1e-3)

    @pytest.mark.parametrize(
        "field", [FieldConfig(1.3, 0.7), FieldConfig(0.0, 2.0, vc_on=False)]
    )
    def test_operator_commutes_with_inversion(self, geom, field):
        # (theta, phi) -> (-theta, phi + pi) permutes the grid points
        # (i, j) -> (-i, j + n_phi/2); the operator must be invariant
        grid = GridSpec(32, 16)
        m = _build_operator(geom, field, grid)
        i = -np.arange(grid.n_theta) % grid.n_theta
        j = (np.arange(grid.n_phi) + grid.n_phi // 2) % grid.n_phi
        perm = (i[:, None] * grid.n_phi + j[None, :]).ravel()
        assert np.max(np.abs(m[np.ix_(perm, perm)] - m)) < 1e-12

    @pytest.mark.parametrize(
        "tau0,tau1", [(1.3, 0.7), (0.0, 2.0), (2.0, 0.0)]
    )
    def test_field_reversal_conjugates_operator(self, geom, tau0, tau1):
        grid = GridSpec(32, 16)
        m = _build_operator(geom, FieldConfig(tau0, tau1), grid)
        m_rev = _build_operator(geom, FieldConfig(-tau0, -tau1), grid)
        assert np.max(np.abs(m_rev - m.conj())) < 1e-12

    def test_refuses_non_hermitian_variant(self, geom):
        with pytest.raises(UnsupportedVariantError):
            grid_solve(geom, FieldConfig(0.0, 1.0, vmag_on=False), GridSpec(32, 16))

    def test_coarse_grid_fails_refinement_check(self, geom):
        # a strong in-plane field localizes the state enough that a
        # 16-point spectral grid is visibly unconverged
        field = FieldConfig(0.0, 20.0)
        with pytest.raises(AccuracyError, match="refinement"):
            grid_solve(geom, field, GridSpec(16, 16), refine=True)

    def test_refinement_passes_at_production_grid(self, geom):
        # no AccuracyError: the doubled grid agrees to refine_tol, and the
        # coarse grid's whole spectrum comes back, ground state first
        field = FieldConfig(1.0, 0.0)
        eps = grid_solve(geom, field, GridSpec(64, 16), refine=True)
        assert eps.shape == (64 * 16,)
        assert eps[0] == np.max(eps)
