"""Spectral grid discretization cross-validating the basis pipeline."""

import numpy as np
import pytest

from torusmag.field import FieldConfig
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
        field = FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False)
        result = grid_solve(geom, field, GridSpec(32, 16), k=1)
        assert result.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
        psi = result.eigenfunctions[0]
        assert np.std(np.abs(psi)) / np.mean(np.abs(psi)) < 1e-6

    def test_operator_hermitian_after_transform(self, geom):
        field = FieldConfig(1.0, 1.0)
        result = grid_solve(geom, field, GridSpec(32, 16), k=1)
        assert result.metadata["hermiticity_defect"] < 1e-10

    def test_axial_states_have_single_azimuthal_harmonic(self, geom):
        field = FieldConfig(2.0, 0.0)
        result = grid_solve(geom, field, GridSpec(32, 16), k=2)
        for i in range(2):
            weights = result.phi_harmonic_weights(i)
            assert np.sort(weights)[-1] > 1.0 - 1e-6

    def test_matches_basis_solution_field_free(self, geom, basis):
        field = FieldConfig(0.0, 0.0, vc_on=True, vmag_on=True)
        eps_basis = eigensolve(assemble(geom, field, basis)).ground()[0]
        result = grid_solve(geom, field, GridSpec(64, 16), k=1)
        assert result.eigenvalues[0] == pytest.approx(eps_basis, rel=1e-3)

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

    def test_refuses_non_hermitian_variant(self, geom):
        with pytest.raises(UnsupportedVariantError):
            grid_solve(geom, FieldConfig(0.0, 1.0, vmag_on=False), GridSpec(32, 16))

    def test_coarse_grid_fails_refinement_check(self, geom):
        # a strong in-plane field localizes the state enough that a
        # 16-point spectral grid is visibly unconverged
        field = FieldConfig(0.0, 20.0)
        with pytest.raises(AccuracyError, match="refinement"):
            grid_solve(geom, field, GridSpec(16, 16), k=1, refine=True)

    def test_refinement_passes_at_production_grid(self, geom):
        field = FieldConfig(1.0, 0.0)
        result = grid_solve(geom, field, GridSpec(64, 16), k=1, refine=True)
        assert result.metadata["refined"]
