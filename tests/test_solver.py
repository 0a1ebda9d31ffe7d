"""Eigendecomposition, ground-state selection, composition analysis."""

import numpy as np
import pytest

from torusmag.basis import gram_schmidt_basis
from torusmag.cli import main
from torusmag.field import FieldConfig
from torusmag.solver import (
    ComplexGroundError,
    HermiticityError,
    SpectrumResult,
    eigensolve,
    eigensolve_general,
    ground_state_composition,
)

from helpers import amplitude, assemble_variant, circulation, norm_sq, residuals


def toy_matrix(entries):
    return np.asarray(entries, dtype=complex)


def one_block(h):
    """Sector labels that put every state of h in one sector."""
    return np.zeros(len(h), dtype=int)


class TestEigensolve:
    def test_two_by_two_closed_form(self):
        a, c = 1.0, 3.0
        b = 0.5 - 0.25j
        h = toy_matrix([[a, b], [np.conj(b), c]])
        s = eigensolve(h)
        disc = np.sqrt(((a - c) / 2.0) ** 2 + abs(b) ** 2)
        expected = [(a + c) / 2.0 - disc, (a + c) / 2.0 + disc]
        assert np.allclose(s.eigenvalues, expected, atol=1e-12)

    def test_refuses_non_hermitian(self, basis, capsys):
        h = toy_matrix([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityError, match="eigensolve_general"):
            eigensolve(h)
        # the bound is relative to max|H|: rounding in a Hermitian H at a
        # huge tilted field passes, the coupling-off variant never does
        for tau in (1e5, 1e7):
            eigensolve(assemble_variant(FieldConfig(tau / np.sqrt(2), tau / np.sqrt(2)), basis))
        assert main(["table", "--orientation", "tilted", "--tau", "1e5"]) == 0
        for tau1 in (1e-6, 1e7):
            h = assemble_variant(FieldConfig(0.0, tau1, vc_on=True, vmag_on=False), basis)
            with pytest.raises(HermiticityError, match="eigensolve_general"):
                eigensolve(h)

    def test_eigenvalues_ascending_and_orthonormal(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(1.0, 0.5), basis))
        assert np.all(np.diff(s.eigenvalues) >= 0.0)
        overlap = s.eigenvectors.conj().T @ s.eigenvectors
        assert np.max(np.abs(overlap - np.eye(len(basis.labels())))) < 1e-8

    def test_residuals_small(self, basis):
        h = assemble_variant(FieldConfig(0.9, 1.4), basis)
        s = eigensolve(h)
        assert np.max(residuals(s, h)) < 1e-8

    def test_constant_mode_at_zero_field(self, basis):
        h = assemble_variant(FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False), basis)
        s = eigensolve(h)
        eps0, vec = s.ground()
        assert eps0 == pytest.approx(0.0, abs=1e-10)
        i = basis.labels().index(("f", 0, 0))
        assert abs(vec[i]) == pytest.approx(1.0, abs=1e-8)

    def test_axial_eigenvectors_single_nu(self, basis):
        h = assemble_variant(FieldConfig(1.3, 0.0), basis)
        s = eigensolve(h)
        labels = basis.labels()
        for col in range(len(labels)):
            weights = {}
            for i, (_, _, nu) in enumerate(labels):
                weights[nu] = weights.get(nu, 0.0) + abs(s.eigenvectors[i, col]) ** 2
            assert max(weights.values()) == pytest.approx(1.0, abs=1e-10)


class TestEigensolveGeneral:
    def test_matches_hermitian_solver_on_hermitian_input(self, basis):
        h = assemble_variant(FieldConfig(0.6, 1.1), basis)
        sh = eigensolve(h)
        sg = eigensolve_general(h, basis.sectors)
        assert np.max(np.abs(sh.eigenvalues - sg.eigenvalues)) < 1e-8
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-10

    def test_handles_magnetic_coupling_off_variant(self, basis):
        h = assemble_variant(FieldConfig(0.0, 1.0, vc_on=False, vmag_on=False), basis)
        s = eigensolve_general(h, basis.sectors)
        # antiunitary symmetry (conjugation with phi -> -phi) keeps the low
        # spectrum real
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-8
        eps0, _ = s.ground()
        assert eps0 == pytest.approx(-0.050844, abs=1e-5)

    def test_refuses_complex_ground_eigenvalue(self):
        # eigenvalues +i and -i: the ground (largest real part) is not real
        h = toy_matrix([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ComplexGroundError, match="imaginary part 1.000e"):
            eigensolve_general(h, one_block(h))

    @pytest.mark.parametrize(
        "field",
        [FieldConfig(0.0, 2.0, vc_on=False, vmag_on=False),
         FieldConfig(0.0, 2.5, vc_on=True, vmag_on=False),
         FieldConfig(1.2, 0.9, vc_on=False, vmag_on=False),
         FieldConfig(1.2, 0.9, vc_on=True, vmag_on=False)],
    )
    def test_real_solve_matches_complex_reference(self, basis, field):
        # assembled H is exactly real, so the solve runs in real arithmetic,
        # one inversion sector at a time; the reference is the complex
        # general solve of the whole matrix
        h = assemble_variant(field, basis)
        assert h.dtype == complex and not field.hermitian
        s = eigensolve_general(h, basis.sectors)
        assert s.eigenvectors.dtype == np.float64
        w, v = np.linalg.eig(h)
        order = np.argsort(w.real, kind="stable")
        ref = SpectrumResult(w.real[order], (v / np.linalg.norm(v, axis=0))[:, order])
        assert np.max(np.abs(s.eigenvalues - ref.eigenvalues)) < 1e-12
        got = ground_state_composition(s, basis)
        want = ground_state_composition(ref, basis)
        assert np.max(np.abs(got.amps - want.amps)) < 1e-12

    def test_genuinely_complex_matrix(self):
        h = toy_matrix([[1.0, 1j], [0.0, 2.0]])
        s = eigensolve_general(h, one_block(h))
        assert np.allclose(s.eigenvalues, [1.0, 2.0], atol=1e-12)
        eps0, vec = s.ground()
        assert eps0 == pytest.approx(2.0, abs=1e-12)
        # the ground eigenvector (i, 1)/sqrt(2) is not real in any phase
        assert abs(vec[0] / vec[1] - 1j) < 1e-12
        assert np.max(residuals(s, h)) < 1e-12

    def test_complex_excited_pair_is_accepted(self):
        # a real ground level above a conjugate pair 0 +/- 0.5i
        h = toy_matrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
        s = eigensolve_general(h, one_block(h))
        assert s.ground()[0] == pytest.approx(1.0, abs=1e-12)


class TestSectorSplit:
    """The general solve runs on each inversion sector's block alone."""

    @pytest.mark.parametrize("tau1", [1.0, -2.5])
    def test_ground_vector_is_exactly_zero_in_the_other_sector(self, basis, tau1):
        h = assemble_variant(FieldConfig(0.4, tau1, vc_on=True, vmag_on=False), basis)
        _, vec = eigensolve_general(h, basis.sectors).ground()
        own = basis.sectors == basis.sectors[np.argmax(np.abs(vec))]
        assert np.all(vec[~own] == 0.0)
        assert np.linalg.norm(vec[own]) == pytest.approx(1.0, abs=1e-14)

    def test_cross_sector_entry_raises(self, basis):
        h = assemble_variant(FieldConfig(0.0, 1.0, vc_on=False, vmag_on=False), basis)
        a, b = np.flatnonzero(basis.sectors == 0)[3], np.flatnonzero(basis.sectors == 1)[5]
        h = h.copy()
        h[a, b] += 1e-6
        # the bound is 1e-12 * max|H|, about 4e-11 here
        with pytest.raises(ArithmeticError, match=r"couples the inversion sectors: "
                           r"max\|H_AB\| = 1\.000e-06 exceeds 3\.8e-11"):
            eigensolve_general(h, basis.sectors)

    def test_complex_level_in_one_block_passes_unless_it_is_the_ground(self):
        # sector A holds one real level, sector B the pair +/- i
        sector = np.array([0, 1, 1])
        pair = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
        h = toy_matrix(pair) + np.diag([5.0, 0.0, 0.0])
        assert eigensolve_general(h, sector).ground()[0] == 5.0
        h = toy_matrix(pair) + np.diag([-5.0, 0.0, 0.0])
        with pytest.raises(ComplexGroundError, match="imaginary part 1.000e"):
            eigensolve_general(h, sector)


class TestComposition:
    def test_ground_selector_takes_max_raw_eigenvalue(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(1.0, 0.0), basis))
        eps0, _ = s.ground()
        assert eps0 == np.max(s.eigenvalues)

    def test_norm_preserved(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(0.8, 0.8), basis))
        comp = ground_state_composition(s, basis)
        assert norm_sq(comp) == pytest.approx(1.0, abs=1e-10)

    def test_global_phase_fixed(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(1.9, 0.4), basis))
        comp = ground_state_composition(s, basis)
        lead = comp.amps.flat[np.argmax(np.abs(comp.amps))]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0

    def test_zero_field_composition(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(0.0, 0.0), basis))
        comp = ground_state_composition(s, basis)
        assert abs(amplitude(comp, ("f", 0, 0))) == pytest.approx(0.968, abs=2e-3)
        assert abs(amplitude(comp, ("f", 1, 0))) == pytest.approx(0.244, abs=2e-3)
        assert comp.dominant_nu() == 0

    def test_axial_crossover_state_has_nu_minus_one(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(2.0, 0.0), basis))
        comp = ground_state_composition(s, basis)
        assert comp.dominant_nu() == -1
        assert circulation(comp) == pytest.approx(-1.0, abs=1e-8)

    def test_real_combinations_group_sin_pairs(self, basis):
        h = assemble_variant(FieldConfig(0.0, 2.0), basis)
        comp = ground_state_composition(eigensolve(h), basis)
        rows = {(k, n, m): amp for k, n, m, amp in comp.real_combinations()}
        # g1 appears as an i sin(phi) combination: amplitudes at nu = +/-1
        # with opposite signs
        cp = amplitude(comp, ("g", 1, 1))
        cm = amplitude(comp, ("g", 1, -1))
        assert ("g", 1, -1) in rows
        assert rows[("g", 1, -1)] == pytest.approx(cp - cm, abs=1e-12)

    @pytest.mark.parametrize(
        "shape", [None, (4, 0, (-1, 3))], ids=["default", "even-only-skew-nu"]
    )
    def test_amps_follow_basis_labels(self, basis, shape):
        if shape is not None:
            basis = gram_schmidt_basis(0.5, *shape)
        s = eigensolve(assemble_variant(FieldConfig(0.7, 1.3), basis))
        comp = ground_state_composition(s, basis)
        _, vec = s.ground()
        top = np.argmax(np.abs(vec))
        vec = vec / (vec[top] / abs(vec[top]))
        labels = basis.labels()
        assert comp.amps.shape == (len(comp.functions), len(comp.nus))
        for i, (kind, n) in enumerate(comp.functions):
            for j, nu in enumerate(comp.nus):
                assert comp.amps[i, j] == vec[labels.index((kind, n, nu))]

    def test_format_text_mentions_dominant_function(self, basis):
        s = eigensolve(assemble_variant(FieldConfig(0.0, 0.0), basis))
        text = ground_state_composition(s, basis).format_text()
        assert "f0" in text and "f1" in text


class TestVariationalBehaviour:
    def test_ground_energy_monotone_under_basis_enlargement(self, alpha):
        field = FieldConfig(1.0, 1.0)
        sizes = [(3, 3, (-1, 1)), (4, 4, (-2, 2)), (6, 6, (-2, 2))]
        eps = []
        for ne, no, nur in sizes:
            b = gram_schmidt_basis(alpha, n_even=ne, n_odd=no, nu_range=nur)
            s = eigensolve(assemble_variant(field, b))
            eps.append(s.ground()[0])
        # physical energy E = -eps; enlargement may only lower E, so raw
        # eps must not decrease
        assert eps[0] <= eps[1] + 1e-12
        assert eps[1] <= eps[2] + 1e-12

    def test_sweep_continuity(self, basis):
        taus = np.arange(0.0, 2.0001, 0.05)
        values = []
        for tau in taus:
            s = eigensolve(assemble_variant(FieldConfig(tau, 0.0), basis))
            values.append(s.ground()[0])
        values = np.array(values)
        jumps = np.abs(np.diff(values))
        secant = np.maximum.accumulate(jumps)  # local scale of variation
        assert np.all(jumps[1:] <= 3.0 * np.maximum(secant[:-1], 1e-3))
