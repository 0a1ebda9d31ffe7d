"""Eigendecomposition, ground-state selection, composition analysis."""

from types import SimpleNamespace

import numpy as np
import pytest

from torusmag.basis import gram_schmidt_basis, sector_index
from torusmag.cli import RunConfig, main
from torusmag.field import FieldConfig
from torusmag.hamiltonian import _COUPLING, _CURVATURE, VARIANTS, assemble
from torusmag.oracle import GridSpec, grid_solve
from torusmag import cli, solver
from torusmag.solver import (
    GROUND_IMAG_TOL,
    RESIDUAL_TOL,
    ComplexGroundError,
    HermiticityError,
    eigensolve,
    eigensolve_general,
    ground_state_composition,
)

from helpers import (
    amplitude, assemble_variant, break_a_bound, circulation, leak_into_a_piece, norm_sq,
    reference_sector_tops, refined_top, residual, sector_blocks, solve_ground, spectrum,
    whole_stack,
)


def toy_matrix(entries):
    return np.asarray(entries, dtype=float)


def one_block(h):
    """Sector labels that put every state of h in one sector."""
    return np.zeros(len(h), dtype=int)


class TestEigensolve:
    def test_two_by_two_closed_form(self):
        a, c = 1.0, 3.0
        b = -0.625
        h = toy_matrix([[a, b], [b, c]])
        [g] = eigensolve(h[None], one_block(h))
        disc = np.sqrt(((a - c) / 2.0) ** 2 + abs(b) ** 2)
        assert g.eps0 == pytest.approx((a + c) / 2.0 + disc, abs=1e-12)
        assert np.linalg.norm(h @ g.vector - g.eps0 * g.vector) < 1e-12

    def test_refuses_non_hermitian(self, basis, capsys):
        h = toy_matrix([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityError, match=r"max\|H - H\^dagger\| = 1\.000e\+00"):
            eigensolve(h[None], one_block(h))
        # the bound is relative to max|H|: rounding in a Hermitian H at a
        # huge tilted field passes, the coupling-off variant never does
        for tau in (1e5, 1e7):
            h = assemble_variant(FieldConfig(tau / np.sqrt(2), tau / np.sqrt(2)), basis)
            solve_ground(h, basis)
        assert main(["table", "--orientation", "tilted", "--tau", "1e5"]) == 0
        for tau1 in (1e-6, 1e7):
            h = assemble_variant(FieldConfig(0.0, tau1, vc_on=True, vmag_on=False), basis)
            with pytest.raises(HermiticityError, match=r"max\|H - H\^dagger\|"):
                solve_ground(h, basis)

    def test_eigenvalues_ascending_and_orthonormal(self, basis):
        # the ground is the top of the ascending spectrum, with a unit vector
        h = assemble_variant(FieldConfig(1.0, 0.5), basis)
        g = solve_ground(h, basis)
        w, v = spectrum(h)
        assert np.all(np.diff(w) >= 0.0)
        assert g.eps0 == w[-1]
        assert abs(np.linalg.norm(g.vector) - 1.0) < 1e-8
        assert 1.0 - abs(np.vdot(v[:, -1], g.vector)) < 1e-8

    def test_residuals_small(self, basis):
        h = assemble_variant(FieldConfig(0.9, 1.4), basis)
        assert residual(solve_ground(h, basis), h) < 1e-8

    def test_constant_mode_at_zero_field(self, basis):
        h = assemble_variant(FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False), basis)
        eps0, vec, _ = solve_ground(h, basis)
        assert eps0 == pytest.approx(0.0, abs=1e-10)
        i = basis.labels().index(("f", 0, 0))
        assert abs(vec[i]) == pytest.approx(1.0, abs=1e-8)

    def test_axial_eigenvectors_single_nu(self, basis):
        h = assemble_variant(FieldConfig(1.3, 0.0), basis)
        _, vectors = spectrum(h)
        labels = basis.labels()
        for col in range(len(labels)):
            weights = {}
            for i, (_, _, nu) in enumerate(labels):
                weights[nu] = weights.get(nu, 0.0) + abs(vectors[i, col]) ** 2
            assert max(weights.values()) == pytest.approx(1.0, abs=1e-10)

    def test_bitwise_equal_to_one_eigh_per_matrix(self, basis):
        # the stored sweep and table outputs pin the rounding of the tau1 = 0
        # solve: the batched call must give each matrix's eps0 and vector
        # exactly as its own complex eigh call does, at every default axial
        # field, and that vector is real
        for tau in RunConfig().taus():
            stack = assemble(tau, 0.0, basis)
            for g, h in zip(eigensolve(stack, basis.sectors), stack):
                w, v = np.linalg.eigh((0.5 * (h + h.T)).astype(complex))
                i = np.argmax(w)
                assert g.eps0 == float(w[i]), tau
                assert not v[:, i].imag.any(), tau
                assert g.vector.tobytes() == v[:, i].real.tobytes(), tau

    def test_refuses_complex_stack(self):
        # every assembled H is real; a complex stack is refused, even one
        # whose imaginary part is zero
        h = np.eye(2, dtype=complex)
        with pytest.raises(ArithmeticError, match="not finite and real"):
            eigensolve(h[None], one_block(h))

    def test_cross_sector_entry_raises(self, basis):
        stack = assemble(1.0, 0.0, basis)
        a, b = np.flatnonzero(basis.sectors == 0)[3], np.flatnonzero(basis.sectors == 1)[5]
        stack[1, a, b] += 1e-6
        stack[1, b, a] += 1e-6
        with pytest.raises(ArithmeticError, match=r"couples the inversion sectors: "
                           r"max\|H_AB\| = 1\.000e-06 exceeds "):
            eigensolve(stack, basis.sectors)


def general_ground(h, sector, hermitian=False):
    """The sector solve of one whole matrix: its `GroundState`.  A Hermitian
    h is a field of its own; any other is the field [h, (h + h^T) / 2],
    whose symmetric part bounds the real parts of h's eigenvalues
    (Bendixson), as on-on bounds the off variants."""
    field = [h] if hermitian else [h, 0.5 * (h + h.T)]
    return eigensolve_general(sector_blocks(np.stack(field), sector), len(field), sector)[0]


class TestEigensolveGeneral:
    def test_matches_hermitian_solver_on_hermitian_input(self, basis):
        h = assemble_variant(FieldConfig(0.6, 1.1), basis)
        eps0, vec, _ = solve_ground(h, basis)
        for hermitian in (False, True):
            g = general_ground(h, basis.sectors, hermitian)
            assert abs(g.eps0 - eps0) < 1e-8
            assert 1.0 - abs(np.vdot(vec, g.vector)) < 1e-8
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-10

    def test_handles_magnetic_coupling_off_variant(self, basis):
        h = assemble_variant(FieldConfig(0.0, 1.0, vc_on=False, vmag_on=False), basis)
        g = general_ground(h, basis.sectors)
        # antiunitary symmetry (conjugation with phi -> -phi) keeps the low
        # spectrum real
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-8
        assert g.eps0 == pytest.approx(-0.050844, abs=1e-5)

    def test_refuses_complex_ground_eigenvalue(self):
        # eigenvalues +i and -i: the ground (largest real part) is not real
        h = toy_matrix([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ComplexGroundError, match="imaginary part 1.000e"):
            general_ground(h, one_block(h))

    def test_near_real_ground_is_held_to_the_residual_bound(self):
        # eigenvalues 1 +/- ib: a real vector leaves a residual of b, so an
        # imaginary part under GROUND_IMAG_TOL but above the residual bound
        # (1e-10 * max(1, max|H|)) is refused as complex, not as a residual
        def pair(b):
            return toy_matrix([[1.0, b], [-b, 1.0]])
        with pytest.raises(ComplexGroundError, match="part 1.000e-09, above 1.0e-10"):
            general_ground(pair(1e-9), one_block(pair(1e-9)))
        g = general_ground(pair(1e-12), one_block(pair(1e-12)))
        assert g.eps0 == 1.0
        assert np.linalg.norm(pair(1e-12).real @ g.vector - g.vector) < 1e-10

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
        assert h.dtype == np.float64 and not field.hermitian
        g = general_ground(h, basis.sectors)
        assert g.vector.dtype == np.float64
        w, v = np.linalg.eig(h.astype(complex))
        top = np.argmax(w.real)
        assert abs(g.eps0 - w[top].real) < 1e-12
        got = ground_state_composition(g.vector, basis)
        # a real eigenvalue's vector, up to a complex phase
        x = v[:, top] / (v[:, top][np.argmax(np.abs(v[:, top]))])
        assert np.max(np.abs(x.imag)) < 1e-12
        want = ground_state_composition(x.real / np.linalg.norm(x.real), basis)
        assert np.max(np.abs(got.amps - want.amps)) < 1e-12

    def test_genuinely_complex_matrix(self):
        # every assembled H is exactly real; a complex one is refused, not
        # solved in complex arithmetic
        h = np.array([[1.0, 1j], [0.0, 2.0]])
        with pytest.raises(ArithmeticError, match="not finite and real"):
            general_ground(h, one_block(h))

    def test_complex_excited_pair_is_accepted(self):
        # a real ground level above a conjugate pair 0 +/- 0.5i
        h = toy_matrix([[1.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
        assert general_ground(h, one_block(h)).eps0 == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_member_must_be_hermitian(self, basis):
        # the on-off variant at tau1 != 0 is not Hermitian; as a field's last
        # member, on-on's place, it is refused with its defect
        field = FieldConfig(0.0, 1.0, vc_on=True, vmag_on=False)
        h = assemble_variant(field, basis)
        blocks = sector_blocks(np.stack([h, h]), basis.sectors)
        with pytest.raises(HermiticityError, match=r"max\|H - H\^dagger\| = "):
            eigensolve_general(blocks, 2, basis.sectors)

    def test_residual_bound_and_singular_block(self, monkeypatch):
        h = toy_matrix(np.diag([1.0, 3.0, 2.0]))
        g = general_ground(h, one_block(h))
        assert (g.eps0, g.sector) == (3.0, 0)
        assert np.allclose(np.abs(g.vector), [0.0, 1.0, 0.0], rtol=0.0, atol=1e-20)
        monkeypatch.setattr(solver, "INVERSE_SHIFT", 0.0)
        with pytest.raises(ArithmeticError, match="block is singular") as info:
            general_ground(h, one_block(h))
        assert not isinstance(info.value, ValueError)
        monkeypatch.undo()
        # the rounding-sized residual of an exact eigenvector, against a
        # bound of 1e-30 * max|H|
        monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-30)
        with pytest.raises(ArithmeticError, match=r"residual \S+ exceeds 3.0e-30"):
            general_ground(h, one_block(h))


class TestSectorSplit:
    """The general solve runs on each inversion sector's block alone."""

    @pytest.mark.parametrize("tau1", [1.0, -2.5])
    def test_ground_vector_is_exactly_zero_in_the_other_sector(self, basis, tau1):
        h = assemble_variant(FieldConfig(0.4, tau1, vc_on=True, vmag_on=False), basis)
        g = general_ground(h, basis.sectors)
        own = basis.sectors == g.sector
        assert own[np.argmax(np.abs(g.vector))]
        assert np.all(g.vector[~own] == 0.0)
        assert np.linalg.norm(g.vector[own]) == pytest.approx(1.0, abs=1e-14)

    def test_cross_sector_entry_raises(self, alpha, monkeypatch):
        # the sector solve never sees a cross-sector entry: each affine
        # piece of H is checked once per basis, against 1e-12 * max(1,
        # max|piece|), 1e-12 for the tau0-linear piece at alpha = 1/2
        leak_into_a_piece(monkeypatch, n_even=6)
        fresh = gram_schmidt_basis(alpha, n_even=6, n_odd=6, nu_range=(-2, 2))
        assemble(1.0, 0.0, fresh)  # the whole-matrix path builds no piece
        with pytest.raises(ArithmeticError, match=r"couples the inversion sectors: "
                           r"max\|H_AB\| = 1\.000e-06 exceeds 1\.0e-12"):
            assemble(0.0, 1.0, fresh)

    def test_basis_with_only_sector_b(self, alpha, tmp_path):
        # f_n e^{i phi} only: every label is 1, so the one sector stack is
        # labelled 1, not by its position 0
        basis = gram_schmidt_basis(alpha, n_even=3, n_odd=0, nu_range=(1, 1))
        assert basis.sectors.tolist() == [1, 1, 1]
        [stack] = assemble(0.0, 1.0, basis)
        assert stack.shape == (len(VARIANTS), 3, 3)
        grounds = eigensolve_general([stack], 3, basis.sectors)
        assert [g.sector for g in grounds] == [1, 1, 1]
        ini = tmp_path / "b.ini"
        ini.write_text("[basis]\nn_even = 3\nn_odd = 0\nnu_min = 1\nnu_max = 1\n")
        argv = ["table", "--config", str(ini), "--orientation", "in_plane", "--tau", "1"]
        assert main(argv) == 0

    def test_complex_level_in_one_block_passes_unless_it_is_the_ground(self):
        # sector A holds one real level, sector B the pair +/- i
        sector = np.array([0, 1, 1])
        pair = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
        h = toy_matrix(pair) + np.diag([5.0, 0.0, 0.0])
        assert general_ground(h, sector).eps0 == 5.0
        h = toy_matrix(pair) + np.diag([-5.0, 0.0, 0.0])
        with pytest.raises(ComplexGroundError, match="imaginary part 1.000e"):
            general_ground(h, sector)


class TestComposition:
    def test_ground_selector_takes_max_raw_eigenvalue(self, basis):
        h = assemble_variant(FieldConfig(1.0, 0.0), basis)
        assert solve_ground(h, basis).eps0 == np.max(spectrum(h)[0])

    def test_norm_preserved(self, basis):
        h = assemble_variant(FieldConfig(0.8, 0.8), basis)
        comp = ground_state_composition(solve_ground(h, basis).vector, basis)
        assert norm_sq(comp) == pytest.approx(1.0, abs=1e-10)

    def test_global_phase_fixed(self, basis):
        h = assemble_variant(FieldConfig(1.9, 0.4), basis)
        comp = ground_state_composition(solve_ground(h, basis).vector, basis)
        lead = comp.amps.flat[np.argmax(np.abs(comp.amps))]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0.0

    def test_zero_field_composition(self, basis):
        h = assemble_variant(FieldConfig(0.0, 0.0), basis)
        comp = ground_state_composition(solve_ground(h, basis).vector, basis)
        assert abs(amplitude(comp, ("f", 0, 0))) == pytest.approx(0.968, abs=2e-3)
        assert abs(amplitude(comp, ("f", 1, 0))) == pytest.approx(0.244, abs=2e-3)
        assert comp.dominant_nu() == 0

    def test_axial_crossover_state_has_nu_minus_one(self, basis):
        h = assemble_variant(FieldConfig(2.0, 0.0), basis)
        comp = ground_state_composition(solve_ground(h, basis).vector, basis)
        assert comp.dominant_nu() == -1
        assert circulation(comp) == pytest.approx(-1.0, abs=1e-8)

    def test_real_combinations_group_sin_pairs(self, basis):
        h = assemble_variant(FieldConfig(0.0, 2.0), basis)
        comp = ground_state_composition(solve_ground(h, basis).vector, basis)
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
        vec = solve_ground(assemble_variant(FieldConfig(0.7, 1.3), basis), basis).vector
        comp = ground_state_composition(vec, basis)
        top = np.argmax(np.abs(vec))
        vec = vec / (vec[top] / abs(vec[top]))
        labels = basis.labels()
        assert comp.amps.shape == (len(comp.functions), len(comp.nus))
        for i, (kind, n) in enumerate(comp.functions):
            for j, nu in enumerate(comp.nus):
                assert comp.amps[i, j] == vec[labels.index((kind, n, nu))]

    def test_format_text_mentions_dominant_function(self, basis):
        vec = solve_ground(assemble_variant(FieldConfig(0.0, 0.0), basis), basis).vector
        text = ground_state_composition(vec, basis).format_text()
        assert "f0" in text and "f1" in text


class TestVariationalBehaviour:
    def test_ground_energy_monotone_under_basis_enlargement(self, alpha):
        field = FieldConfig(1.0, 1.0)
        sizes = [(3, 3, (-1, 1)), (4, 4, (-2, 2)), (6, 6, (-2, 2))]
        eps = []
        for ne, no, nur in sizes:
            b = gram_schmidt_basis(alpha, n_even=ne, n_odd=no, nu_range=nur)
            eps.append(solve_ground(assemble_variant(field, b), b).eps0)
        # physical energy E = -eps; enlargement may only lower E, so raw
        # eps must not decrease
        assert eps[0] <= eps[1] + 1e-12
        assert eps[1] <= eps[2] + 1e-12

    def test_sweep_continuity(self, basis):
        taus = np.arange(0.0, 2.0001, 0.05)
        values = []
        for tau in taus:
            values.append(solve_ground(assemble_variant(FieldConfig(tau, 0.0), basis), basis).eps0)
        values = np.array(values)
        jumps = np.abs(np.diff(values))
        secant = np.maximum.accumulate(jumps)  # local scale of variation
        assert np.all(jumps[1:] <= 3.0 * np.maximum(secant[:-1], 1e-3))


class TestSectorSolveAgainstFullMatrix:
    def test_ground_pairs_and_refusals_match(self):
        # seeded fields, tau0 in [-3, 3] and tau1 in [0.25, 5], at three
        # aspect ratios and four bases,
        # the last with sector blocks of unequal size; the reference solves
        # the whole matrix, eigh for the Hermitian variant and eig for the
        # others, and refuses a field whose top eigenvalue is not real
        rng = np.random.default_rng(19)
        solved = refused = 0
        for alpha in (0.3, 0.5, 0.8):
            for shape in [(6, 6, (-2, 2)), (8, 8, (-4, 4)), (10, 10, (-6, 6)),
                          (4, 0, (-1, 3))]:
                basis = gram_schmidt_basis(alpha, *shape)
                for tau0, tau1 in rng.uniform((-3.0, 0.25), (3.0, 5.0), (3, 2)):
                    stack = assemble(tau0, tau1, basis)
                    hermitian = [vmag for _, _, vmag in VARIANTS]
                    want = []
                    for h, herm in zip(whole_stack(tau0, tau1, basis), hermitian):
                        w, v = np.linalg.eigh(h) if herm else np.linalg.eig(h.real)
                        top = np.argmax(w.real)
                        want.append((w[top], v[:, top] / np.linalg.norm(v[:, top])))
                    if any(abs(w.imag) > GROUND_IMAG_TOL for w, _ in want):
                        with pytest.raises(ComplexGroundError):
                            eigensolve_general(stack, 3, basis.sectors)
                        refused += 1
                        continue
                    got = eigensolve_general(stack, 3, basis.sectors)
                    for g, (w, v) in zip(got, want):
                        assert abs(g.eps0 - w.real) <= 1e-12 * max(1.0, abs(w.real))
                        assert 1.0 - abs(np.vdot(v, g.vector)) <= 1e-12
                    solved += 1
        assert solved > 0 and refused > 0, (solved, refused)


def seeded_fields(rng, count: int) -> list[tuple[float, float]]:
    """count axial, count in-plane and count randomly tilted fields (tau0,
    tau1), tau in [0, 3.1]."""
    tau = rng.uniform(0.0, 3.1, (3, count))
    tilt = rng.uniform(0.0, np.pi / 2, count)
    return ([(t, 0.0) for t in tau[0]] + [(0.0, t) for t in tau[1]]
            + [(t * np.sin(a), t * np.cos(a)) for t, a in zip(tau[2], tilt)])


class TestCertifiedSectorSolve:
    """On-on's sector tops bound the off variants' eigenvalues (Bendixson),
    so the batched sector solve skips a sector that cannot hold the ground."""

    def test_equals_solving_both_sectors(self, monkeypatch):
        # a run of seeded fields per aspect ratio and basis, the default and
        # a 10+10 one, against the tops of both sectors of every matrix:
        # eps0 within 1e-13 * scale, the same sector, the vector of `eig` to
        # 1e-12 up to sign
        rng = np.random.default_rng(31)
        counts = {"solved": 0, "certified": 0, "fallback": 0, "skipped": 0}
        rayleigh, bendixson, eigvals = solver._rayleigh, solver._bendixson, np.linalg.eigvals

        def solved(a, shift):
            counts["solved"] += len(a)
            return rayleigh(a, shift)

        def certified(a, top, x=None):
            ok = bendixson(a, top, x)
            counts["certified"] += 0 if x is None else int(ok.sum())
            return ok

        def fallback(a):
            counts["fallback"] += len(a)
            return eigvals(a)

        monkeypatch.setattr(solver, "_rayleigh", solved)
        monkeypatch.setattr(solver, "_bendixson", certified)
        monkeypatch.setattr(np.linalg, "eigvals", fallback)
        for alpha in (0.3, 0.5, 0.8):
            for shape in [(6, 6, (-2, 2)), (10, 10, (-4, 4))]:
                basis = gram_schmidt_basis(alpha, *shape)
                stacks = [sector_blocks(whole_stack(*field, basis), basis.sectors)
                          for field in seeded_fields(rng, 2)]
                blocks = [np.concatenate(s) for s in zip(*stacks)]
                with monkeypatch.context() as m:  # the reference runs unspied
                    m.setattr(np.linalg, "eigvals", eigvals)
                    tops = reference_sector_tops(blocks, 3)
                scale = np.maximum(1.0, np.max([np.abs(b).max(axis=(1, 2)) for b in blocks], 0))
                onon = np.repeat(tops[2::3].real, 3, axis=0)
                # Bendixson: no off variant's top exceeds on-on's in its sector
                assert np.all(tops.real <= onon + RESIDUAL_TOL * scale[:, None])
                # no ground is complex, so the run solves
                assert np.all(np.abs(tops.max(axis=1).imag) <= GROUND_IMAG_TOL)
                before = counts["solved"]
                got = eigensolve_general(blocks, 3, basis.sectors)
                labels = [basis.sectors[i[0]] for i in sector_index(basis.sectors)]
                for i, g in enumerate(got):
                    s = np.argmax(tops[i].real)
                    assert g.sector == labels[s]
                    assert abs(g.eps0 - tops[i, s].real) <= 1e-13 * scale[i]
                    w, v = np.linalg.eig(blocks[s][i])
                    x = np.zeros(len(basis.sectors), dtype=complex)
                    x[basis.sectors == labels[s]] = v[:, np.argmax(w.real)]
                    assert 1.0 - abs(np.vdot(x, g.vector)) <= 1e-12
                # two off variants, two sectors each
                counts["skipped"] += 4 * len(got) // 3 - (counts["solved"] - before)
        # every solve is certified or falls back to `eigvals`, and the
        # certificates skip some sectors but not all
        assert counts["certified"] + counts["fallback"] == counts["solved"], counts
        assert min(counts["certified"], counts["fallback"]) > 0, counts
        assert 0 < counts["skipped"] < counts["solved"], counts

    def test_certificate_refuses_an_eigenvalue_below_the_top(self, monkeypatch):
        # eigenvalues 2.9 and 3 +/- 5i, turned by an orthogonal Q: 2.9 is the
        # nearest to the start shift, the top 3 of h's symmetric part (any
        # shift in [3, 127]), so the iteration converges to it, but the
        # symmetric part of the block on the complement of its vector, 3 I
        # turned, exceeds it; `eigvals` then finds the complex ground, as
        # without the iteration
        q, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((3, 3)))
        h = q @ toy_matrix([[2.9, 0.0, 0.0], [0.0, 3.0, 5.0], [0.0, -5.0, 3.0]]) @ q.T
        verdicts, bendixson = [], solver._bendixson

        def spied(a, top, x=None):
            verdicts.append((top, bendixson(a, top, x)))
            return verdicts[-1][1]

        monkeypatch.setattr(solver, "_bendixson", spied)
        with pytest.raises(ComplexGroundError, match=r"imaginary part 5\.000e\+00"):
            general_ground(h, one_block(h))
        # one certificate, for mu = 2.9 (plus CERTIFY_TOL, over 2**e ~ max|h|)
        [(top, ok)] = verdicts
        scale = 2.0 ** np.rint(np.log2(np.abs(h).max()))
        assert abs(top[0] * scale - 2.9) < 1e-9 and not ok[0]

    def test_certificate_refuses_a_near_tie(self, monkeypatch):
        # eigenvalues 1, 3 and 3 + 1e-11 of a symmetric h whose 3-vector is
        # the start of ones: from the bound 4 of the field's on-on member
        # 4 I, the iteration converges to 3, which RESIDUAL_TOL times the
        # scale (3e-10 here) could not tell from the top; the certificate,
        # at rounding level, refuses it and `eigvals` finds the top
        q, _ = np.linalg.qr(np.column_stack([np.ones(3), np.eye(3)[:, 1:]]))
        h = q @ np.diag([3.0, 3.0 + 1e-11, 1.0]) @ q.T
        tops, rayleigh = [], solver._rayleigh

        def spied(a, shift):
            tops.append(rayleigh(a, shift))
            return [z.copy() for z in tops[-1]]  # kept as returned

        monkeypatch.setattr(solver, "_rayleigh", spied)
        [g, _] = eigensolve_general([np.stack([h, 4.0 * np.eye(3)])], 2, one_block(h))
        [(mu, _, converged)] = tops
        assert converged[0] and abs(4.0 * mu[0] - 3.0) < 1e-14  # over 2**e = 4
        assert g.eps0 == np.sort(np.linalg.eigvals(h))[-1].real
        assert abs(g.eps0 - 3.0 - 1e-11) < 1e-14

    def test_certificate_decides_on_the_complement_of_the_vector(self):
        # with a real eigenvector x of a nonsymmetric a, the certificate
        # holds just above the top of (a + a^T) / 2 on the complement of x
        # and fails just below it
        rng = np.random.default_rng(33)
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            w, v = np.linalg.eig(a)
            x = v[:, np.flatnonzero(w.imag == 0.0)[0]].real
            u = np.linalg.svd(x[None])[2][1:].T  # orthonormal, orthogonal to x
            top = np.linalg.eigvalsh(u.T @ (0.5 * (a + a.T)) @ u)[-1]
            verdicts = [solver._bendixson(a[None], np.array([top + d]), x[None])[0]
                        for d in (1e-9, -1e-9)]
            assert verdicts == [True, False]

    def test_sector_tops_closer_than_the_residual_bound(self):
        # sector 1 holds sector 0's block plus 5e-11 I, closer than the
        # residual bound (2.5e-10 here); the on-on member bounds sector 0
        # 1e-10 above its top, so sector 0 is solved first, and sector 1,
        # whose bound is not below the top found less the residual bound, is
        # solved and holds the ground
        a = toy_matrix([[2.5, 0.5], [0.5, 1.5]])
        h = np.zeros((4, 4))
        h[:2, :2], h[2:, 2:] = a, a + 5e-11 * np.eye(2)
        sector = np.array([0, 0, 1, 1])
        blocks = sector_blocks(np.stack([h, h + 1e-10 * np.diag(sector == 0)]), sector)
        tops = reference_sector_tops(blocks, 2)
        g = eigensolve_general(blocks, 2, sector)[0]
        assert g.sector == 1 and tops[0, 1].real > tops[0, 0].real
        assert abs(g.eps0 - tops[0, 1].real) <= 1e-13 * 2.5

    def test_top_matches_a_40_digit_reference(self, basis, monkeypatch):
        # the off variants' certified tops at a tilted and an in-plane field
        # of the default basis, against their top refined in mpmath
        pytest.importorskip("mpmath")
        monkeypatch.setattr(np.linalg, "eigvals", None)  # no fallback
        labels = [basis.sectors[i[0]] for i in sector_index(basis.sectors)]
        for orientation, tau in [("tilted", 1.0), ("in_plane", 2.0)]:
            blocks = assemble(*RunConfig(orientation=orientation).split_tau(tau), basis)
            scale = max(1.0, max(np.abs(b).max() for b in blocks))
            for g, *member in zip(eigensolve_general(blocks, 3, basis.sectors),
                                  *(b[:2] for b in blocks)):
                h = member[labels.index(g.sector)]
                assert abs(g.eps0 - refined_top(h)) <= 1e-13 * scale

    @pytest.mark.parametrize("row,at,entry,message", [
        # f0 and g1 at neighbouring nu, which are in one sector
        (_COUPLING, (0, 0, 6), 1e-6, r"coupling piece is not antisymmetric: "
                                     r"max\|K \+ K\^T\| = 1\.000e-06 exceeds 1\.0e-12"),
        # f0 at the lowest nu, whose V entry is below 1
        (_CURVATURE, (0, 0, 0), -1.0, r"curvature piece is not positive semidefinite: "
                                      r"V \+ 1\.0e-12 I has no Cholesky factor"),
    ], ids=["symmetric-coupling", "negative-curvature"])
    def test_broken_bound_raises_at_the_per_basis_check(
        self, alpha, monkeypatch, row, at, entry, message
    ):
        break_a_bound(monkeypatch, row, at, entry)
        fresh = gram_schmidt_basis(alpha, n_even=6, n_odd=6, nu_range=(-2, 2))
        assemble(1.0, 0.0, fresh)  # the whole-matrix path builds no piece
        with pytest.raises(ArithmeticError, match=message):
            assemble(0.0, 1.0, fresh)

    #: 3x3 toy matrices of one sector: "pair" has eigenvalues +-i and -5,
    #: so its ground is complex, "upper" is not symmetric and "diag" has its
    #: top exactly, so its shifted block is singular without INVERSE_SHIFT
    TOYS = {"pair": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -5.0]],
            "sym": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.3]],
            "upper": [[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]],
            "diag": np.diag([1.0, 3.0, 2.0])}

    @pytest.mark.parametrize("fields,error,calls", [
        ([["sym", "sym"], ["sym", "sym"]], None, 1),
        # a one-field chunk is not solved again
        ([["pair", "sym"]], ComplexGroundError, 1),
        # field 1 fails its check, but field 0's complex ground comes first
        ([["pair", "sym"], ["sym", "upper"]], ComplexGroundError, 2),
        # field 0 solves alone, field 1's complex ground comes before field 2's check
        ([["sym", "sym"], ["pair", "sym"], ["sym", "upper"]], ComplexGroundError, 3),
    ], ids=["no-failure", "one-field", "earlier-field", "second-field"])
    def test_earliest_failure_of_a_chunk_is_raised(self, monkeypatch, fields, error, calls):
        # on-off and on-on of in-plane fields, one run: a failing run is
        # assembled and solved again field by field up to the first failing
        # field, as a field-by-field solve raises its refusal
        stacks = {float(tau): np.array([self.TOYS[name] for name in field])
                  for tau, field in enumerate(fields, 1)}
        assembled = []

        def run_of_toys(tau0, tau1, basis, variants):
            assembled.append(list(tau1))
            return [np.concatenate([stacks[t] for t in tau1])]

        monkeypatch.setattr(cli, "assemble", run_of_toys)
        solved = []

        def spied(blocks, *args, **kwargs):
            solved.append(len(blocks[0]))
            return eigensolve_general(blocks, *args, **kwargs)

        monkeypatch.setattr(cli, "eigensolve_general", spied)
        grounds = cli._field_grounds(RunConfig(orientation="in_plane"),
                                     SimpleNamespace(sectors=one_block(np.eye(3))), stacks, 2)
        if error is None:
            assert len(list(grounds)) == 2 * len(fields)
        else:
            with pytest.raises(error):
                list(grounds)
        assert solved == [2 * len(fields)] + [2] * (calls - 1)
        # the whole run first, then single fields
        assert assembled == [list(stacks)] + [[tau] for tau in stacks][:calls - 1]

    def test_first_failing_stage_of_a_field_is_raised(self, monkeypatch):
        # member 0's shifted block is singular, but member 1's complex
        # ground, an earlier stage, is raised; "diag", symmetric, is also the
        # on-on member that bounds both, and its shifted block is singular too
        monkeypatch.setattr(solver, "INVERSE_SHIFT", 0.0)
        blocks = [np.array([self.TOYS["diag"], self.TOYS["pair"], self.TOYS["diag"]])]
        with pytest.raises(ComplexGroundError, match=r"imaginary part 1\.000e\+00"):
            eigensolve_general(blocks, 3, one_block(np.eye(3)))
        # without member 1, member 0 raises its singular block
        with pytest.raises(ArithmeticError, match="shifted ground block is singular"):
            eigensolve_general([blocks[0][::2]], 2, one_block(np.eye(3)))


#: The fields of `verify` with tau1 != 0, and the pi/4 tilt at tau = 2.7,
#: past the ground's sector crossing in both the grid (2.595) and the
#: default basis (2.629).
VERIFY_FIELDS = [
    RunConfig(orientation=o).split_tau(tau)
    for o in ("tilted", "in_plane") for tau in (1.0, 2.0)
] + [RunConfig(orientation="tilted").split_tau(2.7)]


class TestGroundSector:
    @pytest.mark.parametrize("tau0,tau1", VERIFY_FIELDS)
    def test_on_on_sector_matches_the_grid_oracle(self, alpha, basis, tau0, tau1):
        h = whole_stack(tau0, tau1, basis)[-1]
        g = general_ground(h, basis.sectors, hermitian=True)
        assert g.sector == basis.sectors[np.argmax(np.abs(g.vector))]
        field = FieldConfig(tau0, tau1)
        assert g.sector == grid_solve(alpha, field, GridSpec(64, 32)).sector

    @pytest.mark.parametrize("tau", [0.0, 1.0, 2.0])
    def test_axial_sector_matches_the_grid_oracle(self, alpha, basis, tau):
        # verify's axial fields, solved by the whole-matrix solve
        g = eigensolve(assemble(tau, 0.0, basis), basis.sectors)[-1]
        assert g.sector == basis.sectors[np.argmax(np.abs(g.vector))]
        assert g.sector == grid_solve(alpha, FieldConfig(tau, 0.0), GridSpec(64, 32)).sector
