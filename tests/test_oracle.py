"""Spectral grid discretization cross-validating the basis pipeline.

`_build_operator` below is the oracle's operator as a dense complex matrix
on the (theta, phi) grid, with every coupling written on the grid points.
It is the reference the program's real blocks are checked against: one
theta block per nu and theta parity for an axial field, four inversion x
C2 sectors for an in-plane field, two inversion sectors for a tilted one.
The exact symmetries behind those splits are tested on it as maps of the
grid points (inversion, C2 about the in-plane field axis, theta-reflection
at tau1 = 0), and the blocks must reproduce its spectrum.
`helpers.reference_sector_blocks` is the np.kron build of the two
inversion sectors that the scatter build must match bit for bit.
"""

import math

import numpy as np
import pytest

from torusmag import oracle
from torusmag.field import FieldConfig
from torusmag.oracle import (
    AccuracyError,
    GridSpec,
    UnsupportedVariantError,
    _nu_blocks,
    _sector_blocks,
    fourier_diff_matrix,
    grid_solve,
)
from torusmag.solver import eigensolve

from helpers import assemble_variant, reference_sector_blocks


def _build_operator(
    al: float, field: FieldConfig, grid: GridSpec
) -> np.ndarray:
    """Dense complex grid operator, point (i, j) at row i * n_phi + j."""
    t0, t1 = field.tau0, field.tau1
    nt, np_ = grid.n_theta, grid.n_phi
    theta = np.arange(nt) * 2.0 * np.pi / nt
    phi = np.arange(np_) * 2.0 * np.pi / np_
    f = 1.0 + al * np.cos(theta)

    d1t = fourier_diff_matrix(nt, 1)
    d2t = fourier_diff_matrix(nt, 2)
    d1p = fourier_diff_matrix(np_, 1)
    d2p = fourier_diff_matrix(np_, 2)
    eye_t, eye_p = np.eye(nt), np.eye(np_)

    # theta kinetic block after the similarity transform psi -> F^{1/2} psi
    w_t = 0.5 * al * np.cos(theta) / f + 0.25 * al**2 * np.sin(theta) ** 2 / f**2
    kin_t = d2t + np.diag(w_t)
    m = np.kron(kin_t, eye_p).astype(complex)

    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ft = 1.0 + al * np.cos(tt)

    # centrifugal phi term and the purely diagonal potentials
    m += (al**2 / ft**2).ravel()[:, None] * np.kron(eye_t, d2p)
    diag = -0.25 * t0**2 * al**2 * ft**2
    diag = diag - 0.25 * t1**2 * al**2 * ft**2 * np.sin(pp) ** 2
    diag = diag - 0.25 * t1**2 * al**4 * np.sin(tt) ** 2
    diag = diag + 0.5 * t0 * t1 * al**3 * ft * np.sin(tt) * np.cos(pp)
    if field.vc_on:
        diag = diag + 0.25 / ft**2
    m[np.diag_indices_from(m)] += diag.ravel()

    # axial paramagnetic term: constant coefficient, already Hermitian
    m += 1j * t0 * al**2 * np.kron(eye_t, d1p)

    if t1 != 0.0:
        # in-plane paramagnetic couplings as symmetrized products
        c_phi = (-t1 * al**3 * np.sin(tt) * np.cos(pp) / ft).ravel()
        dphi = np.kron(eye_t, d1p)
        m += 0.5j * (c_phi[:, None] * dphi + dphi * c_phi[None, :])
        c_th = (al * t1 * np.sin(pp) * (al + np.cos(tt))).ravel()
        dth = np.kron(d1t, eye_p)
        m += 0.5j * (c_th[:, None] * dth + dth * c_th[None, :])
    return m


def sector_rows(
    grid: GridSpec, in_plane: bool = False
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(theta key, nu, sign) of every row of each `_sector_blocks` block.

    Each block's rows are its theta-even part then its theta-odd part, the
    theta index slowest; theta keys number the even combinations
    0..n_theta/2 and the odd ones after them.  Off the plane the nu columns
    are e_nu in FFT order and sign is +1: sector A pairs theta-even with
    even nu and theta-odd with odd nu, sector B the other way.  In plane
    the columns are (e_nu + sign e_-nu)/sqrt(2), labelled nu = |nu| (the
    Nyquist one by n_phi/2), and each sector's part with theta parity p
    takes the nu-reflection sign p * C2, C2 even first.
    """
    n_even, n_odd = grid.n_theta // 2 + 1, grid.n_theta // 2 - 1
    theta_keys = (np.arange(n_even), n_even + np.arange(n_odd))

    def rows(parts):
        # parts: (nu labels, signs) of the theta-even part, then the theta-odd
        pairs = list(zip(theta_keys, parts))
        key = np.concatenate([np.repeat(t, len(nu)) for t, (nu, _) in pairs])
        nu = np.concatenate([np.tile(nu, len(t)) for t, (nu, _) in pairs])
        sign = np.concatenate([np.tile(sg, len(t)) for t, (_, sg) in pairs])
        return key, nu, sign

    n = grid.n_phi
    if not in_plane:
        nu = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        by_parity = [(nu[m::2], np.ones(n // 2, dtype=int)) for m in (0, 1)]
        return [rows([by_parity[m], by_parity[1 - m]]) for m in (0, 1)]
    k = np.arange(n // 2 + 1)
    reflected = {}
    for m in (0, 1):
        sym, anti = k[k % 2 == m], k[(k % 2 == m) & (k > 0) & (k < n // 2)]
        reflected[m, 1] = (sym, np.ones(len(sym), dtype=int))
        reflected[m, -1] = (anti, -np.ones(len(anti), dtype=int))
    return [
        rows([reflected[m, r], reflected[1 - m, -r]]) for m in (0, 1) for r in (1, -1)
    ]


def point_map_defect(
    m: np.ndarray, grid: GridSpec, theta_sign: int, phi_sign: int
) -> float:
    """Largest entry of m minus m with its grid points relabelled by
    (i, j) -> (theta_sign * i, phi_sign * j), both modulo the grid."""
    i = theta_sign * np.arange(grid.n_theta) % grid.n_theta
    j = phi_sign * np.arange(grid.n_phi) % grid.n_phi
    perm = (i[:, None] * grid.n_phi + j[None, :]).ravel()
    return float(np.max(np.abs(m[np.ix_(perm, perm)] - m)))


GRID = GridSpec(32, 16)


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

    def test_grid_size_is_bounded(self):
        # the refinement grid of the default, 128x32, fits the bound; the
        # check runs at construction, before anything is allocated
        assert GridSpec(128, 32).n_theta == 128
        assert GridSpec(128, 64).n_phi == 64
        with pytest.raises(ValueError, match="8192"):
            GridSpec(256, 64)
        with pytest.raises(ValueError, match="8192"):
            GridSpec(4096, 4096)


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
    def test_free_particle_ground_state(self, alpha):
        # at zero field with both potentials off the flat state is the
        # ground state; the similarity transform turns it into sqrt(F)
        field = FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False)
        grid = GridSpec(32, 16)
        assert grid_solve(alpha, field, grid)[0] == pytest.approx(0.0, abs=1e-8)
        theta = np.arange(grid.n_theta) * 2.0 * np.pi / grid.n_theta
        flat = np.repeat(np.sqrt(1.0 + alpha * np.cos(theta)), grid.n_phi)
        m = _build_operator(alpha, field, grid)
        assert np.linalg.norm(m @ flat) / np.linalg.norm(flat) < 1e-6

    def test_operator_hermitian_after_transform(self, alpha):
        m = _build_operator(alpha, FieldConfig(1.0, 1.0), GridSpec(32, 16))
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_axial_states_have_single_azimuthal_harmonic(self, alpha):
        # an operator invariant under phi -> phi + one grid step conserves
        # nu, so each non-degenerate state holds a single harmonic; an
        # in-plane component breaks the invariance at O(1)
        grid = GridSpec(32, 16)
        j = (np.arange(grid.n_phi) + 1) % grid.n_phi
        perm = (np.arange(grid.n_theta)[:, None] * grid.n_phi + j).ravel()

        def shift_defect(field):
            m = _build_operator(alpha, field, grid)
            return np.max(np.abs(m[np.ix_(perm, perm)] - m))

        assert shift_defect(FieldConfig(2.0, 0.0)) < 1e-12
        assert shift_defect(FieldConfig(0.0, 2.0)) > 0.1

    def test_matches_basis_solution_field_free(self, alpha, basis):
        field = FieldConfig(0.0, 0.0, vc_on=True, vmag_on=True)
        eps_basis = eigensolve(assemble_variant(field, basis)).ground()[0]
        eps_grid = grid_solve(alpha, field, GridSpec(64, 16))[0]
        assert eps_grid == pytest.approx(eps_basis, rel=1e-3)

    @pytest.mark.parametrize(
        "field", [FieldConfig(1.3, 0.7), FieldConfig(0.0, 2.0, vc_on=False)]
    )
    def test_operator_commutes_with_inversion(self, alpha, field):
        # (theta, phi) -> (-theta, phi + pi) permutes the grid points
        # (i, j) -> (-i, j + n_phi/2); the operator must be invariant
        grid = GridSpec(32, 16)
        m = _build_operator(alpha, field, grid)
        i = -np.arange(grid.n_theta) % grid.n_theta
        j = (np.arange(grid.n_phi) + grid.n_phi // 2) % grid.n_phi
        perm = (i[:, None] * grid.n_phi + j[None, :]).ravel()
        assert np.max(np.abs(m[np.ix_(perm, perm)] - m)) < 1e-12

    @pytest.mark.parametrize(
        "field",
        [
            FieldConfig(0.0, 2.0),
            FieldConfig(0.0, -1.3, vc_on=False),
            FieldConfig(0.0, 0.0),
            FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False),
        ],
    )
    def test_in_plane_operator_commutes_with_c2(self, alpha, field):
        # the rotation by pi about the in-plane field axis, (theta, phi) ->
        # (-theta, -phi), permutes the grid points (i, j) -> (-i, -j)
        m = _build_operator(alpha, field, GRID)
        assert point_map_defect(m, GRID, theta_sign=-1, phi_sign=-1) < 1e-12

    @pytest.mark.parametrize("field", [FieldConfig(1.3, 0.7), FieldConfig(2.0, 0.0)])
    def test_axial_component_breaks_c2(self, alpha, field):
        m = _build_operator(alpha, field, GRID)
        assert point_map_defect(m, GRID, theta_sign=-1, phi_sign=-1) > 0.1

    @pytest.mark.parametrize(
        "field",
        [
            FieldConfig(2.0, 0.0),
            FieldConfig(-3.0, 0.0, vc_on=False),
            FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False),
        ],
    )
    def test_axial_operator_commutes_with_theta_reflection(self, alpha, field):
        # z -> -z maps (theta, phi) -> (-theta, phi): (i, j) -> (-i, j)
        m = _build_operator(alpha, field, GRID)
        assert point_map_defect(m, GRID, theta_sign=-1, phi_sign=1) < 1e-12

    @pytest.mark.parametrize("field", [FieldConfig(0.0, 2.0), FieldConfig(1.3, 0.7)])
    def test_in_plane_component_breaks_theta_reflection(self, alpha, field):
        m = _build_operator(alpha, field, GRID)
        assert point_map_defect(m, GRID, theta_sign=-1, phi_sign=1) > 0.1

    @pytest.mark.parametrize(
        "tau0,tau1", [(1.3, 0.7), (0.0, 2.0), (2.0, 0.0)]
    )
    def test_field_reversal_conjugates_operator(self, alpha, tau0, tau1):
        grid = GridSpec(32, 16)
        m = _build_operator(alpha, FieldConfig(tau0, tau1), grid)
        m_rev = _build_operator(alpha, FieldConfig(-tau0, -tau1), grid)
        assert np.max(np.abs(m_rev - m.conj())) < 1e-12

    def test_refuses_non_hermitian_variant(self, alpha):
        with pytest.raises(UnsupportedVariantError):
            grid_solve(alpha, FieldConfig(0.0, 1.0, vmag_on=False), GridSpec(32, 16))

    def test_coarse_grid_fails_refinement_check(self, alpha):
        # a strong in-plane field localizes the state enough that a
        # 16-point spectral grid is visibly unconverged
        field = FieldConfig(0.0, 20.0)
        with pytest.raises(AccuracyError, match="refinement"):
            grid_solve(alpha, field, GridSpec(16, 16), refine=True)

    @pytest.mark.parametrize(
        "field", [FieldConfig(1.0, 0.0), FieldConfig(0.7, 0.7)], ids=["nu", "sector"]
    )
    def test_refinement_passes_at_production_grid(self, alpha, field):
        # no AccuracyError: the doubled grid agrees to REFINE_TOL, and the
        # coarse grid's whole spectrum comes back, ground state first; the
        # axial field takes the per-nu path, the tilted one the sector path
        eps = grid_solve(alpha, field, GridSpec(64, 16), refine=True)
        assert eps.shape == (64 * 16,)
        assert eps[0] == np.max(eps)


class TestSectorBlocks:
    @pytest.mark.parametrize(
        "field",
        [
            FieldConfig(1.3, 0.7),
            FieldConfig(0.0, 2.0, vc_on=False),
            FieldConfig(2.0, 0.0),
            FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False),
            FieldConfig(0.0, 2.0),
        ],
    )
    def test_joined_spectra_match_dense_reference(self, alpha, field):
        blocks = _sector_blocks(alpha, field, GRID)
        joined = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        reference = np.linalg.eigvalsh(_build_operator(alpha, field, GRID))
        assert np.max(np.abs(joined - reference)) < 1e-10

    def test_blocks_are_real_symmetric(self, alpha):
        for field in (FieldConfig(1.3, 0.7), FieldConfig(0.0, 2.0)):
            for block in _sector_blocks(alpha, field, GRID):
                assert block.dtype == np.float64
                assert np.max(np.abs(block - block.T)) < 1e-12

    def test_in_plane_field_splits_into_four_sectors(self, alpha):
        # inversion x C2 about the field axis: four blocks of about a
        # quarter of the grid each, where a tilted field has two halves
        blocks = _sector_blocks(alpha, FieldConfig(0.0, 2.0), GridSpec(64, 32))
        assert [b.shape[0] for b in blocks] == [545, 479, 481, 543]
        blocks = _sector_blocks(alpha, FieldConfig(1.3, 0.7), GridSpec(64, 32))
        assert [b.shape[0] for b in blocks] == [1024, 1024]

    @pytest.mark.parametrize("tau0,tau1", [(1.3, 0.7), (0.0, 1.1)])
    def test_rows_are_the_labelled_grid_vectors(self, alpha, tau0, tau1):
        # each block is the dense operator between the grid vectors that
        # sector_rows names, so the labels the other tests read are right
        field = FieldConfig(tau0, tau1)
        nt, n = GRID.n_theta, GRID.n_phi
        phi = np.arange(n) * 2.0 * np.pi / n
        nu_all = np.fft.fftfreq(n, d=1.0 / n)
        harmonic = np.exp(1j * np.outer(phi, nu_all)) / np.sqrt(n)
        theta_cols = np.hstack(oracle._reflection_bases(nt))
        m = _build_operator(alpha, field, GRID)
        blocks = _sector_blocks(alpha, field, GRID)
        for block, (key, nu, sign) in zip(blocks, sector_rows(GRID, tau0 == 0.0)):
            # (e_nu + sign e_-nu) / |.|: plain e_nu where -nu is nu itself
            # or where the layout does not pair them
            paired = (tau0 == 0.0) & (nu % n != -nu % n)
            nu_cols = harmonic[:, nu % n] + paired * sign * harmonic[:, -nu % n]
            nu_cols /= np.sqrt(1.0 + paired)
            q = (theta_cols[:, None, key] * nu_cols[None, :, :]).reshape(nt * n, -1)
            assert np.max(np.abs(q.conj().T @ m @ q - block)) < 1e-10

    @pytest.mark.parametrize("grid", [GRID, GridSpec(64, 32)], ids=["32x16", "64x32"])
    @pytest.mark.parametrize(
        "tau0,tau1",
        [(1.3, 0.7), (math.sin(math.pi / 4), math.cos(math.pi / 4)), (-2.0, 1.0), (2.0, 0.0)],
    )
    def test_off_plane_blocks_match_kron_reference_bitwise(self, alpha, tau0, tau1, grid):
        # the nu scatter skips only products with a zero nu entry
        field = FieldConfig(tau0, tau1)
        blocks = list(_sector_blocks(alpha, field, grid))
        reference = reference_sector_blocks(alpha, field, grid)
        assert len(blocks) == len(reference) == 2
        for block, ref in zip(blocks, reference):
            assert np.array_equal(block, ref)

    @pytest.mark.parametrize("tau0,tau1", [(1.3, 0.7), (0.0, 2.0), (2.0, 0.0)])
    def test_field_reversal_relabels_nu(self, alpha, tau0, tau1):
        # reversing the field maps nu -> -nu (Nyquist fixed) and nothing
        # else; in plane the rows are eigenvectors of that map, so it only
        # flips the sign of the reflection-odd ones
        in_plane = tau0 == 0.0
        blocks = _sector_blocks(alpha, FieldConfig(tau0, tau1), GRID)
        reversed_ = _sector_blocks(alpha, FieldConfig(-tau0, -tau1), GRID)
        rows = sector_rows(GRID, in_plane)
        for block, block_rev, (key, nu, sign) in zip(blocks, reversed_, rows):
            if in_plane:
                relabelled = sign[:, None] * block_rev * sign[None, :]
            else:
                nu_rev = np.where(nu == -GRID.n_phi // 2, nu, -nu)
                row = {(k, n): r for r, (k, n) in enumerate(zip(key, nu))}
                perm = np.array([row[k, n] for k, n in zip(key, nu_rev)])
                relabelled = block_rev[np.ix_(perm, perm)]
            assert np.max(np.abs(relabelled - block)) == 0.0
            assert np.max(np.abs(block_rev - block)) > 0.1

    def test_axial_field_conserves_nu(self, alpha):
        # largest entry between rows of different nu (|nu| in plane), over
        # every block
        def cross_nu(field):
            blocks = _sector_blocks(alpha, field, GRID)
            return max(
                np.max(np.abs(block[nu[:, None] != nu[None, :]]))
                for block, (_, nu, _) in zip(blocks, sector_rows(GRID, field.tau0 == 0.0))
            )

        assert cross_nu(FieldConfig(2.0, 0.0)) == 0.0
        assert cross_nu(FieldConfig(0.0, 0.0)) == 0.0
        assert cross_nu(FieldConfig(0.0, 2.0)) > 0.1

    def test_free_particle_sector_a_annihilates_flat_state(self, alpha):
        # sqrt(F) at nu = 0 is theta-even and reflection-even, so it lies in
        # the C2-even half of sector A, the first block; its coordinates on
        # the even combinations carry sqrt(2) off the ends
        field = FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False)
        block_a = next(_sector_blocks(alpha, field, GRID))
        half = GRID.n_theta // 2
        theta = np.arange(half + 1) * 2.0 * np.pi / GRID.n_theta
        coords = np.sqrt(1.0 + alpha * np.cos(theta))
        coords[1:half] *= np.sqrt(2.0)
        key, nu, _ = sector_rows(GRID, in_plane=True)[0]
        flat = np.zeros(block_a.shape[0])
        flat[(key <= half) & (nu == 0)] = coords
        assert np.linalg.norm(block_a @ flat) / np.linalg.norm(flat) < 1e-6


AXIAL_FIELDS = [
    FieldConfig(2.0, 0.0),
    FieldConfig(-3.0, 0.0),
    FieldConfig(1.0, 0.0, vc_on=False),
    FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False),
]


def _never(*args, **kwargs):
    raise AssertionError("built the blocks of the other path")


class TestNuBlocks:
    @pytest.mark.parametrize("grid", [GRID, GridSpec(64, 32)], ids=["32x16", "64x32"])
    @pytest.mark.parametrize("field", AXIAL_FIELDS)
    def test_spectrum_matches_dense_reference_and_sectors(self, alpha, field, grid):
        eps = grid_solve(alpha, field, grid)
        reference = np.linalg.eigvalsh(_build_operator(alpha, field, grid))[::-1]
        assert np.max(np.abs(eps - reference)) < 1e-10
        blocks = _sector_blocks(alpha, field, grid)
        joined = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[::-1]
        assert np.max(np.abs(eps - joined)) < 1e-10
        assert abs(eps[0] - joined[0]) < 1e-11

    @pytest.mark.parametrize("field", AXIAL_FIELDS)
    def test_stack_is_real_symmetric_per_nu(self, alpha, field):
        # one stack per theta parity, each one block per nu
        stacks = _nu_blocks(alpha, field, GRID)
        half = GRID.n_theta // 2
        assert [stack.shape for stack in stacks] == [
            (GRID.n_phi, half + 1, half + 1),
            (GRID.n_phi, half - 1, half - 1),
        ]
        for stack in stacks:
            assert stack.dtype == np.float64
            for block in stack:
                assert np.max(np.abs(block - block.T)) < 1e-12

    @pytest.mark.parametrize("field", [FieldConfig(0.0, 0.0), FieldConfig(2.0, 0.0)])
    def test_axial_field_never_builds_sector_blocks(self, alpha, monkeypatch, field):
        monkeypatch.setattr(oracle, "_sector_blocks", _never)
        eps = grid_solve(alpha, field, GRID, refine=True)
        assert eps.shape == (GRID.n_theta * GRID.n_phi,)

    @pytest.mark.parametrize(
        "field",
        [
            FieldConfig(1.3, 0.7),
            FieldConfig(0.0, 2.0),
            # a tilt of pi/2 leaves tau1 = cos(pi/2) ~ 6e-17, not zero
            FieldConfig(math.sin(math.pi / 2), math.cos(math.pi / 2)),
        ],
    )
    def test_in_plane_component_never_builds_nu_blocks(self, alpha, monkeypatch, field):
        assert field.tau1 != 0.0
        monkeypatch.setattr(oracle, "_nu_blocks", _never)
        eps = grid_solve(alpha, field, GRID)
        assert eps.shape == (GRID.n_theta * GRID.n_phi,)


@pytest.mark.parametrize(
    "field,calls,ndim",
    [
        (FieldConfig(0.0, 2.0), 4, 2),
        (FieldConfig(1.3, 0.7), 2, 2),
        (FieldConfig(2.0, 0.0), 2, 3),
        (FieldConfig(0.0, 0.0), 2, 3),
    ],
    ids=["in_plane", "tilted", "axial", "zero"],
)
def test_every_block_solved_through_module_eigh(alpha, monkeypatch, field, calls, ndim):
    # one oracle.eigh call per block (a stack per theta parity for an axial
    # field) and no other dense solve, so timing that name times the oracle
    shapes = []
    solve = oracle.eigh

    def counted(a):
        shapes.append(a.ndim)
        return solve(a)

    def other_solve(*args, **kwargs):
        raise AssertionError("dense solve outside oracle.eigh")

    monkeypatch.setattr(oracle, "eigh", counted)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, other_solve)
    eps = grid_solve(alpha, field, GRID)
    assert shapes == [ndim] * calls
    assert eps.shape == (GRID.n_theta * GRID.n_phi,)
