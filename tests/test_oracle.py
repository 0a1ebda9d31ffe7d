"""Spectral grid discretization cross-validating the basis pipeline.

`_build_operator` below is the oracle's operator as a dense complex matrix
on the (theta, phi) grid, with every coupling written on the grid points.
The exact symmetries the oracle relies on are tested on it as maps of the
grid points (inversion, C2 about the in-plane field axis, theta-reflection
at tau1 = 0, field reversal).  An axial field's nu blocks must reproduce
its spectrum, and `grid_solve` the ground state and inversion sector of its
halves under inversion; at any field, every block its Weyl bound leaves
unsolved must lie below the top of the nu blocks, which is that ground at
tau1 = 0 and shifts the sector solve's preconditioner otherwise.
`helpers.reference_sector_blocks` builds the two inversion sectors with
np.kron: each must be the dense operator between the grid vectors that
`sector_rows` names, the oracle's matrix-free operator must match it in
each sector, and the ground state that LOBPCG returns must be the largest
of the two blocks' top eigenvalues, with its sector.
"""

import math
import re
import time

import numpy as np
import pytest

from torusmag import oracle
from torusmag.field import FieldConfig
from torusmag.oracle import (
    AccuracyError,
    ConvergenceError,
    GridSpec,
    GroundState,
    UnsupportedVariantError,
    _nu_blocks,
    _ritz_coefficients,
    fourier_diff_matrix,
    grid_solve,
    lobpcg_max,
)

from helpers import assemble_variant, reference_sector_blocks, solve_ground


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


def sector_rows(grid: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(theta key, nu) of every row of each `reference_sector_blocks` block.

    Each block's rows are its theta-even part then its theta-odd part, the
    theta index slowest and nu in FFT order; theta keys number the even
    combinations of `oracle._reflection_bases` 0..n_theta/2 and the odd ones
    after them.  Sector A pairs theta-even with even nu and theta-odd with
    odd nu, sector B the other way.
    """
    n_even, n_odd = grid.n_theta // 2 + 1, grid.n_theta // 2 - 1
    theta_keys = (np.arange(n_even), n_even + np.arange(n_odd))
    nu = np.fft.fftfreq(grid.n_phi, d=1.0 / grid.n_phi).astype(int)
    by_parity = (nu[0::2], nu[1::2])
    blocks = []
    for m in (0, 1):
        pairs = list(zip(theta_keys, (by_parity[m], by_parity[1 - m])))
        key = np.concatenate([np.repeat(t, len(n)) for t, n in pairs])
        blocks.append((key, np.concatenate([np.tile(n, len(t)) for t, n in pairs])))
    return blocks


def sector_columns(grid: GridSpec) -> list[np.ndarray]:
    """Per inversion sector, its `sector_rows` as orthonormal columns on the
    oracle's real (theta, nu) array, flattened with theta slowest."""
    theta_cols = np.hstack(oracle._reflection_bases(grid.n_theta))
    nu_cols = np.eye(grid.n_phi)
    return [
        (theta_cols[:, None, key] * nu_cols[None, :, nu % grid.n_phi]).reshape(-1, len(key))
        for key, nu in sector_rows(grid)
    ]


def dense_sector_spectra(m: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Ascending spectra of the dense operator m on the grid vectors even
    (sector A) and odd (sector B) under inversion, (i, j) -> (-i, j + n_phi/2).

    Inversion pairs every grid point with another, so each half is spanned
    by (delta_p +- delta_Ip)/sqrt(2), one per pair."""
    i = -np.arange(grid.n_theta) % grid.n_theta
    j = (np.arange(grid.n_phi) + grid.n_phi // 2) % grid.n_phi
    image = (i[:, None] * grid.n_phi + j[None, :]).ravel()
    p = np.flatnonzero(np.arange(len(image)) < image)  # one point of each pair
    ip = image[p]
    return [
        np.linalg.eigvalsh(0.5 * (m[np.ix_(p, p)] + m[np.ix_(ip, ip)]
                                  + sign * (m[np.ix_(p, ip)] + m[np.ix_(ip, p)])))
        for sign in (1.0, -1.0)
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

    def test_built_once_and_read_only(self):
        # every caller shares the one build, so none may write to it
        d = fourier_diff_matrix(24, 2)
        assert fourier_diff_matrix(24, 2) is d
        with pytest.raises(ValueError, match="read-only"):
            d[0, 0] = 1.0


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
        eps_basis = solve_ground(assemble_variant(field, basis), basis).eps0
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

    @pytest.mark.parametrize("tau1", [1e50, 1e100, 1e150, 1e154, 1e160])
    def test_overflowing_field_is_refused_by_name(self, tau1):
        # an array overflow in the iteration (a RuntimeWarning the suite
        # turns into an error) or tau1**2 of a float, named as the field's
        # overflow within a tenth of a second
        start = time.perf_counter()
        message = f"field tau0=0, tau1={tau1:g} is out of range: the grid operator overflows"
        with pytest.raises(OverflowError, match=re.escape(message)):
            grid_solve(0.5, FieldConfig(0.0, tau1), GridSpec(16, 16))
        assert time.perf_counter() - start < 0.1

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
        # coarse grid's ground state comes back; the axial field takes the
        # per-nu path, the tilted one the matrix-free sector path
        ground = grid_solve(alpha, field, GridSpec(64, 16), refine=True)
        assert isinstance(ground, GroundState)
        assert ground.sector in (0, 1)
        assert ground[0] == ground.eps0 == grid_solve(alpha, field, GridSpec(64, 16)).eps0


class TestSectorBlocks:
    """Checks on the test-side np.kron reference of the inversion sectors."""

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
        blocks = reference_sector_blocks(alpha, field, GRID)
        joined = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        reference = np.linalg.eigvalsh(_build_operator(alpha, field, GRID))
        assert np.max(np.abs(joined - reference)) < 1e-10

    def test_blocks_are_real_symmetric(self, alpha):
        for field in (FieldConfig(1.3, 0.7), FieldConfig(0.0, 2.0)):
            for block in reference_sector_blocks(alpha, field, GRID):
                assert block.dtype == np.float64
                assert np.max(np.abs(block - block.T)) < 1e-12

    @pytest.mark.parametrize("tau0,tau1", [(1.3, 0.7), (0.0, 1.1)])
    def test_rows_are_the_labelled_grid_vectors(self, alpha, tau0, tau1):
        # each block is the dense operator between the grid vectors that
        # sector_rows names, so the labels the other tests read are right
        field = FieldConfig(tau0, tau1)
        nt, n = GRID.n_theta, GRID.n_phi
        phi = np.arange(n) * 2.0 * np.pi / n
        harmonic = np.exp(1j * np.outer(phi, np.arange(n))) / np.sqrt(n)
        theta_cols = np.hstack(oracle._reflection_bases(nt))
        m = _build_operator(alpha, field, GRID)
        blocks = reference_sector_blocks(alpha, field, GRID)
        for block, (key, nu) in zip(blocks, sector_rows(GRID)):
            q = (theta_cols[:, None, key] * harmonic[None, :, nu % n]).reshape(nt * n, -1)
            assert np.max(np.abs(q.conj().T @ m @ q - block)) < 1e-10

    @pytest.mark.parametrize("grid", [GRID, GridSpec(64, 32)], ids=["32x16", "64x32"])
    @pytest.mark.parametrize(
        "tau0,tau1",
        [(1.3, 0.7), (math.sin(math.pi / 4), math.cos(math.pi / 4)), (-2.0, 1.0), (2.0, 0.0),
         (0.0, 2.0)],
        ids=["1.3-0.7", "quarter_tilt", "-2.0-1.0", "2.0-0.0", "0.0-2.0"],
    )
    def test_apply_matches_kron_reference(self, alpha, monkeypatch, tau0, tau1, grid):
        # the matrix-free operator that LOBPCG is handed, applied to each
        # sector's columns, keeps the sector and is the kron block there; the
        # preconditioner keeps the sector too.  The apply multiplies a
        # diagonal theta matrix entrywise, which in plane includes the zero
        # ones of the tau0 terms
        field = FieldConfig(tau0, tau1)
        solves = captured_solves(monkeypatch, alpha, field, grid)
        blocks = reference_sector_blocks(alpha, field, grid)
        for (apply, precondition, start), q, block in zip(solves, sector_columns(grid), blocks):
            hq = np.stack([apply(col) for col in q.T], axis=1)
            qhq, scale = q.T @ hq, np.max(np.abs(block))
            assert np.max(np.abs(qhq - block)) < 1e-13 * scale
            assert np.max(np.abs(hq - q @ qhq)) < 1e-13 * scale
            for x in (start, precondition(start)):
                assert np.linalg.norm(x - q @ (q.T @ x)) < 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("tau0,tau1", [(1.3, 0.7), (0.0, 2.0), (2.0, 0.0)])
    def test_field_reversal_relabels_nu(self, alpha, tau0, tau1):
        # reversing the field maps nu -> -nu (Nyquist fixed) and nothing else
        blocks = reference_sector_blocks(alpha, FieldConfig(tau0, tau1), GRID)
        reversed_ = reference_sector_blocks(alpha, FieldConfig(-tau0, -tau1), GRID)
        for block, block_rev, (key, nu) in zip(blocks, reversed_, sector_rows(GRID)):
            nu_rev = np.where(nu == -GRID.n_phi // 2, nu, -nu)
            row = {(k, n): r for r, (k, n) in enumerate(zip(key, nu))}
            perm = np.array([row[k, n] for k, n in zip(key, nu_rev)])
            assert np.max(np.abs(block_rev[np.ix_(perm, perm)] - block)) == 0.0
            assert np.max(np.abs(block_rev - block)) > 0.1

    def test_axial_field_conserves_nu(self, alpha):
        # largest entry between rows of different nu, over both blocks
        def cross_nu(field):
            blocks = reference_sector_blocks(alpha, field, GRID)
            return max(
                np.max(np.abs(block[nu[:, None] != nu[None, :]]))
                for block, (_, nu) in zip(blocks, sector_rows(GRID))
            )

        assert cross_nu(FieldConfig(2.0, 0.0)) == 0.0
        assert cross_nu(FieldConfig(0.0, 0.0)) == 0.0
        assert cross_nu(FieldConfig(0.0, 2.0)) > 0.1

    def test_free_particle_sector_a_annihilates_flat_state(self, alpha):
        # sqrt(F) at nu = 0 is theta-even, so it lies in sector A, the first
        # block; its coordinates on the even combinations carry sqrt(2) off
        # the ends
        field = FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False)
        block_a = reference_sector_blocks(alpha, field, GRID)[0]
        half = GRID.n_theta // 2
        theta = np.arange(half + 1) * 2.0 * np.pi / GRID.n_theta
        coords = np.sqrt(1.0 + alpha * np.cos(theta))
        coords[1:half] *= np.sqrt(2.0)
        key, nu = sector_rows(GRID)[0]
        flat = np.zeros(block_a.shape[0])
        flat[(key <= half) & (nu == 0)] = coords
        assert np.linalg.norm(block_a @ flat) / np.linalg.norm(flat) < 1e-6


def captured_solves(monkeypatch, alpha, field, grid):
    """(apply, precondition, start) of each `lobpcg_max` call, sector A then
    B, that the matrix-free path makes for the field; nothing is solved."""
    calls = []

    def capture(apply, precondition, x):
        calls.append((apply, precondition, x))
        return 0.0

    monkeypatch.setattr(oracle, "lobpcg_max", capture)
    # called directly, so an axial field takes the matrix-free path too,
    # shifted as grid_solve shifts it
    terms = oracle._grid_terms(alpha, field, grid)
    stacks = _nu_blocks(terms, grid.n_theta)
    top = oracle._diagonal_ground(terms, stacks, grid.n_theta).eps0
    oracle._sector_ground(terms, stacks, grid, top + 0.1)
    return calls


TILT = (math.sin(math.pi / 4), math.cos(math.pi / 4))
# the seven distinct fields of `verify`: tau = 0, then axial, tilted and in
# plane at tau = 1 and 2
VERIFY_FIELDS = [FieldConfig(0.0, 0.0)] + [
    FieldConfig(tau * t0, tau * t1)
    for t0, t1 in ((1.0, 0.0), TILT, (0.0, 1.0))
    for tau in (1.0, 2.0)
]
# the pi/4 tilt around the crossing of the two sectors' ground levels
CROSSING_FIELDS = [FieldConfig(tau * TILT[0], tau * TILT[1]) for tau in (2.5, 2.62, 2.63, 2.8)]


@pytest.mark.parametrize(
    "al,field",
    [(al, f) for al in (0.5, 0.8, 0.95) for f in VERIFY_FIELDS]
    + [(0.5, f) for f in CROSSING_FIELDS],
    ids=[f"verify{k}-{al}" for al in (0.5, 0.8, 0.95) for k in range(7)]
    + [f"crossing{tau}" for tau in (2.5, 2.62, 2.63, 2.8)],
)
def test_ground_matches_reference_sector_blocks(al, field):
    grid = GridSpec(64, 32)
    tops = [np.linalg.eigvalsh(b)[-1] for b in reference_sector_blocks(al, field, grid)]
    ground = grid_solve(al, field, grid)
    assert abs(ground.eps0 - max(tops)) < 1e-10
    assert ground.sector == int(np.argmax(tops))


# largest number of operator applies in one sector's LOBPCG over `verify`'s
# tau1 != 0 fields at 64x32, per alpha; the solves take 15 to 45, 14 to 43
# and 10 to 32
MAX_SECTOR_APPLIES = {0.5: 50, 0.8: 55, 0.95: 40}


@pytest.mark.parametrize("al", sorted(MAX_SECTOR_APPLIES))
def test_sector_solves_take_few_applies(al, monkeypatch):
    # the seeded start makes each count repeat
    counts = []
    iterative = oracle.lobpcg_max

    def counted_lobpcg(apply, precondition, x):
        applies = []

        def counted_apply(v):
            applies.append(1)
            return apply(v)

        eps = iterative(counted_apply, precondition, x)
        counts.append(len(applies))
        return eps

    monkeypatch.setattr(oracle, "lobpcg_max", counted_lobpcg)
    for field in VERIFY_FIELDS:
        if field.tau1 != 0.0:
            grid_solve(al, field, GridSpec(64, 32))
    assert len(counts) == 8  # two sectors for each of four fields
    assert max(counts) <= MAX_SECTOR_APPLIES[al]


def test_crossing_changes_the_ground_sector(alpha):
    # on the pi/4 tilt the grid's ground state moves from sector A to sector
    # B at tau = 2.5948, so the crossing fields above hold both sectors
    sectors = [grid_solve(alpha, f, GridSpec(64, 32)).sector for f in CROSSING_FIELDS]
    assert sectors == [0, 1, 1, 1]


def test_seeded_start_repeats_bitwise(alpha):
    field = FieldConfig(0.7, 0.7)
    assert grid_solve(alpha, field, GRID).eps0 == grid_solve(alpha, field, GRID).eps0


def test_strong_in_plane_field_ends_in_convergence_error():
    # D's top shifts the preconditioner at any field strength, so a field
    # far beyond what the grid resolves ends in the iteration cap; it used
    # to hang while choosing the shift
    with pytest.raises(ConvergenceError):
        grid_solve(0.5, FieldConfig(0.0, 1e9), GridSpec(16, 16))


def test_iteration_cap_raises_convergence_error(alpha, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="1 iterations"):
        grid_solve(alpha, FieldConfig(0.7, 0.7), GRID)
    assert issubclass(ConvergenceError, ArithmeticError)


def test_lobpcg_finds_largest_of_diagonal_operator():
    # the preconditioner keeps the even entries only: the largest
    # eigenvalue there, 4.0, not the overall 9.0
    d = np.array([1.0, 9.0, 4.0, -2.0, 0.5, 3.0])
    even = np.arange(6) % 2 == 0
    start = np.where(even, 1.0, 0.0)
    largest = lobpcg_max(lambda x: d * x, lambda r: np.where(even, r, 0.0), start)
    assert largest == pytest.approx(4.0, abs=1e-12)
    assert lobpcg_max(lambda x: d * x, lambda r: r, np.ones(6)) == pytest.approx(9.0)


class TestRitzStep:
    def _rows(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((8, 8))
        h = h + h.T
        x, w = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 8)))
        return h, x, w

    @pytest.mark.parametrize("nudge", [0.0, 1e-12], ids=["equal", "nearly"])
    def test_dependent_last_step_is_dropped(self, nudge):
        # p along x makes [x, w, p] rank-deficient: the step is taken on
        # [x, w] alone, with no LinAlgError from the Cholesky factorization
        h, x, w = self._rows()
        p = x + nudge * w
        p /= np.linalg.norm(p)
        s = np.array([x, w, p])
        c = _ritz_coefficients(s, s @ h)
        assert len(c) == 2
        assert np.allclose(c, _ritz_coefficients(s[:2], s[:2] @ h))

    def test_ritz_vector_is_the_largest_on_the_span(self):
        h, x, w = self._rows()
        s = np.array([x, w])
        v = _ritz_coefficients(s, s @ h) @ s
        q, _ = np.linalg.qr(s.T)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v @ h @ v == pytest.approx(np.linalg.eigvalsh(q.T @ h @ q)[-1])

    def test_residual_along_iterate_is_a_numerical_error(self):
        h, x, _ = self._rows()
        s = np.array([x, x])
        with pytest.raises(ConvergenceError):
            _ritz_coefficients(s, s @ h)


AXIAL_FIELDS = [
    FieldConfig(2.0, 0.0),
    FieldConfig(-3.0, 0.0),
    FieldConfig(1.0, 0.0, vc_on=False),
    FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False),
]


def _never(*args, **kwargs):
    raise AssertionError("took the other path")


def field_nu_blocks(alpha, field, grid):
    """The `_nu_blocks` stacks of the field's `_grid_terms`."""
    return _nu_blocks(oracle._grid_terms(alpha, field, grid), grid.n_theta)


FIELD_KINDS = {
    "axial": FieldConfig(2.0, 0.0),
    "tilted": FieldConfig(1.3, 0.7),
    "in_plane": FieldConfig(0.0, 2.0),
}


class TestBuiltOncePerField:
    @pytest.mark.parametrize("refine", [False, True], ids=["coarse", "refine"])
    @pytest.mark.parametrize("field", FIELD_KINDS.values(), ids=FIELD_KINDS)
    def test_terms_and_nu_blocks_built_once_per_grid(self, alpha, monkeypatch, field, refine):
        # whichever path runs, it reads the one build of each on its grid
        calls = []
        for name in ("_grid_terms", "_nu_blocks"):
            def counted(*args, _name=name, _build=getattr(oracle, name)):
                calls.append((_name, args[-1]))
                return _build(*args)

            monkeypatch.setattr(oracle, name, counted)
        grid_solve(alpha, field, GRID, refine=refine)
        grids = [GRID, GridSpec(2 * GRID.n_theta, GRID.n_phi)][: 1 + refine]
        assert calls == [c for g in grids for c in (("_grid_terms", g), ("_nu_blocks", g.n_theta))]

    @pytest.mark.parametrize("grid", [GRID, GridSpec(64, 32)], ids=["32x16", "64x32"])
    @pytest.mark.parametrize("field", FIELD_KINDS.values(), ids=FIELD_KINDS)
    def test_nu_blocks_equal_the_all_terms_sum(self, alpha, field, grid):
        # the skipped terms' zero nu diagonals add nothing but signs of zeros
        terms = oracle._grid_terms(alpha, field, grid)
        every_term = [sum((q.T @ a @ q) * np.diag(b)[:, None, None] for a, b in terms)
                      for q in oracle._reflection_bases(grid.n_theta)]
        for stack, reference in zip(_nu_blocks(terms, grid.n_theta), every_term, strict=True):
            assert np.array_equal(stack, reference)


class TestNuBlocks:
    @pytest.mark.parametrize("grid", [GRID, GridSpec(64, 32)], ids=["32x16", "64x32"])
    @pytest.mark.parametrize("field", AXIAL_FIELDS)
    def test_spectrum_matches_dense_reference_and_sectors(self, alpha, field, grid):
        # the stacks hold the dense operator's whole spectrum, and grid_solve
        # returns its largest eigenvalue and the inversion half holding it
        halves = dense_sector_spectra(_build_operator(alpha, field, grid), grid)
        stacks = np.concatenate([oracle.eigh(s).ravel() for s in field_nu_blocks(alpha, field, grid)])
        assert np.max(np.abs(np.sort(stacks) - np.sort(np.concatenate(halves)))) < 1e-10
        ground = grid_solve(alpha, field, grid)
        tops = [h[-1] for h in halves]
        assert abs(ground.eps0 - max(tops)) < 1e-10
        assert ground.sector == int(np.argmax(tops))
        assert abs(tops[0] - tops[1]) > 1e-3  # the sector is not a tie

    @pytest.mark.parametrize(
        "grid", [GridSpec(16, 16), GridSpec(64, 32), GridSpec(128, 32)],
        ids=["16x16", "64x32", "128x32"],
    )
    def test_skipped_blocks_lie_below_the_ground(self, monkeypatch, grid):
        # every block grid_solve leaves unsolved has a top below D's top,
        # the largest of the whole stacks' tops; an axial field's ground and
        # its sector are D's top and its block's, and any other field hands
        # D's top + 0.1 to the sector solve as its shift.  The first two
        # solves are the bounds' theta blocks, not nu blocks
        dense, build, solved, built, shifts = oracle.eigh, oracle._nu_blocks, [], [], []

        def recorded(a):
            solved.append(a)
            return dense(a)

        def kept(*args):
            built.append(build(*args))
            return built[-1]

        def shifted(*args):  # records sigma, the last argument
            shifts.append(args[-1])
            return GroundState(0.0, 0)

        monkeypatch.setattr(oracle, "eigh", recorded)
        monkeypatch.setattr(oracle, "_nu_blocks", kept)
        monkeypatch.setattr(oracle, "_sector_ground", shifted)
        skipped = 0
        fields = [FieldConfig(tau0, 0.0) for tau0 in (0.0, 1.0, -1.0, 2.0, 5.0, -7.3)]
        fields += [FieldConfig(*f) for f in ((1.3, 0.7), (-2.0, 1.0), (0.0, 1.0), (0.0, -3.0))]
        for al in (0.05, 0.5, 0.8, 0.95, 0.998):
            for field in fields:
                solved.clear()
                ground = grid_solve(al, field, grid)
                seen = {m.tobytes() for a in solved[2:] for m in a.reshape(-1, *a.shape[-2:])}
                stacks = built.pop()
                tops = np.array([dense(stack)[:, -1] for stack in stacks])
                parity, nu = np.unravel_index(np.argmax(tops), tops.shape)
                if field.tau1 == 0.0:
                    assert ground == (tops[parity, nu], (parity + nu) % 2)
                else:
                    assert shifts.pop() == tops[parity, nu] + 0.1
                for stack, top in zip(stacks, tops):
                    for block, block_top in zip(stack, top):
                        if block.tobytes() not in seen:
                            skipped += 1
                            assert block_top < tops[parity, nu]
        assert skipped > 0
        assert not shifts

    @pytest.mark.parametrize("field", AXIAL_FIELDS)
    def test_stack_is_real_symmetric_per_nu(self, alpha, field):
        # one stack per theta parity, each one block per nu
        stacks = field_nu_blocks(alpha, field, GRID)
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
        monkeypatch.setattr(oracle, "_sector_ground", _never)
        ground = grid_solve(alpha, field, GRID, refine=True)
        assert isinstance(ground, GroundState)

    @pytest.mark.parametrize(
        "field",
        [
            FieldConfig(1.3, 0.7),
            FieldConfig(0.0, 2.0),
            # a tilt of pi/2 leaves tau1 = cos(pi/2) ~ 6e-17, not zero
            FieldConfig(math.sin(math.pi / 2), math.cos(math.pi / 2)),
        ],
    )
    def test_in_plane_component_takes_its_ground_from_the_sectors(self, alpha, monkeypatch, field):
        # its nu blocks are solved, through oracle.eigh, for D's top alone,
        # before the one sector solve whose ground grid_solve returns
        assert field.tau1 != 0.0
        events, dense, sentinel = [], oracle.eigh, GroundState(123.0, 1)

        def counted_eigh(a):
            events.append("eigh")
            return dense(a)

        def sectors(*args):
            events.append("sectors")
            return sentinel

        monkeypatch.setattr(oracle, "eigh", counted_eigh)
        monkeypatch.setattr(oracle, "_sector_ground", sectors)
        assert grid_solve(alpha, field, GRID) is sentinel
        assert events[-1] == "sectors" and events.count("sectors") == 1
        assert events.count("eigh") >= 3


@pytest.mark.parametrize(
    "field",
    [FieldConfig(0.0, 2.0), FieldConfig(1.3, 0.7), FieldConfig(2.0, 0.0), FieldConfig(0.0, 0.0)],
    ids=["in_plane", "tilted", "axial", "zero"],
)
def test_every_block_solved_through_module_eigh(alpha, monkeypatch, field):
    # every field solves through oracle.eigh its two Weyl-bound blocks, one
    # per theta parity, its best-bounded nu block, and at most one stack per
    # theta parity of the blocks the bounds leave open; a field with tau1 !=
    # 0 then makes one lobpcg_max call per inversion sector.  No other
    # eigensolve sees more than a Rayleigh-Ritz step's 3 x 3 matrix
    eigh_shapes, sizes, runs = [], [], []
    dense, iterative = oracle.eigh, oracle.lobpcg_max

    def counted_eigh(a):
        eigh_shapes.append(a.shape)
        return dense(a)

    def counted_lobpcg(*args):
        runs.append(1)
        return iterative(*args)

    monkeypatch.setattr(oracle, "eigh", counted_eigh)
    monkeypatch.setattr(oracle, "lobpcg_max", counted_lobpcg)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def small_only(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes.append(a.shape[-1])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, small_only)
    ground = grid_solve(alpha, field, GRID)
    half = GRID.n_theta // 2
    assert eigh_shapes[:2] == [(half + 1, half + 1), (half - 1, half - 1)]
    assert len(eigh_shapes[2]) == 2
    assert [len(shape) for shape in eigh_shapes[3:]] in ([], [3], [3, 3])
    assert len(runs) == (0 if field.tau1 == 0.0 else 2)
    assert max(sizes, default=0) <= 3
    assert bool(sizes) == bool(runs)
    assert isinstance(ground, GroundState)


@pytest.mark.parametrize("field", [FieldConfig(1e200, 0.0), FieldConfig(1e200, 1.0)],
                         ids=["axial", "tilted"])
def test_overflowing_field_raises_before_any_solve(alpha, monkeypatch, field):
    monkeypatch.setattr(oracle, "eigh", _never)
    monkeypatch.setattr(oracle, "lobpcg_max", _never)
    with pytest.raises(OverflowError):
        grid_solve(alpha, field, GRID)
