"""Brute-force reference solver on a periodic (theta, phi) grid.

Independent of the basis-expansion pipeline: the surface operator is
discretized with spectral (Fourier) differentiation on a uniform periodic
grid, after the similarity transform psi -> F^{1/2} psi that flattens the
weighted measure.  In the transformed frame the theta kinetic term becomes
a plain second derivative plus a local potential, and each paramagnetic
coupling i c(theta, phi) d/dx is represented by the Hermitian product
(i/2)(c D + D c).  That symmetrization is not an approximation here: its
anti-Hermitian remainder (i/2)(dc/dx) reproduces exactly the magnetic
curvature coupling of the surface Hamiltonian, so the grid operator is the
full physical operator with both geometric potentials available.  For the
same reason the oracle cannot represent the artificial variant that drops
the magnetic coupling at nonzero in-plane field, and refuses it.

The phi direction is written in the column basis e^{i nu phi_j}/sqrt(n_phi)
of the same grid, nu in FFT order.  The antiunitary map T = (complex
conjugation) o (phi -> -phi) fixes every such vector and commutes with the
operator, so the operator is real there: i d/dphi is -diag(nu), cos(phi)
and sin(phi) shift nu by +-1 (mod n_phi, which is exact on the grid), and
every term is a real theta matrix times a real nu matrix.  Inversion
(theta, phi) -> (-theta, phi + pi) acts as theta-reflection times (-1)^nu,
so in the theta-even and theta-odd combinations (delta_i +- delta_-i)/sqrt(2)
the operator splits into two real symmetric blocks of half the grid size:
sector A = (theta-even x even nu) + (theta-odd x odd nu) and sector B =
(theta-even x odd nu) + (theta-odd x even nu).

An axial field (tau1 = 0) commutes with rotations about the torus axis, so
it conserves nu: every nu matrix of its operator is diagonal, and the
operator is one real symmetric theta block per nu, n_phi blocks of
n_theta x n_theta held as one stack.  Any other field is solved in the two
inversion sectors.  Every block is diagonalized with a dense real
eigenvalue-only solve, a stack in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldConfig


# bound at module scope so perfbench/spans.py can time the dense solve alone
eigh = np.linalg.eigvalsh

#: Largest number of grid points n_theta * n_phi; the default 64x32 grid
#: and its refinement check at 128x32 fit.
MAX_GRID_POINTS = 8192

#: Largest move of the ground eigenvalue that the refine check accepts.
REFINE_TOL = 1e-4


class AccuracyError(ArithmeticError):
    """Grid refinement moved the ground eigenvalue by more than allowed."""


class UnsupportedVariantError(ValueError):
    """Requested operator variant is outside the oracle's Hermitian scope."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid sizes in theta and phi."""

    n_theta: int = 64
    n_phi: int = 32

    def __post_init__(self) -> None:
        for name, n in (("n_theta", self.n_theta), ("n_phi", self.n_phi)):
            if n < 16 or n % 2:
                raise ValueError(f"{name} must be even and >= 16, got {n}")
        if self.n_theta * self.n_phi > MAX_GRID_POINTS:
            raise ValueError(
                f"grid {self.n_theta}x{self.n_phi} exceeds "
                f"{MAX_GRID_POINTS} points"
            )


def fourier_diff_matrix(n: int, order: int) -> np.ndarray:
    """Dense spectral differentiation matrix on n periodic points.

    Odd orders zero the Nyquist mode, which keeps the matrix exactly
    antisymmetric; even orders keep it, so second derivatives of the
    sawtooth-free integrands stay spectrally accurate.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    if order % 2:
        k = k.copy()
        k[n // 2] = 0.0
    spec = (1j * k) ** order
    return np.real(np.fft.ifft(spec[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))


def _theta_parity_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning theta-even and theta-odd grid vectors.

    Even: delta_0, (delta_i + delta_{n-i})/sqrt(2) for 0 < i < n/2, and
    delta_{n/2}; odd: (delta_i - delta_{n-i})/sqrt(2) for 0 < i < n/2.
    """
    i = np.arange(1, n // 2)
    even = np.zeros((n, n // 2 + 1))
    even[0, 0] = even[n // 2, n // 2] = 1.0
    even[i, i] = even[n - i, i] = np.sqrt(0.5)
    odd = np.zeros((n, n // 2 - 1))
    odd[i, i - 1] = np.sqrt(0.5)
    odd[n - i, i - 1] = -np.sqrt(0.5)
    return even, odd


def _grid_terms(
    al: float, field: FieldConfig, grid: GridSpec
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """The grid operator as a sum of real (theta matrix) x (nu matrix) terms.

    Each entry is (theta matrix, nu matrix, flips parity).  At tau1 = 0
    only the three terms that keep theta parity remain, and each of their
    nu matrices is diagonal.
    """
    t0, t1 = field.tau0, field.tau1
    nt, np_ = grid.n_theta, grid.n_phi
    theta = np.arange(nt) * 2.0 * np.pi / nt
    f = 1.0 + al * np.cos(theta)
    sin_t = np.sin(theta)

    nu = np.fft.fftfreq(np_, d=1.0 / np_)
    nu_d1 = nu.copy()  # nu as d/dphi sees it: Nyquist zeroed
    nu_d1[np_ // 2] = 0.0
    n_op = np.diag(nu_d1)
    shift_up = np.roll(np.eye(np_), 1, axis=0)  # e^{i phi}: nu -> nu + 1
    shift_down = shift_up.T
    cos_p = 0.5 * (shift_up + shift_down)

    # theta kinetic term: the similarity transform turns the
    # first-derivative term into the exact local potential
    # W = -F''/(2F) + F'^2/(4F^2), leaving a plain second derivative.
    # (Discretizing F^{-1/2} D F D F^{-1/2} instead would hand the Nyquist
    # mode a spurious zero kinetic eigenvalue through the odd-order D.)
    pot = 0.5 * al * np.cos(theta) / f + 0.25 * al**2 * sin_t**2 / f**2
    pot = pot - 0.25 * t0**2 * al**2 * f**2 - 0.25 * t1**2 * al**4 * sin_t**2
    if field.vc_on:
        pot = pot + 0.25 / f**2
    # (theta matrix, nu matrix, flips parity): terms that flip theta parity
    # also flip nu parity, so every term keeps the inversion sector
    terms = [
        (fourier_diff_matrix(nt, 2) + np.diag(pot), np.eye(np_), False),
        # centrifugal phi term, Nyquist kept
        (np.diag(al**2 / f**2), np.diag(-(nu**2)), False),
        # axial paramagnetic term i tau0 alpha^2 d/dphi
        (np.eye(nt), -t0 * al**2 * n_op, False),
    ]
    if t1 != 0.0:
        d1t = fourier_diff_matrix(nt, 1)
        # in-plane paramagnetic couplings as symmetrized products; the
        # symmetrization remainder is the magnetic curvature coupling
        c_th = al * t1 * (al + np.cos(theta))
        terms += [
            # sin^2(phi) = 1/2 - (e^{2i phi} + e^{-2i phi})/4
            (np.diag(-0.25 * t1**2 * al**2 * f**2),
             0.5 * np.eye(np_) - 0.25 * (shift_up @ shift_up + shift_down @ shift_down),
             False),
            # tilted cross term of |A|^2, proportional to cos(phi)
            (np.diag(0.5 * t0 * t1 * al**3 * f * sin_t), cos_p, True),
            # c_phi = -tau1 alpha^3 sin(theta) cos(phi)/F
            (np.diag(-t1 * al**3 * sin_t / f),
             -0.5 * (cos_p @ n_op + n_op @ cos_p),
             True),
            # c_theta = c_th(theta) sin(phi), sin(phi) = (S+ - S-)/(2i)
            (0.25 * (c_th[:, None] * d1t + d1t * c_th[None, :]),
             shift_up - shift_down, True),
        ]
    return terms


def _nu_blocks(al: float, field: FieldConfig, grid: GridSpec) -> np.ndarray:
    """The axial-field grid operator as one real symmetric theta block per nu.

    Entry k of the (n_phi, n_theta, n_theta) stack is the operator
    restricted to the k-th nu in FFT order.  Only valid at tau1 = 0, where
    every nu matrix of the operator is diagonal.
    """
    terms = _grid_terms(al, field, grid)
    return sum(a * np.diag(b)[:, None, None] for a, b, _ in terms)


def _sector_blocks(
    al: float, field: FieldConfig, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The grid operator as its two real symmetric inversion-sector blocks.

    Sector A rows are (theta-even x even nu) then (theta-odd x odd nu),
    sector B rows (theta-even x odd nu) then (theta-odd x even nu); within
    each part the theta index runs slowest, and nu keeps its FFT order.
    """
    terms = _grid_terms(al, field, grid)
    nt, np_ = grid.n_theta, grid.n_phi
    q_even, q_odd = _theta_parity_bases(nt)
    half = np_ // 2
    even_nu, odd_nu = slice(0, None, 2), slice(1, None, 2)
    blocks = []
    for first, second in ((even_nu, odd_nu), (odd_nu, even_nu)):
        parts = ((q_even, first), (q_odd, second))
        rows = []
        for i, (qa, sa) in enumerate(parts):
            row = []
            for j, (qb, sb) in enumerate(parts):
                quad = np.zeros((qa.shape[1] * half, qb.shape[1] * half))
                for a, b, flips in terms:
                    if flips == (i != j):
                        quad += np.kron(qa.T @ a @ qb, b[sa, sb])
                row.append(quad)
            rows.append(row)
        blocks.append(np.block(rows))
    return blocks[0], blocks[1]


def grid_solve(
    alpha: float,
    field: FieldConfig,
    grid: GridSpec = GridSpec(),
    refine: bool = False,
) -> np.ndarray:
    """Raw eigenvalues of the grid operator at aspect ratio alpha, ground
    state (largest) first.

    An axial field (tau1 == 0.0) is solved nu by nu, any other field in
    its two inversion sectors; both give the whole n_theta * n_phi spectrum.

    With refine=True the solve is repeated at doubled n_theta and an
    AccuracyError carrying both ground values is raised if they differ by
    more than REFINE_TOL.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not field.hermitian:
        raise UnsupportedVariantError(
            "the grid oracle represents only the self-adjoint operator; "
            "dropping the magnetic curvature coupling at tau1 != 0 yields a "
            "non-Hermitian variant it cannot discretize"
        )
    if field.tau1 == 0.0:
        blocks = (_nu_blocks(alpha, field, grid),)
    else:
        blocks = _sector_blocks(alpha, field, grid)
    w = np.sort(np.concatenate([eigh(b).ravel() for b in blocks]))[::-1]
    if refine:
        fine = grid_solve(alpha, field, GridSpec(2 * grid.n_theta, grid.n_phi))
        delta = abs(fine[0] - w[0])
        if delta > REFINE_TOL:
            raise AccuracyError(
                f"ground eigenvalue moved by {delta:.3e} on refinement "
                f"({w[0]:.8f} at n_theta={grid.n_theta} vs "
                f"{fine[0]:.8f} at {2 * grid.n_theta})"
            )
    return w
