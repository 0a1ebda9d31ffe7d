"""Brute-force reference solver on a periodic (theta, phi) grid.

Independent of the basis-expansion pipeline: the surface operator is
discretized with spectral (Fourier) differentiation matrices on a uniform
periodic grid, after the similarity transform psi -> F^{1/2} psi that
flattens the weighted measure.  In the transformed frame the theta kinetic
term becomes diag(F^{-1/2}) D F D diag(F^{-1/2}), exactly symmetric for an
antisymmetric first-derivative matrix D, and each paramagnetic coupling
i c(theta, phi) d/dx is represented by the Hermitian product
(i/2)(c D + D c).  That symmetrization is not an approximation here: its
anti-Hermitian remainder (i/2)(dc/dx) reproduces exactly the magnetic
curvature coupling of the surface Hamiltonian, so the grid operator is the
full physical operator with both geometric potentials available.  For the
same reason the oracle cannot represent the artificial variant that drops
the magnetic coupling at nonzero in-plane field, and refuses it.

Eigenvalues are extracted with a dense Hermitian eigenvalue-only solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldConfig
from .geometry import TorusGeometry, metric_factor_f


# bound at module scope so perfbench/spans.py can time the dense solve alone
eigh = np.linalg.eigvalsh


class AccuracyError(RuntimeError):
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


def _build_operator(
    geom: TorusGeometry, field: FieldConfig, grid: GridSpec
) -> np.ndarray:
    al = geom.alpha
    t0, t1 = field.tau0, field.tau1
    nt, np_ = grid.n_theta, grid.n_phi
    theta = np.arange(nt) * 2.0 * np.pi / nt
    phi = np.arange(np_) * 2.0 * np.pi / np_
    f = metric_factor_f(geom, theta)

    d1t = fourier_diff_matrix(nt, 1)
    d2t = fourier_diff_matrix(nt, 2)
    d1p = fourier_diff_matrix(np_, 1)
    d2p = fourier_diff_matrix(np_, 2)
    eye_t, eye_p = np.eye(nt), np.eye(np_)

    # theta kinetic block: the similarity transform turns the
    # first-derivative term into the exact local potential
    # W = -F''/(2F) + F'^2/(4F^2), leaving a plain second derivative.
    # (Discretizing F^{-1/2} D F D F^{-1/2} instead would hand the Nyquist
    # mode a spurious zero kinetic eigenvalue through the odd-order D.)
    w_t = 0.5 * al * np.cos(theta) / f + 0.25 * al**2 * np.sin(theta) ** 2 / f**2
    kin_t = d2t + np.diag(w_t)
    m = np.kron(kin_t, eye_p).astype(complex)

    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ft = 1.0 + al * np.cos(tt)

    def diag_full(values: np.ndarray) -> np.ndarray:
        return values.ravel()

    # centrifugal phi term and the purely diagonal potentials
    m += diag_full(al**2 / ft**2)[:, None] * np.kron(eye_t, d2p)
    diag = -0.25 * t0**2 * al**2 * ft**2
    diag = diag - 0.25 * t1**2 * al**2 * ft**2 * np.sin(pp) ** 2
    diag = diag - 0.25 * t1**2 * al**4 * np.sin(tt) ** 2
    diag = diag + 0.5 * t0 * t1 * al**3 * ft * np.sin(tt) * np.cos(pp)
    if field.vc_on:
        diag = diag + 0.25 / ft**2
    m[np.diag_indices_from(m)] += diag_full(diag)

    # axial paramagnetic term: constant coefficient, already Hermitian
    m += 1j * t0 * al**2 * np.kron(eye_t, d1p)

    if t1 != 0.0:
        # in-plane paramagnetic couplings as symmetrized products; the
        # symmetrization remainder is the magnetic curvature coupling
        c_phi = diag_full(-t1 * al**3 * np.sin(tt) * np.cos(pp) / ft)
        dphi = np.kron(eye_t, d1p)
        m += 0.5j * (c_phi[:, None] * dphi + dphi * c_phi[None, :])
        c_th = diag_full(al * t1 * np.sin(pp) * (al + np.cos(tt)))
        dth = np.kron(d1t, eye_p)
        m += 0.5j * (c_th[:, None] * dth + dth * c_th[None, :])
    return m


def grid_solve(
    geom: TorusGeometry,
    field: FieldConfig,
    grid: GridSpec = GridSpec(),
    refine: bool = False,
    refine_tol: float = 1e-4,
) -> np.ndarray:
    """Raw eigenvalues of the grid operator, ground state (largest) first.

    With refine=True the solve is repeated at doubled n_theta and an
    AccuracyError carrying both ground values is raised if they differ by
    more than refine_tol.
    """
    if not field.vmag_on and field.tau1 != 0.0:
        raise UnsupportedVariantError(
            "the grid oracle represents only the self-adjoint operator; "
            "dropping the magnetic curvature coupling at tau1 != 0 yields a "
            "non-Hermitian variant it cannot discretize"
        )
    # the operator is Hermitian to rounding, so eigvalsh can read its lower
    # triangle as it is, without a symmetrized copy
    w = eigh(_build_operator(geom, field, grid))[::-1]
    if refine:
        fine = grid_solve(geom, field, GridSpec(2 * grid.n_theta, grid.n_phi))
        delta = abs(fine[0] - w[0])
        if delta > refine_tol:
            raise AccuracyError(
                f"ground eigenvalue moved by {delta:.3e} on refinement "
                f"({w[0]:.8f} at n_theta={grid.n_theta} vs "
                f"{fine[0]:.8f} at {2 * grid.n_theta})"
            )
    return w
