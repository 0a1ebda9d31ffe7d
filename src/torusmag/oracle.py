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
every term is a real theta matrix a times a real nu matrix b: on the real
(theta, nu) array X the operator is the sum of a @ X @ b.T.  Inversion
(theta, phi) -> (-theta, phi + pi) acts on X as X[-i mod n_theta, nu] (-1)^nu
and commutes with every term; its +1 eigenspace is sector A = (theta-even x
even nu) + (theta-odd x odd nu), its -1 eigenspace sector B.

Only the ground state, the largest eigenvalue, is computed.  `grid_solve`
builds a field's terms (`_grid_terms`) and their nu-diagonal part D
(`_nu_blocks`, which skips every term whose nu matrix has a zero diagonal,
as the three that flip theta parity do) once, and finds D's top eigenvalue
(`_diagonal_ground`), one real symmetric block per nu and theta parity.
Weyl's inequality (Horn & Johnson, Matrix Analysis, Thm 4.3.1) bounds each
block's top by the top of its nu-free theta term plus the largest entries
of the other summed terms, whose theta matrices are diagonal; only the
blocks whose bound reaches the best-bounded block's top are diagonalized,
in one batched dense call per theta parity (1 to 5 of the 64 at alpha = 0.5
on verify's axial fields at 64 x 32, up to 45 at 0.95).  An axial field
(tau1 = 0) conserves nu and is symmetric under z -> -z, theta -> -theta, so
D is its whole operator and D's top its ground state.  Any other field is
applied matrix-free, the five of its seven terms whose theta matrix is
diagonal entrywise and the other two by matrix products, and LOBPCG
(Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) finds each inversion
sector's largest eigenvalue from a seeded random start projected onto the
sector; run per sector, it converges at the gap within the sector, so it
stays fast where the sectors' ground levels cross.  The preconditioner is
(sigma - D)^-1, inverted once per field, with sigma D's top plus 0.1, so
sigma - D >= 0.1; each sector applies per nu column the one theta parity
it holds there, so the preconditioned residual stays in the sector.  D
carries the full theta dependence of alpha^2/F^2, so a sector takes 15 to
45 operator applies at alpha = 0.5, 14 to 43 at 0.8 and 10 to 32 at 0.95
on verify's fields at 64x32, and 7 to 17 at 0.99 at 128x32.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .field import FieldConfig


# bound at module scope so perfbench/spans.py can time the dense solve alone
eigh = np.linalg.eigvalsh

#: Largest number of grid points n_theta * n_phi; the default 64x32 grid
#: and its refinement check at 128x32 fit.
MAX_GRID_POINTS = 8192

#: Largest move of the ground eigenvalue that the refine check accepts.
REFINE_TOL = 1e-4

#: Iterations allowed in one inversion sector, one operator apply each;
#: verify's tilted and in-plane fields take at most 45 applies at alpha =
#: 0.5, 43 at 0.8, 32 at 0.95 (64x32) and 17 at 0.99 (128x32).
MAX_ITERATIONS = 5000


class AccuracyError(ArithmeticError):
    """Grid refinement moved the ground eigenvalue by more than allowed."""


class ConvergenceError(ArithmeticError):
    """The iterative ground-state solve did not converge."""


class UnsupportedVariantError(ValueError):
    """Requested operator variant is outside the oracle's Hermitian scope."""


class GroundState(NamedTuple):
    """Largest eigenvalue and its inversion sector (0: A, 1: B)."""

    eps0: float
    sector: int


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


@cache
def fourier_diff_matrix(n: int, order: int) -> np.ndarray:
    """Dense spectral differentiation matrix on n periodic points, built
    once per (n, order) and returned read-only.

    Odd orders zero the Nyquist mode, which keeps the matrix exactly
    antisymmetric; even orders keep it, so second derivatives of the
    sawtooth-free integrands stay spectrally accurate.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    if order % 2:
        k = k.copy()
        k[n // 2] = 0.0
    spec = (1j * k) ** order
    d = np.real(np.fft.ifft(spec[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))
    d.flags.writeable = False
    return d


def _reflection_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the vectors on n periodic points that are
    even and odd under the reflection i -> -i (mod n).

    Even: delta_0, (delta_i + delta_{n-i})/sqrt(2) for 0 < i < n/2, and
    delta_{n/2}; odd: (delta_i - delta_{n-i})/sqrt(2) for 0 < i < n/2.
    Column c of the even set is led by index c, of the odd set by c + 1.
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
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The grid operator as a sum of real (theta matrix) x (nu matrix) terms.

    At tau1 = 0 only the three terms that keep theta parity remain, each
    of their nu matrices is diagonal, and so is every theta matrix but the
    first, whose nu matrix is the identity.
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
    # (theta matrix, nu matrix): the last three terms flip theta parity
    # and nu parity, the others keep both, so every term keeps the
    # inversion sector
    terms = [
        (fourier_diff_matrix(nt, 2) + np.diag(pot), np.eye(np_)),
        # centrifugal phi term, Nyquist kept
        (np.diag(al**2 / f**2), np.diag(-(nu**2))),
        # axial paramagnetic term i tau0 alpha^2 d/dphi
        (np.eye(nt), -t0 * al**2 * n_op),
    ]
    if t1 != 0.0:
        d1t = fourier_diff_matrix(nt, 1)
        # in-plane paramagnetic couplings as symmetrized products; the
        # symmetrization remainder is the magnetic curvature coupling
        c_th = al * t1 * (al + np.cos(theta))
        terms += [
            # sin^2(phi) = 1/2 - (e^{2i phi} + e^{-2i phi})/4
            (np.diag(-0.25 * t1**2 * al**2 * f**2),
             0.5 * np.eye(np_) - 0.25 * (shift_up @ shift_up + shift_down @ shift_down)),
            # tilted cross term of |A|^2, proportional to cos(phi)
            (np.diag(0.5 * t0 * t1 * al**3 * f * sin_t), cos_p),
            # c_phi = -tau1 alpha^3 sin(theta) cos(phi)/F
            (np.diag(-t1 * al**3 * sin_t / f), -0.5 * (cos_p @ n_op + n_op @ cos_p)),
            # c_theta = c_th(theta) sin(phi), sin(phi) = (S+ - S-)/(2i)
            (0.25 * (c_th[:, None] * d1t + d1t * c_th[None, :]), shift_up - shift_down),
        ]
    return terms


def _nu_blocks(terms: list, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The nu-diagonal part of the operator `terms`, all of it at tau1 = 0,
    as real symmetric theta blocks per nu: a theta-even stack
    (n_phi, n_theta/2 + 1, n_theta/2 + 1) and a theta-odd one
    (n_phi, n_theta/2 - 1, n_theta/2 - 1), entry k at the k-th nu in FFT
    order.  Only terms with a nonzero nu diagonal are summed."""
    kept = [(a, np.diag(b)) for a, b in terms if np.diag(b).any()]
    return tuple(
        sum((q.T @ a @ q) * d[:, None, None] for a, d in kept)
        for q in _reflection_bases(n_theta)
    )


def _theta_diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of the theta matrix a if it has no other nonzero entry."""
    d = np.diagonal(a)
    return d if np.count_nonzero(a) == np.count_nonzero(d) else None


def _diagonal_ground(terms: list, stacks: tuple, n_theta: int) -> GroundState:
    """The top eigenvalue of D, the `_nu_blocks` stacks of the operator
    `terms`, and its sector: the ground state at tau1 = 0, where D is the
    whole operator.

    By Weyl's inequality a block's top is at most the top of the first
    term's theta block (its nu matrix is the identity) plus, per other term
    that `_nu_blocks` sums (each has a diagonal theta matrix), the largest
    entry of its theta diagonal times its nu entry.  The best-bounded block
    is solved first; a block whose bound lies below that top, less a
    rounding margin, cannot hold D's top and is not solved.  The rest are
    solved in one batched call per theta parity, each block exactly as a
    solve of the whole stack would, so the result is too.
    """
    (a0, _), *diagonal = [(a, b) for a, b in terms if np.diag(b).any()]
    spectra = [eigh(q.T @ a0 @ q) for q in _reflection_bases(n_theta)]
    shifts = [np.diagonal(a)[:, None] * np.diag(b)[None, :] for a, b in diagonal]
    bounds = np.array([s[-1] for s in spectra])[:, None] + sum(np.max(x, axis=0) for x in shifts)
    # every block's norm is at most scale, and a top's rounding far less
    scale = max(np.max(np.abs(s)) for s in spectra) + sum(np.max(np.abs(x)) for x in shifts)
    top = np.full(bounds.shape, -np.inf)
    best = np.unravel_index(np.argmax(bounds), bounds.shape)
    top[best] = eigh(stacks[best[0]][best[1]])[-1]
    floor = top[best] - 1e-10 * scale
    for parity, stack in enumerate(stacks):
        # a NaN bound rules nothing out
        candidates = ~(bounds[parity] < floor) & (top[parity] == -np.inf)
        if candidates.any():
            top[parity, candidates] = eigh(stack[candidates])[:, -1]
    parity, nu = np.unravel_index(np.argmax(top), top.shape)
    return GroundState(float(top[parity, nu]), int(parity + nu) % 2)


def _ritz_coefficients(s: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Coefficients on the unit rows of s, [x, w] or [x, w, p], of the
    largest Ritz vector of their span; hs holds H applied to each row.
    Where the rows are numerically dependent, p is dropped: a Cholesky
    pivot is a row's distance from the span of the rows before it."""
    for k in range(len(s), 1, -1):
        try:
            chol = np.linalg.cholesky(s[:k] @ s[:k].T)
        except np.linalg.LinAlgError:
            continue
        if chol.diagonal().min() >= 1e-8:
            inv = np.linalg.inv(chol)
            h = inv @ (s[:k] @ hs[:k].T) @ inv.T
            return inv.T @ np.linalg.eigh(0.5 * (h + h.T))[1][:, -1]
    raise ConvergenceError("the preconditioned residual lies along the iterate")


def lobpcg_max(apply: Callable, precondition: Callable, x: np.ndarray) -> float:
    """Largest eigenvalue of the real symmetric operator `apply` on the
    subspace that x and `precondition` keep, by single-vector LOBPCG: each
    step moves the unit iterate x to the largest Ritz vector of [x, w, p], w
    the preconditioned residual and p the last step.  H x and H p are carried
    along, one application of H a step, and H x is applied afresh before the
    stop ||H x - eps x|| <= 1e-10 max(1, |eps|) may pass."""
    x = x / np.linalg.norm(x)
    hx, fresh = apply(x), True
    p = hp = np.empty((0, x.size))  # no last step yet
    for _ in range(MAX_ITERATIONS):
        eps = float(x @ hx)
        if np.linalg.norm(hx - eps * x) <= 1e-10 * max(1.0, abs(eps)):
            if fresh:
                return eps
            hx, fresh = apply(x), True
            continue
        w = precondition(hx - eps * x)
        w = w / np.linalg.norm(w)
        s, hs = np.vstack([x, w, p]), np.vstack([hx, apply(w), hp])
        c = _ritz_coefficients(s, hs)
        k = len(c)
        x, hx, fresh = c @ s[:k], c @ hs[:k], False
        p, hp = c[1:] @ s[1:k], c[1:] @ hs[1:k]
        p, hp = p / np.linalg.norm(p), hp / np.linalg.norm(p)
    raise ConvergenceError(f"LOBPCG did not converge in {MAX_ITERATIONS} iterations")


def _sector_ground(terms: list, stacks: tuple, grid: GridSpec, sigma: float) -> GroundState:
    """Ground state at tau1 != 0 of the operator `terms` with `_nu_blocks`
    stacks D: the larger of the sectors' top eigenvalues, by `lobpcg_max`
    preconditioned by (sigma - D)^-1, where sigma - D >= 0.1."""
    nt, n_phi = grid.n_theta, grid.n_phi
    diagonals = [_theta_diagonal(a) for a, _ in terms]
    dense = [(a, b) for (a, b), d in zip(terms, diagonals) if d is None]
    scaled = [(d, b) for (_, b), d in zip(terms, diagonals) if d is not None]
    a_cat = np.hstack([a for a, _ in dense])
    d_cat = np.stack([d for d, _ in scaled], axis=1)
    b_cat = np.hstack([b.T for _, b in dense + scaled])

    def apply(x: np.ndarray) -> np.ndarray:
        # the sum of a @ x @ b.T over the terms: x @ b.T for all at once,
        # then a dense theta matrix as a product, a diagonal one entrywise
        xb = (x.reshape(nt, n_phi) @ b_cat).reshape(nt, len(terms), n_phi)
        hx = a_cat @ xb[:, :len(dense)].swapaxes(0, 1).reshape(-1, n_phi)
        hx += np.einsum("tk,tkn->tn", d_cat, xb[:, len(dense):])
        return hx.ravel()

    bases = _reflection_bases(nt)
    inverses = [np.linalg.inv(sigma * np.eye(stack.shape[-1]) - stack) for stack in stacks]
    reflected = -np.arange(nt) % nt
    nu_signs = (-1.0) ** np.arange(n_phi)
    start = np.random.default_rng(0).standard_normal(nt * n_phi)

    def largest(m: int) -> float:  # in sector m, where inversion is (-1)^m
        # sector m holds theta parity p at the nu of parity (p + m) % 2
        held = [(q, inv, slice((p + m) % 2, None, 2))
                for p, (q, inv) in enumerate(zip(bases, inverses))]

        def precondition(r: np.ndarray) -> np.ndarray:
            r, out = r.reshape(nt, n_phi), np.empty((nt, n_phi))
            for q, inv, nu in held:
                out[:, nu] = q @ (inv[nu] @ (r[:, nu].T @ q)[:, :, None])[:, :, 0].T
            return out.ravel()

        x = start.reshape(nt, n_phi)
        x = 0.5 * (x + (-1) ** m * nu_signs * x[reflected])
        return lobpcg_max(apply, precondition, x.ravel())

    eps = [largest(0), largest(1)]  # sectors A and B
    sector = int(eps[1] > eps[0])
    return GroundState(eps[sector], sector)


def grid_solve(
    alpha: float,
    field: FieldConfig,
    grid: GridSpec = GridSpec(),
    refine: bool = False,
) -> GroundState:
    """Ground state of the grid operator at aspect ratio alpha: its largest
    raw eigenvalue and inversion sector: the top of the nu-diagonal part D
    by dense solves nu by nu, which is the whole operator for an axial field
    (tau1 == 0.0), and for any other field matrix-free per sector, shifted
    by D's top.

    With refine=True the solve is repeated at doubled n_theta and an
    AccuracyError carrying both ground values is raised if they differ by
    more than REFINE_TOL.  A field whose grid operator overflows raises
    OverflowError naming it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not field.hermitian:
        raise UnsupportedVariantError(
            "the grid oracle represents only the self-adjoint operator; "
            "dropping the magnetic curvature coupling at tau1 != 0 yields a "
            "non-Hermitian variant it cannot discretize"
        )
    try:
        with np.errstate(over="raise"):
            terms = _grid_terms(alpha, field, grid)
            stacks = _nu_blocks(terms, grid.n_theta)
            ground = _diagonal_ground(terms, stacks, grid.n_theta)
            if field.tau1 != 0.0:
                ground = _sector_ground(terms, stacks, grid, ground.eps0 + 0.1)
    except (OverflowError, FloatingPointError) as exc:  # a float's or an array's
        raise OverflowError(f"field tau0={field.tau0:g}, tau1={field.tau1:g} is out of "
                            "range: the grid operator overflows") from exc
    if refine:
        fine = grid_solve(alpha, field, GridSpec(2 * grid.n_theta, grid.n_phi))
        delta = abs(fine.eps0 - ground.eps0)
        if delta > REFINE_TOL:
            raise AccuracyError(
                f"ground eigenvalue moved by {delta:.3e} on refinement "
                f"({ground.eps0:.8f} at n_theta={grid.n_theta} vs "
                f"{fine.eps0:.8f} at {2 * grid.n_theta})"
            )
    return ground
