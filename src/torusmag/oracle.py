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

An in-plane field (tau0 = 0) along x is also invariant under C2, the
rotation by pi about the field axis, (theta, phi) -> (-theta, -phi): every
term that flips theta parity is odd under nu -> -nu, every other term even.
In the nu-reflection combinations (e_nu +- e_-nu)/sqrt(2), with nu = 0 and
the Nyquist nu fixed, each inversion sector splits once more, into four
blocks of about a quarter of the grid (545, 479, 481 and 543 wide at
64 x 32).  A tilted field is solved in the two inversion sectors.  Each
block is built term by term: the term's theta matrix projected on the
theta parts is added at every nonzero entry of its projected nu matrix,
so no product with a zero nu entry is formed.

An axial field (tau1 = 0) commutes with rotations about the torus axis, so
it conserves nu: every nu matrix of its operator is diagonal.  It is also
symmetric under z -> -z, theta -> -theta, so its operator is one real
symmetric block per nu and theta parity, held as a theta-even stack of
n_phi blocks (n_theta/2 + 1 wide) and a theta-odd one (n_theta/2 - 1).
Every block is diagonalized with a dense real eigenvalue-only solve, a
stack in one batched call.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    # also flip nu parity, so every term keeps the inversion sector; at
    # tau0 = 0 they are also the ones odd under nu -> -nu (the tilted cross
    # term, even under it, vanishes), so every term keeps the C2 sector
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


def _nu_blocks(
    al: float, field: FieldConfig, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The axial-field grid operator as real symmetric theta blocks per nu.

    Two stacks, theta-even then theta-odd: entry k of each is the operator
    restricted to the k-th nu in FFT order and that theta parity, so the
    stacks are (n_phi, n_theta/2 + 1, n_theta/2 + 1) and
    (n_phi, n_theta/2 - 1, n_theta/2 - 1).  Only valid at tau1 = 0, where
    every nu matrix of the operator is diagonal and no term flips theta
    parity.
    """
    terms = _grid_terms(al, field, grid)
    return tuple(
        sum((q.T @ a @ q) * np.diag(b)[:, None, None] for a, b, _ in terms)
        for q in _reflection_bases(grid.n_theta)
    )


def _nu_bases(n: int, in_plane: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Orthonormal nu columns of the theta-even and theta-odd part of each
    sector block.

    Sector A pairs theta-even with even nu and theta-odd with odd nu, sector
    B the other way.  In plane each part is split further by nu-reflection
    parity into (e_nu +- e_-nu)/sqrt(2), nu = 0 and the Nyquist nu fixed:
    C2 even pairs theta-even with reflection-even nu, C2 odd the other way.
    """
    eye = np.eye(n)
    if not in_plane:
        return [(eye[:, m::2], eye[:, 1 - m::2]) for m in (0, 1)]
    sym, anti = _reflection_bases(n)
    parts = {}  # (nu parity, reflection parity): column c of anti leads with nu c + 1
    for m in (0, 1):
        parts[m, 1] = sym[:, m::2]
        parts[m, -1] = anti[:, 1 - m::2]
    return [(parts[m, r], parts[1 - m, -r]) for m in (0, 1) for r in (1, -1)]


def _scattered_block(
    q_theta: tuple[np.ndarray, np.ndarray],
    nus: tuple[np.ndarray, np.ndarray],
    projected: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """One sector block from its theta-even and theta-odd parts' columns and
    the projected theta matrices of each quadrant's terms."""
    sizes = [(q.shape[1], n.shape[1]) for q, n in zip(q_theta, nus)]
    cut = sizes[0][0] * sizes[0][1]
    block = np.empty((cut + sizes[1][0] * sizes[1][1],) * 2)
    parts = (slice(0, cut), slice(cut, None))
    for (i, j), products in projected.items():
        # summed nu-major, (nu row, nu col, theta row, theta col), so that
        # every nonzero nu entry adds one contiguous theta matrix
        quad = np.zeros((sizes[i][1], sizes[j][1], sizes[i][0], sizes[j][0]))
        for t, b in products:
            nu = nus[i].T @ b @ nus[j]
            r, c = np.nonzero(nu)
            quad[r, c] += nu[r, c, None, None] * t
        # a view of the block: splitting each axis in two never copies
        view = block[parts[i], parts[j]].reshape(*sizes[i], *sizes[j])
        view[...] = quad.transpose(2, 0, 3, 1)
    return block


def _sector_blocks(
    al: float, field: FieldConfig, grid: GridSpec
) -> Iterator[np.ndarray]:
    """The grid operator as one real symmetric block per symmetry sector,
    each built when the iteration reaches it, so that a caller dropping
    every block before it takes the next holds one at a time.

    Off the plane (tau0 != 0) the sectors are inversion's: sector A rows
    are (theta-even x even nu) then (theta-odd x odd nu), sector B rows
    (theta-even x odd nu) then (theta-odd x even nu), with nu in FFT order.
    In plane (tau0 == 0) the C2 rotation about the field axis splits each
    of them in two, giving four blocks in the order (A, C2 even), (A, C2
    odd), (B, C2 even), (B, C2 odd), with nu columns from `_nu_bases`.
    Within each part the theta index runs slowest.

    Each term's projected theta matrix is added at the nonzero entries of
    its projected nu matrix only, in term order, starting from zero; off
    the plane every sum is then bit for bit the one that Kronecker products
    over all entries give.
    """
    terms = _grid_terms(al, field, grid)
    q_theta = _reflection_bases(grid.n_theta)
    # (theta matrix, nu matrix) of every term in each quadrant (row part,
    # column part), in term order: a term that flips theta parity joins the
    # theta-even part 0 and the theta-odd part 1, any other keeps each
    projected = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for a, b, flips in terms:
        for i, j in ((0, 1), (1, 0)) if flips else ((0, 0), (1, 1)):
            projected[i, j].append((q_theta[i].T @ a @ q_theta[j], b))
    for nus in _nu_bases(grid.n_phi, field.tau0 == 0.0):
        # built in a call, so this frame keeps no reference to a yielded block
        yield _scattered_block(q_theta, nus, projected)


def grid_solve(
    alpha: float,
    field: FieldConfig,
    grid: GridSpec = GridSpec(),
    refine: bool = False,
) -> np.ndarray:
    """Raw eigenvalues of the grid operator at aspect ratio alpha, ground
    state (largest) first.

    An axial field (tau1 == 0.0) is solved nu by nu in each theta parity,
    an in-plane field (tau0 == 0.0) in its four inversion x C2 sectors and
    any other field in its two inversion sectors; each gives the whole
    n_theta * n_phi spectrum.

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
        blocks = _nu_blocks(alpha, field, grid)
    else:
        blocks = _sector_blocks(alpha, field, grid)
    # map keeps no block past its solve, and _sector_blocks builds the next
    # one only when asked, so one sector block is alive at a time
    w = np.sort(np.concatenate([e.ravel() for e in map(eigh, blocks)]))[::-1]
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
