"""Dense ground-state solves and ground-state composition analysis.

The dimensionless eigenvalue convention is eps = -2 m E a^2 / hbar^2, so
the physical ground state is the eigenvector with the LARGEST raw eps.

Both solvers take one field's real matrices as `hamiltonian.assemble` returns
them (every assembled H is exactly real, so its eigenvalues are real or
conjugate pairs), and return a `GroundState` with a real vector per matrix,
after checking that they are finite and that the Hermitian ones are
Hermitian.  `eigensolve` takes the whole stack of a tau1 = 0 field, off-off
and the "on" matrix that on-off and on-on share, checks its split into the
inversion sectors of `BasisSet.sectors`, and makes one batched whole-matrix
`eigh` call, in complex arithmetic only because the stored `sweep` and
`table` outputs pin its rounding byte for byte.  `eigensolve_general` takes
the sector stacks of a chunk of other fields, each in `hamiltonian.VARIANTS`
order, whose pieces `assemble` checked per basis.  Per sector, one batched
`eigvalsh` call gives the Hermitian members' top eigenvalues.  A
non-Hermitian member's symmetric part is on-on's less the curvature
potential V, which is positive semidefinite, since the coupling K is
antisymmetric (both checked per basis), so by Bendixson's theorem
(Re lambda(A) <= lambda_max((A + A^T) / 2)) on-on's top in a sector bounds
the real parts of its block's eigenvalues there.  Rayleigh-quotient
iteration from that bound gives a top and vector, kept if a Cholesky factor
shows by the same theorem that the block on the vector's complement has no
larger real part, else from `eigvals` and inverse iteration; on-on's lower
sector is solved unless that or the member's own symmetric part there is
below the top found.  The larger top is the ground, which must be real (high
levels may pair up).  The chunk passes each stage at once, so a refusal is
that of the first failing stage; `cli._field_grounds` finds the field.

Every error raised here is an ArithmeticError, as are those of `assemble`
and the oracle, so a caller can handle all numerical failures at once."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .basis import BasisSet, sector_index

#: Largest |imag| of a general solve's ground; the residual bound caps it.
GROUND_IMAG_TOL = 1e-8

#: Largest max|H - H^dagger| / max(1, max|H|) that `eigensolve` accepts.
HERMITICITY_TOL = 1e-12

#: Largest |B x - eps0 x| / max(1, max|H|) of a sector solve's ground vector.
RESIDUAL_TOL = 1e-10

#: Rayleigh-quotient iteration stops at |B x - mu x| <= RAYLEIGH_TOL * 2**e,
#: 2**e ~ max(1, max|H|), or gives up after RAYLEIGH_STEPS solves; mu is kept
#: if no other eigenvalue has a real part above mu + CERTIFY_TOL * 2**e.
RAYLEIGH_TOL, RAYLEIGH_STEPS, CERTIFY_TOL = 1e-15, 12, 1e-13

#: Inverse iteration shifts the block by eps0 + INVERSE_SHIFT * max(1, |eps0|).
INVERSE_SHIFT = 1e-13

#: Smallest amplitude magnitude shown by the composition display methods.
DISPLAY_THRESHOLD = 0.09


class HermiticityError(ArithmeticError):
    """The matrix handed to the Hermitian solver is not Hermitian."""


class ComplexGroundError(ArithmeticError):
    """The ground eigenvalue of a general solve is not real."""


class GroundState(NamedTuple):
    """Largest raw eigenvalue, its unit eigenvector and inversion sector."""

    eps0: float
    vector: np.ndarray
    sector: int


def check(blocks, hermitian, between) -> np.ndarray:
    """Each matrix's scale max(1, max|H|) over blocks, stacks (k, m, m) that
    hold k matrices by blocks, and between, stacks (k, m, n) of their entries
    between the inversion sectors, after checking that all are finite and
    real, that no Hermitian one (hermitian[i]) departs from H^T and that none
    couples the sectors, by more than HERMITICITY_TOL times its scale
    (relative, as rounding is)."""
    every = [*blocks, *between]
    if any(np.iscomplexobj(b) or not np.isfinite(b).all() for b in every):
        raise ArithmeticError("matrix is not finite and real")
    peak = [np.max(np.abs(b), axis=(1, 2)) for b in every]
    scale = np.maximum(1.0, np.max(peak, 0))
    defect, herm = 0.0 * scale, np.broadcast_to(hermitian, scale.shape)  # Hermitian alone
    defect[herm] = np.max([np.max(np.abs(h - h.transpose(0, 2, 1)), axis=(1, 2))
                           for h in (b if herm.all() else b[herm] for b in blocks)], 0)
    leak = np.max([0.0 * scale, *peak[len(blocks):]], 0)
    for i, bound in enumerate(HERMITICITY_TOL * scale):
        if leak[i] > bound:
            raise ArithmeticError(f"matrix couples the inversion sectors: "
                                  f"max|H_AB| = {leak[i]:.3e} exceeds {bound:.1e}")
        if defect[i] > bound:
            raise HermiticityError(f"matrix is not Hermitian: max|H - H^dagger| "
                                   f"= {defect[i]:.3e} exceeds {bound:.1e}")
    return scale


def eigensolve(h: np.ndarray, sector: np.ndarray) -> list[GroundState]:
    """Ground state of each Hermitian matrix of a real stack h (k, n, n), by
    one batched whole-matrix `eigh` call on the symmetrized stack; a ground's
    sector is the label, in sector, of its vector's largest amplitude.
    Raises ArithmeticError when a `check` bound fails (HermiticityError for
    a matrix that is not Hermitian, instead of silently symmetrizing)."""
    between = permutations(sector_index(sector), 2)
    check([h], True, [h[:, i[:, None], j] for i, j in between])
    # complex only because the stored outputs pin its rounding (ROADMAP item 1)
    w, v = np.linalg.eigh((0.5 * (h + h.transpose(0, 2, 1))).astype(complex))
    x = v[np.arange(len(v)), :, np.argmax(w, axis=1)].real  # a copy; Im x is exactly 0
    return [GroundState(float(wi.max()), xi, int(sector[np.argmax(np.abs(xi))]))
            for wi, xi in zip(w, x)]


def eigensolve_general(blocks, hermitian, sector: np.ndarray, bound=None) -> list[GroundState]:
    """Ground state of each of m matrices given by their sector stacks:
    blocks[s] (m, n_s, n_s) holds the states labelled by the s-th smallest
    label of sector, for the fields of a chunk in turn, each with the k =
    len(hermitian) members of a tau1 != 0 field as `assemble` returns it;
    member j must be Hermitian where hermitian[j].  With bound = j, member j
    is Hermitian and its top in each sector bounds the real parts of the
    field's other members there, as `assemble` certifies for on-on: it
    starts their Rayleigh-quotient iteration and can rule out their other
    sector.  The whole batch passes each stage before the next, so the
    ArithmeticError raised is that of the first failing stage: a `check`
    bound (HermiticityError for a Hermitian member), a complex ground
    (ComplexGroundError), then per sector an exactly singular shifted block
    and a ground vector's residual above RESIDUAL_TOL times its scale."""
    hermitian = np.asarray(hermitian, dtype=bool)
    m, k = len(blocks[0]), len(hermitian)
    herm = np.tile(hermitian, m // k)
    scale = check(blocks, herm, ())
    tol = RESIDUAL_TOL * scale
    # each block is solved over 2**e ~ scale: exact, and no overflow at huge fields
    f = np.ldexp(1.0, -np.rint(np.log2(scale)).astype(int))
    top = np.full((m, len(blocks)), -np.inf, dtype=complex)  # per matrix and sector
    for s, b in enumerate(blocks):
        top[herm, s] = np.linalg.eigvalsh(b[herm])[..., -1]
    # each matrix's bound per sector: its field's member `bound`, or none
    ceiling = np.full(top.shape, np.inf) if bound is None else np.repeat(
        top[bound::k].real, k, axis=0)
    idx, vectors = sector_index(sector), np.zeros((m, len(sector)))  # Rayleigh's, then the rest
    for nth, rank in enumerate(np.argsort(-ceiling, axis=1, kind="stable").T):
        # sectors in falling order of their bound: the next one is solved unless
        # the top so far exceeds its bound or the member's own symmetric part there
        best = top.real.max(axis=1)
        wanted = ~herm & ~(best > ceiling[np.arange(m), rank] + tol)
        for s, b in enumerate(blocks):
            i = np.flatnonzero(wanted & (rank == s))
            if nth:
                i = i[~_bendixson(b[i] * f[i, None, None], (best[i] - tol[i]) * f[i])]
            if i.size:
                mu, x, ok = _rayleigh(b[i] * f[i, None, None], ceiling[i, s] * f[i])
                ok[ok] = _bendixson(b[i[ok]] * f[i[ok], None, None], mu[ok] + CERTIFY_TOL, x[ok])
                j = i[ok]
                top[j, s], vectors[j[:, None], idx[s]] = mu[ok] / f[j], x[ok]
                if not ok.all():  # complex values sort by real part first
                    top[i[~ok], s] = np.sort(np.linalg.eigvals(b[i[~ok]]))[..., -1]
    ground = np.argmax(top.real, axis=1)
    top = top[np.arange(m), ground]
    eps0, imag, limit = top.real, np.abs(top.imag), np.minimum(GROUND_IMAG_TOL, tol)
    if np.any(imag > limit):
        i = np.argmax(imag > limit)
        raise ComplexGroundError(f"ground eigenvalue has imaginary part {imag[i]:.3e}, "
                                 f"above {limit[i]:.1e}")
    for s, b in enumerate(blocks):
        vectors[np.flatnonzero(ground != s)[:, None], idx[s]] = 0.0
        # inverse iteration where no Rayleigh vector, of residual far below tol, is in place
        i, n = np.flatnonzero((ground == s) & ~vectors[:, idx[s]].any(axis=1)), len(idx[s])
        shifted = b[i] * f[i, None, None]  # shifted in place
        shift = (eps0[i] + INVERSE_SHIFT * np.maximum(1.0, np.abs(eps0[i]))) * f[i]
        shifted.reshape(i.size, n * n)[:, ::n + 1] -= shift[:, None]  # the diagonals
        try:
            x = np.linalg.solve(shifted, np.ones((i.size, n, 1)))
            x = np.linalg.solve(shifted, x / np.linalg.norm(x, axis=1, keepdims=True))
        except np.linalg.LinAlgError as exc:  # a LinAlgError is a ValueError
            raise ArithmeticError(f"shifted ground block is singular: {exc}") from exc
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        # B x - eps0 x for the scaled block B, from the shifted one
        r = shifted @ x + (shift - eps0[i] * f[i])[:, None, None] * x
        residual = np.linalg.norm(r[..., 0], axis=1) / f[i]
        if not np.all(residual <= tol[i]):
            j = np.argmin(residual <= tol[i])
            raise ArithmeticError(
                f"ground vector residual {residual[j]:.3e} exceeds {tol[i][j]:.1e}")
        vectors[i[:, None], idx[s]] = x[..., 0]
    label = [int(sector[i[0]]) for i in idx]
    return [GroundState(float(eps0[i]), vectors[i], label[ground[i]]) for i in range(m)]


def _bendixson(a, top, x=None) -> np.ndarray:
    """Whether a Cholesky factor of c = top I - (a + a^T) / 2 shows that no
    eigenvalue of each matrix of the stack a has a real part above top
    (Bendixson); with x, no other than that of unit right vector x, as they
    are those of a on the complement of x (a Schur step), where c is projected."""
    c = -0.5 * (a + a.transpose(0, 2, 1))
    np.einsum("...ii->...i", c)[...] += top[:, None]
    if x is not None:  # Q c Q + x x^T = c - x z^T - z x^T, z = c x - (x^T c x + 1) x / 2
        y = (c @ x[..., None])[..., 0]
        z = y - 0.5 * (np.einsum("ij,ij->i", x, y) + 1.0)[:, None] * x
        c -= x[:, :, None] * z[:, None, :]
        c -= z[:, :, None] * x[:, None, :]
    ok = np.ones(len(c), dtype=bool)
    for j, h in enumerate(c):  # one by one: a batch raises if any has none
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            ok[j] = False
    return ok


def _rayleigh(a, shift):
    """An eigenvalue mu, unit right vector x and whether |a x - mu x| reached
    RAYLEIGH_TOL, per matrix of the stack a (overwritten), by Rayleigh-quotient
    iteration (Parlett, Math. Comp. 28, 679 (1974)) from a start of ones: two
    solves at shift, a bound of the real parts, then at the Rayleigh quotient."""
    mu, x, done = np.empty(len(a)), np.empty(a.shape[:2]), np.zeros(len(a), dtype=bool)
    live, v = np.arange(len(a)), np.full((*a.shape[:2], 1), a.shape[1] ** -0.5)
    d = np.einsum("...ii->...i", a).copy()
    shift = np.minimum(shift, np.abs(a).sum(axis=2).max(axis=1))  # |lambda| <= max row sum
    for step in range(RAYLEIGH_STEPS):
        np.einsum("...ii->...i", a)[...] = d - shift[:, None]
        try:
            v = np.linalg.solve(a, v)
        except np.linalg.LinAlgError:  # a shift is exactly singular
            break
        np.einsum("...ii->...i", a)[...] = d
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        av = a @ v
        q = np.einsum("ijk,ijk->i", v, av)
        stop = np.linalg.norm(av - q[:, None, None] * v, axis=(1, 2)) <= RAYLEIGH_TOL
        shift = q if step else shift
        if stop.any():
            j = live[stop]
            mu[j], x[j], done[j] = q[stop], v[stop, :, 0], True
            live, a, d, v, shift = (z[~stop] for z in (live, a, d, v, shift))  # the rest
            if not live.size:
                break
    return mu, x, done


@dataclass(frozen=True, eq=False)
class StateComposition:
    """Ground-state amplitudes as a (function x nu) array.

    amps[i, j] is the real amplitude of theta-function functions[i] times
    exp(i nus[j] phi).  The sign is fixed so the largest amplitude is
    positive; display methods apply DISPLAY_THRESHOLD.
    """

    amps: np.ndarray
    functions: list[tuple[str, int]]
    nus: list[int]

    def dominant_nu(self) -> int:
        """The azimuthal index of largest total |amplitude|^2; the lowest
        such nu on a tie."""
        return self.nus[int(np.argmax(np.sum(np.abs(self.amps) ** 2, axis=0)))]

    def real_combinations(self) -> list[tuple[str, int, int, float]]:
        """Group nu = +/-m pairs into cos/sin phi form.

        Returns rows (kind, n, m, amplitude) where m >= 0; m = 0 rows are
        plain theta-function amplitudes, and each m > 0 label appears as
        two rows, the coefficient of cos(m phi) and of i sin(m phi):

            c_+ e^{im phi} + c_- e^{-im phi}
                = (c_+ + c_-) cos(m phi) + (c_+ - c_-) i sin(m phi).

        Rows with magnitude below DISPLAY_THRESHOLD are dropped.
        """
        rows: list[tuple[str, int, int, float]] = []
        # + 0.0 turns a signed zero into +0.0, as a Python sum from 0.0 does
        for (kind, n), row in zip(self.functions, self.amps + 0.0):
            amp = dict(zip(self.nus, map(float, row)))
            for m in sorted({abs(nu) for nu in self.nus}):
                if m == 0:
                    rows.append((kind, n, 0, amp[0]))
                else:
                    cp, cm = amp.get(m, 0.0), amp.get(-m, 0.0)
                    rows.append((kind, n, m, cp + cm))  # cos(m phi) coefficient
                    rows.append((kind, n, -m, cp - cm))  # i sin(m phi) coefficient
        rows = [r for r in rows if abs(r[3]) >= DISPLAY_THRESHOLD]
        rows.sort(key=lambda r: -abs(r[3]))
        return rows

    def format_text(self) -> str:
        """Aligned text in the tables' real-combination notation."""
        parts = []
        for kind, n, m, amp in self.real_combinations():
            name = f"{kind}{n}"
            if m > 0:
                name += f" cos{m if m > 1 else ''}phi"
            elif m < 0:
                name += f" i sin{-m if m < -1 else ''}phi"
            parts.append(f"{amp:+.3f} {name}")
        return "  ".join(parts) if parts else "(no terms above threshold)"


def ground_state_composition(vec: np.ndarray, basis: BasisSet) -> StateComposition:
    """Amplitudes of a real ground vector in basis, sign-fixed."""
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    functions, nus = basis.functions, basis.nus
    return StateComposition(vec.reshape(len(functions), len(nus)), functions, nus)
