"""Dense eigendecomposition and ground-state composition analysis.

The dimensionless eigenvalue convention is eps = -2 m E a^2 / hbar^2, so
the physical ground state is the eigenvector with the LARGEST raw
eigenvalue eps.  `SpectrumResult.ground()` encapsulates that selector so
callers never trip over the sign.

`eigensolve` requires a Hermitian matrix and refuses otherwise; it solves
on-on, and off-off and on-off at zero in-plane field.  The two printed
variants without the magnetic curvature coupling are intrinsically
non-Hermitian at nonzero in-plane field (the dropped term is exactly the
anti-Hermitian part of the remaining operator); `eigensolve_general`
handles them with a general eigensolver.  That operator commutes with the
antiunitary map (complex conjugation composed with phi -> -phi), so its
eigenvalues are real or come in conjugate pairs.  The states of `basis`
are invariant under that map, so the assembled matrix is exactly real and
the general solve runs in real arithmetic, where the pairing is structural
and the phase fix of a real eigenvector is a sign.  The ground eigenvalue
must be real to GROUND_IMAG_TOL; high levels may pair up into complex
conjugates, so the bound is not applied to the whole spectrum.  The real
parts are reported.

The operator also commutes with the inversion (theta, phi) -> (-theta,
phi + pi), so H has no entries between the two inversion sectors that
`BasisSet.sectors` labels 0 and 1 (at most ~5e-16 relative, from rounding).
`eigensolve_general` checks that, then solves the two half-size blocks,
about twice as fast as the whole matrix, and scatters their eigenvectors
back with exact zeros in the other sector.  `eigensolve` still
diagonalizes the whole matrix: a split Hermitian solve moves eps0 in its
last printed digits, and the stored outputs of `sweep` and `table` are
compared byte for byte.

Every error raised here is an ArithmeticError, as are those of the basis
and the oracle, so a caller can handle all numerical failures at once.
The API is what the commands read: the ground eigenpair, the ground-state
composition as a (function x nu) array, its dominant nu and cos/sin rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet

#: Largest |imag| accepted for the ground eigenvalue of a general solve.
GROUND_IMAG_TOL = 1e-8

#: Largest max|H - H^dagger| / max(1, max|H|) that `eigensolve` accepts.
HERMITICITY_TOL = 1e-12

#: Smallest amplitude magnitude shown by the composition display methods.
DISPLAY_THRESHOLD = 0.09


class HermiticityError(ArithmeticError):
    """The matrix handed to the Hermitian solver is not Hermitian."""


class ComplexGroundError(ArithmeticError):
    """The ground eigenvalue of a general solve is not real."""


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenvalues (ascending in eps) with aligned eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def ground(self) -> tuple[float, np.ndarray]:
        """The physical ground state: maximal raw eps, and its eigenvector."""
        i = int(np.argmax(self.eigenvalues))
        return float(self.eigenvalues[i]), self.eigenvectors[:, i]


def hermiticity_defect(h: np.ndarray) -> float:
    """max |H - H^dagger| over all entries."""
    return float(np.max(np.abs(h - h.conj().T)))


def eigensolve(h: np.ndarray) -> SpectrumResult:
    """Full spectrum of a Hermitian matrix, eigenvalues ascending.

    Raises HermiticityError (with the measured defect) when the matrix is
    not Hermitian within that bound, instead of silently symmetrizing.  The
    bound is relative because the rounding defect grows with the entries.
    """
    defect = hermiticity_defect(h)
    bound = HERMITICITY_TOL * max(1.0, float(np.max(np.abs(h))))
    if defect > bound:
        raise HermiticityError(
            f"matrix is not Hermitian: max|H - H^dagger| = {defect:.3e} "
            f"exceeds {bound:.1e}; for the curvature-coupling-off "
            "variant at tau1 != 0 use eigensolve_general"
        )
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return SpectrumResult(eigenvalues=w, eigenvectors=v)


def eigensolve_general(h: np.ndarray, sector: np.ndarray) -> SpectrumResult:
    """Spectrum of a general matrix that splits into two sectors, sorted by
    real part.

    sector[i] labels state i as 0 or 1 (`BasisSet.sectors` for an assembled
    H); each sector's block is solved on its own and its eigenvectors are
    scattered back with exact zeros in the other sector.  Raises ArithmeticError
    when an entry coupling two sectors exceeds
    HERMITICITY_TOL * max(1, max|H|), before those entries are dropped.
    A complex matrix whose imaginary part is all zero is solved as a real
    one; the eigenvectors are then real wherever the eigenvalues are.
    Eigenvectors are normalized to unit Euclidean norm.  Raises
    ComplexGroundError when the eigenvalue of largest real part, over all
    sectors, has |imag| above GROUND_IMAG_TOL.
    """
    if not h.imag.any():
        h = h.real
    leak = float(np.max(np.abs(h[sector[:, None] != sector]), initial=0.0))
    bound = HERMITICITY_TOL * max(1.0, float(np.max(np.abs(h))))
    if leak > bound:
        raise ArithmeticError(
            f"matrix couples the inversion sectors: max|H_AB| = {leak:.3e} "
            f"exceeds {bound:.1e}"
        )
    blocks = [np.flatnonzero(sector == s) for s in (0, 1)]
    solved = [np.linalg.eig(h[np.ix_(idx, idx)]) for idx in blocks]
    w = np.concatenate([wb for wb, _ in solved])
    ground_imag = abs(w[np.argmax(w.real)].imag)
    if ground_imag > GROUND_IMAG_TOL:
        raise ComplexGroundError(
            f"ground eigenvalue has imaginary part {ground_imag:.3e}, "
            f"above {GROUND_IMAG_TOL:.0e}"
        )
    v = np.zeros(h.shape, dtype=np.result_type(*(vb for _, vb in solved)))
    col = 0
    for idx, (_, vb) in zip(blocks, solved):
        v[idx, col : col + len(idx)] = vb
        col += len(idx)
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    order = np.argsort(w.real, kind="stable")
    return SpectrumResult(eigenvalues=w.real[order], eigenvectors=v[:, order])


@dataclass(frozen=True, eq=False)
class StateComposition:
    """Ground-state amplitudes as a (function x nu) array.

    amps[i, j] is the amplitude of theta-function functions[i] times
    exp(i nus[j] phi).  The global phase is fixed so the largest amplitude
    is real positive; display methods apply DISPLAY_THRESHOLD.
    """

    amps: np.ndarray
    functions: list[tuple[str, int]]
    nus: list[int]

    def dominant_nu(self) -> int:
        """The azimuthal index of largest total |amplitude|^2; the lowest
        such nu on a tie."""
        return self.nus[int(np.argmax(np.sum(np.abs(self.amps) ** 2, axis=0)))]

    def real_combinations(self) -> list[tuple[str, int, int, complex]]:
        """Group nu = +/-m pairs into cos/sin phi form.

        Returns rows (kind, n, m, amplitude) where m >= 0; m = 0 rows are
        plain theta-function amplitudes, and each m > 0 label appears as
        two rows, the coefficient of cos(m phi) and of i sin(m phi):

            c_+ e^{im phi} + c_- e^{-im phi}
                = (c_+ + c_-) cos(m phi) + (c_+ - c_-) i sin(m phi).

        Rows with magnitude below DISPLAY_THRESHOLD are dropped.
        """
        rows: list[tuple[str, int, int, complex]] = []
        # + 0.0 turns a signed zero into +0.0, as a Python sum from 0.0 does
        for (kind, n), row in zip(self.functions, self.amps + 0.0):
            amp = dict(zip(self.nus, map(complex, row)))
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
            if abs(amp.imag) < 1e-9 * max(1.0, abs(amp.real)):
                parts.append(f"{amp.real:+.3f} {name}")
            else:
                parts.append(f"({amp.real:+.3f}{amp.imag:+.3f}i) {name}")
        return "  ".join(parts) if parts else "(no terms above threshold)"


def ground_state_composition(
    s: SpectrumResult, basis: BasisSet
) -> StateComposition:
    """Amplitudes of the physical ground state (maximal raw eps) in basis."""
    _, vec = s.ground()
    top = int(np.argmax(np.abs(vec)))
    vec = vec / (vec[top] / abs(vec[top]))
    functions, nus = basis.functions, basis.nus
    return StateComposition(vec.reshape(len(functions), len(nus)), functions, nus)
