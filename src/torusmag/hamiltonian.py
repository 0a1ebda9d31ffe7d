"""Assembly of the dimensionless surface Hamiltonian on the torus.

The operator acts on functions of (theta, phi) and is expanded in the
weighted Gram-Schmidt basis of `basis`.  Every term has the form

    C(theta) * P(phi) * d^j/dtheta^j * (-i d/dphi)^p

with C a real trig polynomial over powers of 1/F and P a real combination of
exp(i m phi), |m| <= 2, such as i sin(phi).  On a basis state, a theta-function
times exp(i nu phi), -i d/dphi is nu, so a term's real matrix is the Kronecker
product of its theta integrals over function pairs (periodic trapezoid rule,
geometric convergence for these analytic integrands) with its nu x nu matrix
of exact harmonic sums (selection rule |nu_row - nu_col| <= 2).

Matrix elements are taken as <chi_row | H chi_col> over the measure
F(theta) dtheta dphi without symmetrization; the weight itself supplies the
integration by parts that makes the first-derivative kinetic term
self-adjoint.  The magnetic curvature coupling is the row -V times i sin(phi),
V = (alpha tau1 / 2) sin(theta) (1 + 2 alpha cos(theta))/F, where V sin(phi)
is 2 a^2 (e/hbar) h A_N for the mean curvature h and the normal component A_N
of the vector potential.  With that sign the term exactly cancels the
antisymmetric residue of the paramagnetic in-plane couplings, so the
assembled matrix is Hermitian to machine precision; with the opposite sign
it is not.  Dropping the term while tau1 != 0 therefore leaves a slightly
non-Hermitian matrix by construction (`FieldConfig.hermitian` is False).  So
a field's stack goes to `solver.eigensolve_general` when tau1 != 0, and
whole to `solver.eigensolve` at tau1 = 0.

The three printed variants, off-off, on-off and on-on (curvature
potential, magnetic coupling), are nested prefixes of `_term_table`, whose
last two rows are the curvature potential and the coupling.  `assemble`
adds the rows in table order to the on-on slot of a zero stack and copies it
to the other two slots before those two rows, the same ordered loop as a
term-by-term assembly of each variant, so each matrix keeps its bits.  What
does not depend on the field is kept per basis in `_BasisTerms`, so a field
builds only its field rows.
"""

from __future__ import annotations

import weakref

import numpy as np

from .basis import BasisSet

#: Nodes of the periodic trapezoid rule for the theta integrals.
N_QUAD = 512

#: phi-harmonic tables, {m: c_m} for P(phi) = sum_m c_m exp(i m phi), all real.
_ONE = {0: 1.0}
_COS = {1: 0.5, -1: 0.5}
_ISIN = {1: 0.5, -1: -0.5}
_SIN2 = {0: 0.5, 2: -0.25, -2: -0.25}


def quadrature_nodes(n_quad: int) -> np.ndarray:
    """The n_quad equally spaced nodes of the periodic trapezoid rule."""
    return np.arange(n_quad) * 2.0 * np.pi / n_quad


#: Rows of `_term_table`: the curvature potential, the magnetic coupling
#: and those that do not depend on the field.
_CURVATURE, _COUPLING = 10, 11
_FIELD_FREE = (0, 1, 2, _CURVATURE)


def _field_rows(al: float, t0: float, t1: float, st, ct, f) -> dict[int, tuple]:
    """`_term_table`'s rows that depend on the field, by index (tau^2 may be inf)."""
    t0_sq, t1_sq = np.float64(t0) ** 2, np.float64(t1) ** 2
    return {
        3: (-t0 * al**2 * np.ones_like(st), _ONE, 0, 1),
        4: (t1 * al**3 * st * (1.0 / f), _COS, 0, 1),  # not / f: the outputs pin it
        5: (al * t1 * (al + ct), _ISIN, 1, 0),
        6: (-0.25 * t0_sq * al**2 * f**2, _ONE, 0, 0),
        7: (-0.25 * t1_sq * al**2 * f**2, _SIN2, 0, 0),
        8: (-0.25 * t1_sq * al**4 * st**2, _ONE, 0, 0),
        9: (0.5 * t0 * t1 * al**3 * f * st, _COS, 0, 0),
        # -i times the real coupling V sin(phi): -V times the i sin(phi) pair
        _COUPLING: (-(0.5 * al * t1 * st * (1.0 + 2.0 * al * ct) / f), _ISIN, 0, 0),
    }


def _term_table(
    al: float, t0: float, t1: float, theta: np.ndarray
) -> list[tuple[np.ndarray, dict[int, float], int, int]]:
    """(C(theta) samples, phi harmonics P, d/dtheta order j, -i d/dphi order
    p) for each term C P d^j/dtheta^j (-i d/dphi)^p of the operator at aspect
    ratio al and field (t0, t1), both potentials included; all real."""
    st, ct = np.sin(theta), np.cos(theta)
    f = 1.0 + al * ct
    rows = _field_rows(al, t0, t1, st, ct, f) | {
        0: (np.ones_like(theta), _ONE, 2, 0),
        1: (-al * st / f, _ONE, 1, 0),
        2: (-al**2 / f**2, _ONE, 0, 2),
        _CURVATURE: (0.25 / f**2, _ONE, 0, 0),
    }
    return [rows[i] for i in range(len(rows))]


class _BasisTerms:
    """The field-free parts of assembly for one basis, on N_QUAD nodes.

    `st`, `ct`, `f` and `tables[j]` (read-only) hold sin, cos, F and the
    j-th theta-derivative of every basis function at `theta`; `phi[i]` holds
    row i's nu x nu harmonic matrix as its nonzero (row, column) indices and
    their values; `fixed[i]` is the increment of each field-free row i.
    """

    def __init__(self, basis: BasisSet):
        self.theta = quadrature_nodes(N_QUAD)
        self.dtheta = 2.0 * np.pi / N_QUAD
        self.st, self.ct = np.sin(self.theta), np.cos(self.theta)
        self.f = 1.0 + basis.alpha * self.ct
        self.tables = tuple(basis.values(self.theta, j) for j in range(3))
        for table in self.tables:
            table.flags.writeable = False
        nus = np.array(basis.nus)
        rows = _term_table(basis.alpha, 0.0, 0.0, self.theta)
        self.phi = []
        for _, harm, _, jp in rows:
            # exact phi integrals: harmonic m moves nu_col to nu_col + m
            full = sum(cm * np.eye(nus.size, k=-m) for m, cm in harm.items())
            full = full * nus**jp
            r, c = np.nonzero(full)
            self.phi.append((r, c, full[r, c, None, None]))
        self.fixed = {i: self.increment(i, rows[i]) for i in _FIELD_FREE}

    def increment(self, i: int, row: tuple) -> np.ndarray:
        """Row i's entries on its harmonic matrix's nonzeros, where they form
        the Kronecker product (theta matrix) x (harmonic matrix)."""
        coeff, _, jt, _ = row
        # complex only because the stored outputs pin its rounding (ROADMAP item 1)
        tmat = ((self.tables[0] * (coeff * self.f)).astype(complex)
                @ self.tables[jt].T).real * self.dtheta
        return tmat * self.phi[i][2]


#: Each basis's field-free terms, dropped when the basis is.
_BASIS_TERMS: weakref.WeakKeyDictionary[BasisSet, _BasisTerms] = (
    weakref.WeakKeyDictionary()
)


def assemble(tau0: float, tau1: float, basis: BasisSet) -> np.ndarray:
    """The real matrices of the surface Hamiltonian at one field, a float64
    (3, n, n) stack of the printed variants in `cli.VARIANTS` order: off-off,
    on-off and on-on (curvature potential, magnetic coupling); rows and
    columns follow `basis.labels()`.  The curvature potential enters as
    1/(4 F^2), which is a^2 (h^2 - k) on the torus.  Raises OverflowError,
    naming the field, when a matrix is not finite."""
    terms = _BASIS_TERMS.get(basis)
    if terms is None:
        terms = _BASIS_TERMS[basis] = _BasisTerms(basis)
    nf, nnu = len(basis.functions), len(basis.nus)
    stack = np.zeros((3, nf, nnu, nf, nnu))  # rows, columns (f, nu)
    h = stack[2]  # the running sum, on-on at the end
    # a non-finite sum stays non-finite, so the last matrix shows an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _field_rows(basis.alpha, tau0, tau1, terms.st, terms.ct, terms.f)
        for i, (r, c, _) in enumerate(terms.phi):
            if i == _CURVATURE:
                stack[0] = h
            elif i == _COUPLING:
                stack[1] = h
            inc = terms.fixed[i] if i in terms.fixed else terms.increment(i, rows[i])
            h[:, r, :, c] += inc
    if not np.isfinite(h).all():
        raise OverflowError(f"field tau0={tau0:g}, tau1={tau1:g} is out of range: "
                            "its matrices are not finite")
    return stack.reshape(3, nf * nnu, nf * nnu)
