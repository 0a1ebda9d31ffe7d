"""Assembly of the dimensionless surface Hamiltonian on the torus.

The operator acts on functions of (theta, phi) and is expanded in the
weighted Gram-Schmidt basis of `basis`.  Every term has the form

    C(theta) * P(phi) * d^j/dtheta^j * d^p/dphi^p

with C a trig polynomial over nonnegative powers of 1/F and P a trig
polynomial in phi of degree at most 2.  A basis state is a theta-function
times exp(i nu phi), so a term's matrix is the Kronecker product of its
theta integrals over function pairs, done by periodic trapezoid quadrature
(geometric convergence for these analytic periodic integrands), with its
nu x nu matrix of exact harmonic sums (selection rule |nu_row - nu_col| <= 2).

Matrix elements are taken as <chi_row | H chi_col> over the measure
F(theta) dtheta dphi without symmetrization; the weight itself supplies the
integration by parts that makes the first-derivative kinetic term
self-adjoint.  The magnetic curvature coupling enters as -i times the real
potential (alpha tau1 / 2) sin(theta) sin(phi) (1 + 2 alpha cos(theta))/F,
which is 2 a^2 (e/hbar) h A_N for the mean curvature h and the normal
component A_N of the vector potential.  With that sign the term exactly
cancels the anti-self-adjoint residue of the paramagnetic in-plane
couplings, so the assembled matrix is Hermitian to machine precision; with
the opposite sign it is not.  Dropping the term while tau1 != 0 therefore
leaves a slightly non-Hermitian matrix by construction (`FieldConfig.hermitian`
is False), which `solver.eigensolve_general` handles.

The three printed variants, off-off, on-off and on-on (curvature
potential, magnetic coupling), are nested prefixes of `_term_table`, whose
last two rows are the curvature potential and the coupling.  `assemble`
adds the rows in table order to a zero matrix and copies it before each of
those two, the same ordered loop as a term-by-term assembly of each
variant, so each matrix keeps its bits.  What does not depend on the field
is kept per basis in `_BasisTerms`.
"""

from __future__ import annotations

import weakref

import numpy as np

from .basis import BasisSet

#: Nodes of the periodic trapezoid rule for the theta integrals.
N_QUAD = 512

#: phi-harmonic tables: {m: c_m} meaning P(phi) = sum_m c_m exp(i m phi).
_ONE = {0: 1.0}
_COS = {1: 0.5, -1: 0.5}
_SIN = {1: -0.5j, -1: 0.5j}
_SIN2 = {0: 0.5, 2: -0.25, -2: -0.25}


def quadrature_nodes(n_quad: int) -> np.ndarray:
    """The n_quad equally spaced nodes of the periodic trapezoid rule."""
    return np.arange(n_quad) * 2.0 * np.pi / n_quad


def _term_table(
    al: float, t0: float, t1: float, theta: np.ndarray
) -> list[tuple[np.ndarray, dict[int, complex], int, int]]:
    """(C(theta) samples, phi harmonics, d/dtheta order, d/dphi order) for
    each term of the operator at aspect ratio al and field (t0, t1), both
    potentials included.  A tau squared beyond the float range is inf."""
    t0_sq, t1_sq = np.float64(t0) ** 2, np.float64(t1) ** 2
    st, ct = np.sin(theta), np.cos(theta)
    f = 1.0 + al * ct
    one = np.ones_like(theta)
    return [
        (one + 0j, _ONE, 2, 0),
        (-al * st / f + 0j, _ONE, 1, 0),
        (al**2 / f**2 + 0j, _ONE, 0, 2),
        (1j * t0 * al**2 * one, _ONE, 0, 1),
        (-1j * t1 * al**3 * st / f, _COS, 0, 1),
        (1j * al * t1 * (al + ct), _SIN, 1, 0),
        (-0.25 * t0_sq * al**2 * f**2 + 0j, _ONE, 0, 0),
        (-0.25 * t1_sq * al**2 * f**2 + 0j, _SIN2, 0, 0),
        (-0.25 * t1_sq * al**4 * st**2 + 0j, _ONE, 0, 0),
        (0.5 * t0 * t1 * al**3 * f * st + 0j, _COS, 0, 0),
        (0.25 / f**2 + 0j, _ONE, 0, 0),
        # -i times the real coupling; its sin(phi) factor is the _SIN harmonic
        (-1j * (0.5 * al * t1 * st * (1.0 + 2.0 * al * ct) / f), _SIN, 0, 0),
    ]


#: Rows of `_term_table`: the curvature potential, the magnetic coupling
#: and those that do not depend on the field.
_CURVATURE, _COUPLING = 10, 11
_FIELD_FREE = (0, 1, 2, _CURVATURE)


class _BasisTerms:
    """The field-free parts of assembly for one basis, on N_QUAD nodes.

    `tables[j]` holds the j-th theta-derivative of every basis function at
    `theta`, read-only; `phi[i]` holds row i's nu x nu harmonic matrix as
    its nonzero (row, column) indices and their values; `fixed[i]` is the
    increment of each field-free row i.
    """

    def __init__(self, basis: BasisSet):
        self.theta = quadrature_nodes(N_QUAD)
        self.dtheta = 2.0 * np.pi / N_QUAD
        self.f = 1.0 + basis.alpha * np.cos(self.theta)
        self.tables = tuple(basis.values(self.theta, j) for j in range(3))
        for table in self.tables:
            table.flags.writeable = False
        nus = np.array(basis.nus)
        rows = _term_table(basis.alpha, 0.0, 0.0, self.theta)
        self.phi = []
        for _, harm, _, jp in rows:
            # exact phi integrals: harmonic m moves nu_col to nu_col + m
            full = sum(cm * np.eye(nus.size, k=-m) for m, cm in harm.items())
            full = full * (1j * nus) ** jp
            r, c = np.nonzero(full)
            self.phi.append((r, c, full[r, c, None, None]))
        self.fixed = {i: self.increment(i, rows[i]) for i in _FIELD_FREE}

    def increment(self, i: int, row: tuple) -> np.ndarray:
        """Row i's entries on its harmonic matrix's nonzeros, where they form
        the Kronecker product (theta matrix) x (harmonic matrix)."""
        coeff, _, jt, _ = row
        # theta integrals for all basis-function pairs at once
        tmat = (self.tables[0] * (coeff * self.f)) @ self.tables[jt].T * self.dtheta
        return tmat * self.phi[i][2]


#: Each basis's field-free terms, dropped when the basis is.
_BASIS_TERMS: weakref.WeakKeyDictionary[BasisSet, _BasisTerms] = (
    weakref.WeakKeyDictionary()
)


def assemble(
    tau0: float, tau1: float, basis: BasisSet
) -> dict[tuple[bool, bool], np.ndarray]:
    """Dense complex matrices of the surface Hamiltonian at one field.

    Keyed by (vc_on, vmag_on), one matrix for each of the three printed
    variants: (False, False), (True, False) and (True, True); rows and
    columns follow `basis.labels()`.  The curvature potential enters as
    1/(4 F^2), which is a^2 (h^2 - k) on the torus.  Raises OverflowError,
    naming the field, when a matrix is not finite.
    """
    terms = _BASIS_TERMS.get(basis)
    if terms is None:
        terms = _BASIS_TERMS[basis] = _BasisTerms(basis)
    nf, nnu = len(basis.functions), len(basis.nus)
    h = np.zeros((nf, nnu, nf, nnu), dtype=complex)  # rows and columns (f, nu)
    matrices = {}
    # a non-finite sum stays non-finite, so the last matrix shows an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(_term_table(basis.alpha, tau0, tau1, terms.theta)):
            if i == _CURVATURE:
                matrices[False, False] = h.copy()
            elif i == _COUPLING:
                matrices[True, False] = h.copy()
            r, c, _ = terms.phi[i]
            inc = terms.fixed[i] if i in terms.fixed else terms.increment(i, row)
            h[:, r, :, c] += inc
    if not np.isfinite(h).all():
        raise OverflowError(
            f"field tau0={tau0:g}, tau1={tau1:g} is out of range: its matrices "
            "are not finite"
        )
    matrices[True, True] = h
    return {key: m.reshape(nf * nnu, nf * nnu) for key, m in matrices.items()}
