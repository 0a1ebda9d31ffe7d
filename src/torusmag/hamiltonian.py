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

`assemble` builds one field's matrices for the three printed variants,
off-off, on-off and on-on (curvature potential, magnetic coupling), at
once.  The parts that do not depend on the field are built once per basis
and dropped with it: the sum of the three kinetic terms, the 1/(4F^2)
curvature term and every term's nu x nu harmonic matrix with its nonzero
indices.  Per field, the tau terms are added to a copy of the kinetic sum
in `_term_table` order, giving off-off; then on-off = off-off + curvature
term and on-on = on-off + coupling term.  That is the float addition order
of adding the variant's rows of `_term_table` in turn to a zero matrix, so
each matrix is bitwise what a term-by-term assembly of its variant gives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, quadrature_nodes

#: phi-harmonic tables: {m: c_m} meaning P(phi) = sum_m c_m exp(i m phi).
_ONE = {0: 1.0}
_COS = {1: 0.5, -1: 0.5}
_SIN = {1: -0.5j, -1: 0.5j}
_SIN2 = {0: 0.5, 2: -0.25, -2: -0.25}


def _term_table(
    al: float, t0: float, t1: float, theta: np.ndarray
) -> list[tuple[np.ndarray, dict[int, complex], int, int]]:
    """(C(theta) samples, phi harmonics, d/dtheta order, d/dphi order) for
    each term of the operator at aspect ratio al and field (t0, t1), both
    potentials included.  Raises OverflowError, naming the field, when a
    tau squared leaves the float range."""
    try:
        t0_sq, t1_sq = t0**2, t1**2
    except OverflowError:
        raise OverflowError(
            f"field tau0={t0:g}, tau1={t1:g} is out of range: its square "
            "overflows a float"
        ) from None
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


#: Rows of `_term_table` by role.  The kinetic rows and the curvature row
#: do not depend on the field.
_KINETIC = range(0, 3)
_TAU = range(3, 10)
_CURVATURE, _COUPLING = 10, 11


@dataclass(frozen=True, eq=False)
class _BasisTerms:
    """The field-free parts of assembly for one basis.

    `phi[i]` holds row i's nu x nu harmonic matrix as its nonzero (row,
    column) indices and their values; `kinetic` is the sum of the kinetic
    rows, added from zero in table order; `curvature` is the curvature
    row's increment on its nonzero entries.
    """

    theta: np.ndarray
    f: np.ndarray
    phi: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    kinetic: np.ndarray
    curvature: np.ndarray


#: Each basis's field-free terms, dropped when the basis is.
_BASIS_TERMS: weakref.WeakKeyDictionary[BasisSet, _BasisTerms] = (
    weakref.WeakKeyDictionary()
)


def _increment(
    basis: BasisSet, f: np.ndarray, row: tuple, phi: tuple[np.ndarray, ...]
) -> np.ndarray:
    """A `_term_table` row's entries on its harmonic matrix's nonzeros,
    where they form the Kronecker product (theta matrix) x (harmonic matrix)."""
    coeff, _, jt, _ = row
    deriv = basis.quadrature_tables
    dtheta = 2.0 * np.pi / deriv[0].shape[1]
    # theta integrals for all basis-function pairs at once
    tmat = (deriv[0] * (coeff * f)) @ deriv[jt].T * dtheta
    return tmat * phi[2]


def _added(h: np.ndarray, phi: tuple[np.ndarray, ...], inc: np.ndarray) -> np.ndarray:
    """h, an (f, nu, f, nu) array, with an increment added in place."""
    r, c, _ = phi
    h[:, r, :, c] += inc
    return h


def _basis_terms(basis: BasisSet) -> _BasisTerms:
    terms = _BASIS_TERMS.get(basis)
    if terms is not None:
        return terms
    theta = quadrature_nodes(basis.quadrature_tables[0].shape[1])
    f = 1.0 + basis.alpha * np.cos(theta)
    nus = np.array(basis.nus)
    nf, nnu = len(basis.functions), len(nus)
    rows = _term_table(basis.alpha, 0.0, 0.0, theta)
    phi = []
    for _, harm, _, jp in rows:
        # exact phi integrals: harmonic m moves nu_col to nu_col + m
        full = sum(cm * np.eye(nnu, k=-m) for m, cm in harm.items()) * (1j * nus) ** jp
        r, c = np.nonzero(full)
        phi.append((r, c, full[r, c, None, None]))
    kinetic = np.zeros((nf, nnu, nf, nnu), dtype=complex)  # rows and columns (f, nu)
    for i in _KINETIC:
        _added(kinetic, phi[i], _increment(basis, f, rows[i], phi[i]))
    curvature = _increment(basis, f, rows[_CURVATURE], phi[_CURVATURE])
    terms = _BASIS_TERMS[basis] = _BasisTerms(theta, f, phi, kinetic, curvature)
    return terms


def assemble(
    tau0: float, tau1: float, basis: BasisSet
) -> dict[tuple[bool, bool], np.ndarray]:
    """Dense complex matrices of the surface Hamiltonian at one field.

    Keyed by (vc_on, vmag_on), one matrix for each of the three printed
    variants: (False, False), (True, False) and (True, True); rows and
    columns follow `basis.labels()`.  The curvature potential enters as
    1/(4 F^2), which is a^2 (h^2 - k) on the torus.
    """
    fixed = _basis_terms(basis)
    rows = _term_table(basis.alpha, tau0, tau1, fixed.theta)
    phi = fixed.phi

    def increment(i: int) -> np.ndarray:
        return _increment(basis, fixed.f, rows[i], phi[i])

    off_off = fixed.kinetic.copy()
    for i in _TAU:
        _added(off_off, phi[i], increment(i))
    on_off = _added(off_off.copy(), phi[_CURVATURE], fixed.curvature)
    matrices = {
        (False, False): off_off,
        (True, False): on_off,
        (True, True): _added(on_off.copy(), phi[_COUPLING], increment(_COUPLING)),
    }
    dim = off_off.shape[0] * off_off.shape[1]
    return {key: h.reshape(dim, dim) for key, h in matrices.items()}
