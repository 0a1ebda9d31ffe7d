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
the opposite sign it is not.  Dropping the term (vmag_on=False) while
tau1 != 0 therefore leaves a slightly non-Hermitian matrix by construction
(`FieldConfig.hermitian` is False), which `solver.eigensolve_general`
handles.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSet, quadrature_nodes
from .field import FieldConfig

#: phi-harmonic tables: {m: c_m} meaning P(phi) = sum_m c_m exp(i m phi).
_ONE = {0: 1.0}
_COS = {1: 0.5, -1: 0.5}
_SIN = {1: -0.5j, -1: 0.5j}
_SIN2 = {0: 0.5, 2: -0.25, -2: -0.25}


def _term_table(
    al: float,
    field: FieldConfig,
    theta: np.ndarray,
) -> list[tuple[np.ndarray, dict[int, complex], int, int]]:
    """(C(theta) samples, phi harmonics, d/dtheta order, d/dphi order) for
    each term of the operator at aspect ratio al."""
    t0, t1 = field.tau0, field.tau1
    st, ct = np.sin(theta), np.cos(theta)
    f = 1.0 + al * ct
    one = np.ones_like(theta)

    terms: list[tuple[np.ndarray, dict[int, complex], int, int]] = [
        (one + 0j, _ONE, 2, 0),
        (-al * st / f + 0j, _ONE, 1, 0),
        (al**2 / f**2 + 0j, _ONE, 0, 2),
        (1j * t0 * al**2 * one, _ONE, 0, 1),
        (-1j * t1 * al**3 * st / f, _COS, 0, 1),
        (1j * al * t1 * (al + ct), _SIN, 1, 0),
        (-0.25 * t0**2 * al**2 * f**2 + 0j, _ONE, 0, 0),
        (-0.25 * t1**2 * al**2 * f**2 + 0j, _SIN2, 0, 0),
        (-0.25 * t1**2 * al**4 * st**2 + 0j, _ONE, 0, 0),
        (0.5 * t0 * t1 * al**3 * f * st + 0j, _COS, 0, 0),
    ]
    if field.vc_on:
        terms.append((0.25 / f**2 + 0j, _ONE, 0, 0))
    if field.vmag_on:
        # -i times the real coupling; its sin(phi) factor is the _SIN harmonic
        vmag = 0.5 * al * t1 * st * (1.0 + 2.0 * al * ct) / f
        terms.append((-1j * vmag, _SIN, 0, 0))
    return terms


def assemble(field: FieldConfig, basis: BasisSet) -> np.ndarray:
    """Dense complex matrix of the surface Hamiltonian in the given basis.

    Rows and columns follow `basis.labels()`.  The curvature potential
    enters as 1/(4 F^2), which is a^2 (h^2 - k) on the torus.
    """
    deriv = basis.quadrature_tables
    vals = deriv[0]
    n_quad = vals.shape[1]
    theta = quadrature_nodes(n_quad)
    f = 1.0 + basis.alpha * np.cos(theta)

    nus = np.array(basis.nus)
    nf, nnu = len(vals), len(nus)
    h = np.zeros((nf, nnu, nf, nnu), dtype=complex)  # rows and columns (f, nu)
    dtheta = 2.0 * np.pi / n_quad
    for coeff, harm, jt, jp in _term_table(basis.alpha, field, theta):
        # theta integrals for all basis-function pairs at once
        tmat = (vals * (coeff * f)) @ deriv[jt].T * dtheta
        # exact phi integrals: harmonic m moves nu_col to nu_col + m
        phi = sum(cm * np.eye(nnu, k=-m) for m, cm in harm.items()) * (1j * nus) ** jp
        r, c = np.nonzero(phi)  # np.kron(tmat, phi) on phi's nonzero entries
        h[:, r, :, c] += tmat * phi[r, c, None, None]
    return h.reshape(nf * nnu, nf * nnu)
