"""Readings of solver results that only the tests take, and the assembly
helpers the tests share."""

import numpy as np

from torusmag import hamiltonian
from torusmag.cli import VARIANTS
from torusmag.hamiltonian import (
    _COUPLING, _CURVATURE, _term_table, assemble, quadrature_nodes,
)
from torusmag.oracle import _grid_terms, _reflection_bases


#: The (vc_on, vmag_on) pairs the commands print; `assemble` builds these.
PRINTED = {(vc, vmag) for _, vc, vmag in VARIANTS}


def assemble_variant(field, basis) -> np.ndarray:
    """The assembled matrix of the printed variant that field's toggles name."""
    return assemble(field.tau0, field.tau1, basis)[field.vc_on, field.vmag_on]


def variant_rows(al, field, theta) -> list:
    """The `_term_table` rows of field's variant, in table order: every row,
    less the curvature row when vc is off and the coupling row when vmag is
    off.  Any of the four toggle pairs, off-on included."""
    rows = _term_table(al, field.tau0, field.tau1, theta)
    return [row for i, row in enumerate(rows)
            if (i != _CURVATURE or field.vc_on) and (i != _COUPLING or field.vmag_on)]


def reference_assemble(field, basis) -> np.ndarray:
    """One variant assembled term by term: its `variant_rows`, in table
    order, added to a zero matrix.

    The reference that `assemble` must match bit for bit: it keeps the
    field-free rows per basis and copies its running sum for the nested
    variants, which is only exact if every sum keeps this order.  The
    theta tables here are `basis.values` at the nodes, not the per-basis
    record under test.  It also builds the off-on variant, which no
    command prints and `assemble` does not return, so the tests check that
    operator here.
    """
    n_quad = hamiltonian.N_QUAD
    theta = quadrature_nodes(n_quad)
    deriv = [basis.values(theta, j) for j in range(3)]
    vals = deriv[0]
    f = 1.0 + basis.alpha * np.cos(theta)

    nus = np.array(basis.nus)
    nf, nnu = len(vals), len(nus)
    h = np.zeros((nf, nnu, nf, nnu), dtype=complex)  # rows and columns (f, nu)
    dtheta = 2.0 * np.pi / n_quad
    for coeff, harm, jt, jp in variant_rows(basis.alpha, field, theta):
        tmat = (vals * (coeff * f)) @ deriv[jt].T * dtheta
        phi = sum(cm * np.eye(nnu, k=-m) for m, cm in harm.items()) * (1j * nus) ** jp
        r, c = np.nonzero(phi)
        h[:, r, :, c] += tmat * phi[r, c, None, None]
    return h.reshape(nf * nnu, nf * nnu)


def reference_sector_blocks(al, field, grid) -> list[np.ndarray]:
    """The grid operator's two inversion-sector blocks, A then B, each
    quadrant the sum of `np.kron(theta matrix, nu matrix)` over the terms.

    The dense reference for each sector's top eigenvalue: `grid_solve`'s
    eps0 must be the largest eigenvalue of the two blocks, and its sector
    the block that holds it.  Rows are the theta-even part, then the
    theta-odd one, each with the theta index slowest and nu in FFT order:
    sector A pairs theta-even with even nu and theta-odd with odd nu,
    sector B the other way.
    """
    terms = _grid_terms(al, field, grid)
    q_even, q_odd = _reflection_bases(grid.n_theta)
    even_nu, odd_nu = slice(0, None, 2), slice(1, None, 2)
    blocks = []
    for first, second in ((even_nu, odd_nu), (odd_nu, even_nu)):
        parts = ((q_even, first), (q_odd, second))
        # a term that keeps theta parity has a zero nu matrix between nu of
        # different parity, and one that flips it between nu of equal parity
        blocks.append(np.block([
            [sum(np.kron(qa.T @ a @ qb, b[sa, sb]) for a, b in terms) for qb, sb in parts]
            for qa, sa in parts
        ]))
    return blocks


def operator_matrix(field, basis) -> np.ndarray:
    """`assemble`'s matrix for a printed variant; for off-on, which no
    command prints, the term-by-term reference."""
    if (field.vc_on, field.vmag_on) in PRINTED:
        return assemble_variant(field, basis)
    return reference_assemble(field, basis)


def amplitude(comp, label) -> complex:
    """Amplitude of one basis label in a composition; 0 if it is absent."""
    kind, n, nu = label
    if (kind, n) not in comp.functions or nu not in comp.nus:
        return 0.0
    return complex(comp.amps[comp.functions.index((kind, n)), comp.nus.index(nu)])


def norm_sq(comp) -> float:
    return float(np.sum(np.abs(comp.amps) ** 2))


def circulation(comp) -> float:
    """Expectation of -i d/dphi: sum of nu |amplitude|^2."""
    return float(np.sum(np.abs(comp.amps) ** 2 @ np.array(comp.nus)))


def residuals(s, h: np.ndarray) -> np.ndarray:
    """||H v - eps v|| per eigenpair (eigenvectors are unit norm)."""
    hv = h @ s.eigenvectors
    return np.linalg.norm(hv - s.eigenvectors * s.eigenvalues[np.newaxis, :], axis=0)
