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
non-Hermitian matrix by construction (`FieldConfig.hermitian` is False).

The printed `VARIANTS`, off-off, on-off and on-on (curvature potential
V, magnetic coupling K), are nested prefixes of `_term_table`.
H = C + V + tau0 A0 + tau1 A1 + tau0^2 Q0 + tau1^2 Q1 + tau0 tau1 X + tau1 K
exactly, and no piece couples the two inversion sectors.  So for T fields
with tau1 != 0, `assemble` combines the eight real pieces, integrated,
checked and kept as sector blocks once per basis, by one product per sector
with a (T k, 8) table of the k variants' coefficients at each field.  The
check also holds K antisymmetric and V positive semidefinite, which bounds the
off variants' eigenvalues by on-on's top in each sector for the sector solve.
At tau1 = 0, K is zero, so on-off and on-on are one "on" matrix, and the
stored outputs pin the rounding of an ordered loop: it adds the nonzero rows
in table order to the on slot of a zero stack, copied to the off-off slot
before V.  `_BasisTerms` keeps the per-basis parts.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import permutations

import numpy as np

from .basis import BasisSet, sector_index
from .solver import HERMITICITY_TOL, check

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


#: The printed variants, (name, vc_on, vmag_on), in `assemble`'s order.
VARIANTS = (("off-off", False, False), ("on-off", True, False), ("on-on", True, True))

#: Rows of `_term_table`: the curvature potential, the magnetic coupling
#: and those that do not depend on the field.
_CURVATURE, _COUPLING = 10, 11
_FIELD_FREE = (0, 1, 2, _CURVATURE)

#: The rows of the pieces C, V, A0, A1, Q0, Q1, X and K of H at tau1 != 0;
#: every row's coefficient is a monomial in (tau0, tau1), so at the field
#: (1, 1) each row has its piece's unit coefficient.
_PIECES = ((0, 1, 2), (_CURVATURE,), (3,), (4, 5), (6,), (7, 8), (9,), (_COUPLING,))


def _term_table(
    al: float, t0: float, t1: float, theta: np.ndarray
) -> list[tuple[np.ndarray, dict[int, float], int, int]]:
    """(C(theta) samples, phi harmonics P, d/dtheta order j, -i d/dphi order
    p) for each term C P d^j/dtheta^j (-i d/dphi)^p of the operator at aspect
    ratio al and field (t0, t1), both potentials included; all real."""
    st, ct = np.sin(theta), np.cos(theta)
    f = 1.0 + al * ct
    t0_sq, t1_sq = np.float64(t0) ** 2, np.float64(t1) ** 2  # may be inf
    return [
        (np.ones_like(theta), _ONE, 2, 0),
        (-al * st / f, _ONE, 1, 0),
        (-al**2 / f**2, _ONE, 0, 2),
        (-t0 * al**2 * np.ones_like(st), _ONE, 0, 1),
        (t1 * al**3 * st / f, _COS, 0, 1),
        (al * t1 * (al + ct), _ISIN, 1, 0),
        (-0.25 * t0_sq * al**2 * f**2, _ONE, 0, 0),
        (-0.25 * t1_sq * al**2 * f**2, _SIN2, 0, 0),
        (-0.25 * t1_sq * al**4 * st**2, _ONE, 0, 0),
        (0.5 * t0 * t1 * al**3 * f * st, _COS, 0, 0),
        (0.25 / f**2, _ONE, 0, 0),  # the curvature potential
        # -i times the real coupling V sin(phi): -V times the i sin(phi) pair
        (-(0.5 * al * t1 * st * (1.0 + 2.0 * al * ct) / f), _ISIN, 0, 0),
    ]


class _BasisTerms:
    """The field-free parts of assembly for one basis, on N_QUAD nodes.

    `f` and `tables[j]` (read-only) hold F and the j-th theta-derivative of
    every basis function at `theta`; `phi[i]` holds row i's nu x nu harmonic
    matrix as its nonzero (row, column) indices and their values; `fixed[i]`
    is the increment of each field-free row i; `index[s]` lists the states
    of the s-th inversion sector.
    """

    def __init__(self, basis: BasisSet):
        self.alpha, self.sectors = basis.alpha, basis.sectors
        self.index = sector_index(self.sectors)
        self.shape = (len(basis.functions), len(basis.nus)) * 2  # rows, columns (f, nu)
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

    def row(self, i: int, table: list) -> np.ndarray:
        """The increment of row i of a field's `_term_table`, kept if field-free."""
        return self.fixed[i] if i in self.fixed else self.increment(i, table[i])

    @cached_property
    def pieces(self) -> list[np.ndarray]:
        """Each sector's blocks of the `_PIECES`, flattened, (8, n_s * n_s),
        after checking that no piece couples the sectors: H is their linear
        combination, so this covers every field."""
        # each state's place in sector order, by nu, then function: a piece's
        # sector blocks and the blocks between the sectors are then views
        at = np.argsort(np.concatenate(self.index)).reshape(self.shape[:2]).T
        ends = np.cumsum([i.size for i in self.index])
        spans = [slice(end - i.size, end) for i, end in zip(self.index, ends)]
        out = [np.empty((len(_PIECES), i.size**2)) for i in self.index]
        table = _term_table(self.alpha, 1.0, 1.0, self.theta)
        for k, rows in enumerate(_PIECES):
            h = np.zeros((len(self.sectors),) * 2)
            for i in rows:
                r, c, _ = self.phi[i]
                h[at[r, :, None], at[c, None, :]] += self.row(i, table)
            check([h[None, s, s] for s in spans], slice(0),
                  [h[None, s, t] for s, t in permutations(spans, 2)])
            for block, s in zip(out, spans):
                block[k] = h[s, s].ravel()
        for block, i in zip(out, self.index):  # V and K are pieces 1 and 7
            _check_bounds(block[1].reshape(i.size, i.size), block[7].reshape(i.size, i.size))
        return out


def _check_bounds(v: np.ndarray, k: np.ndarray) -> None:
    """Check that the sector block v of the curvature piece is positive
    semidefinite and that k of the coupling piece is antisymmetric, each
    within HERMITICITY_TOL times max(1, max|piece|).  On-off's symmetric
    part is then on-on's, and off-off's is on-on's less V, so no eigenvalue
    of theirs has a real part above on-on's top (Bendixson), which the
    sector solve takes as a bound."""
    bound = HERMITICITY_TOL * max(1.0, np.max(np.abs(k), initial=0.0))
    defect = np.max(np.abs(k + k.T), initial=0.0)
    if defect > bound:
        raise ArithmeticError(f"coupling piece is not antisymmetric: max|K + K^T| "
                              f"= {defect:.3e} exceeds {bound:.1e}")
    bound = HERMITICITY_TOL * max(1.0, np.max(np.abs(v), initial=0.0))
    try:
        np.linalg.cholesky(v + bound * np.eye(len(v)))
    except np.linalg.LinAlgError:
        raise ArithmeticError(f"curvature piece is not positive semidefinite: "
                              f"V + {bound:.1e} I has no Cholesky factor") from None


#: Each basis's field-free terms, dropped when the basis is.
_BASIS_TERMS: weakref.WeakKeyDictionary[BasisSet, _BasisTerms] = (
    weakref.WeakKeyDictionary()
)


def assemble(tau0, tau1, basis: BasisSet, variants=VARIANTS):
    """The real matrices of the surface Hamiltonian for the variants, a tail
    of `VARIANTS`: at a scalar tau1 = 0 a float64 stack in `basis.labels()`
    order, off-off if asked, then the "on" matrix that on-off and on-on share,
    else, for T fields given as sequences (or scalars, T = 1) of tau0 and of
    tau1 != 0, a list of one (T k, n_s, n_s) stack per inversion sector, in
    label order, of the k variants at each field in turn.  The curvature
    potential enters as 1/(4 F^2), a^2 (h^2 - k) on the torus.
    Raises OverflowError, naming the first field whose matrices are not finite."""
    terms = _BASIS_TERMS.get(basis)
    if terms is None:
        terms = _BASIS_TERMS[basis] = _BasisTerms(basis)
    whole = np.ndim(tau1) == 0 and tau1 == 0.0
    t0, t1 = np.atleast_1d(np.asarray(tau0, float), np.asarray(tau1, float))
    # a non-finite sum stays non-finite, so the last matrix shows an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        if not whole:
            # the pieces' coefficients, per field, then per variant; a lone
            # row goes with a copy, as numpy's one-row product (gemv) rounds
            # otherwise than a run's (gemm), and a field's bits are its run's
            coeff = np.array([[1.0, vc, *f, vmag * f[1]]
                              for f in zip(t0, t1, t0 * t0, t1 * t1, t0 * t1)
                              for _, vc, vmag in variants])
            m = len(coeff)
            out = [(np.resize(coeff, (max(m, 2), 8)) @ p)[:m].reshape(m, i.size, i.size)
                   for p, i in zip(terms.pieces, terms.index)]
        else:
            # two slots when off-off, whose vc_on is off, is asked for
            stack = np.zeros((2 - variants[0][1], *terms.shape))
            h = stack[-1]  # the running sum, on at the end
            rows = _term_table(basis.alpha, tau0, tau1, terms.theta)
            for i, (r, c, _) in enumerate(terms.phi):
                if i == _CURVATURE and len(stack) == 2:
                    stack[0] = h
                if rows[i][0].any():  # a zero row, K's among them, changes no bit
                    h[:, r, :, c] += terms.row(i, rows)
            out = [stack.reshape(len(stack), len(basis.sectors), -1)]
    finite = np.all([np.isfinite(s).reshape(len(t0), -1).all(1) for s in out], axis=0)
    if not finite.all():
        i = np.argmin(finite)
        raise OverflowError(f"field tau0={t0[i]:g}, tau1={t1[i]:g} is out of range: "
                            "its matrices are not finite")
    return out[0] if whole else out
