"""Readings of solver results that only the tests take, and the assembly
helpers the tests share."""

import numpy as np

from torusmag import hamiltonian
from torusmag.basis import _primitive_gram, sector_index
from torusmag.hamiltonian import (
    _COUPLING, _CURVATURE, VARIANTS, _term_table, assemble, quadrature_nodes,
)
from torusmag.oracle import _grid_terms, _reflection_bases
from torusmag.solver import eigensolve


#: The (vc_on, vmag_on) pairs the commands print, in the order of
#: `assemble`'s sector stacks and of `whole_stack`.
PRINTED = [(vc, vmag) for _, vc, vmag in VARIANTS]


def sector_blocks(h, sector) -> list[np.ndarray]:
    """A whole stack h (k, n, n) as the sector stacks that `assemble` returns
    at tau1 != 0 and `eigensolve_general` takes."""
    return [h[:, i[:, None], i] for i in sector_index(sector)]


def whole_stack(tau0, tau1, basis) -> np.ndarray:
    """The printed variants' matrices at one field as a whole (3, n, n) stack,
    in `PRINTED` order: at tau1 = 0 `assemble`'s off-off and its one "on"
    matrix repeated for on-off and on-on, else its sector stacks on the
    diagonal blocks, with exact zeros between the sectors."""
    out = assemble(tau0, tau1, basis)
    if tau1 == 0.0:
        return out[[int(vc) for vc, _ in PRINTED]]
    n = len(basis.sectors)
    whole = np.zeros((len(PRINTED), n, n))
    for block, i in zip(out, sector_index(basis.sectors)):
        whole[:, i[:, None], i] = block
    return whole


def leak_into_a_piece(monkeypatch, n_even: int) -> None:
    """Give the tau0-linear piece of every basis first assembled at tau1 != 0
    from now on one cross-sector entry of 1e-6: the f0 row and the g1 column
    (function index n_even) at the lowest nu, which are in different sectors."""
    increment = hamiltonian._BasisTerms.increment

    def leaking(self, i, row):
        inc = increment(self, i, row)
        if i == 3:  # the row of the piece A0
            inc = inc.copy()
            inc[0, 0, n_even] += 1e-6
        return inc

    monkeypatch.setattr(hamiltonian._BasisTerms, "increment", leaking)


def break_a_bound(monkeypatch, row: int, at: tuple, entry: float) -> None:
    """Add entry to row's increment at index at, (harmonic nonzero, row
    function, column function), in every basis built from now on: within a
    sector, into the coupling row (`_COUPLING`) a symmetric part, into the
    curvature row (`_CURVATURE`), for a diagonal entry below minus V's, a
    negative direction."""
    increment = hamiltonian._BasisTerms.increment

    def broken(self, i, table_row):
        inc = increment(self, i, table_row)
        if i == row:
            inc = inc.copy()
            inc[at] += entry
        return inc

    monkeypatch.setattr(hamiltonian._BasisTerms, "increment", broken)


def reference_sector_tops(blocks, k: int) -> np.ndarray:
    """Each matrix's top eigenvalue in every sector, (m, sectors), complex,
    for fields of k members with the Hermitian one last, as the sector solve
    takes them: the last of `eigvalsh` for a Hermitian member and the
    largest of `eigvals` by real part for the others, in both sectors of
    every matrix, one matrix at a time.  The reference for the certified
    sector solve, which skips a sector that cannot hold the ground."""
    tops = np.empty((len(blocks[0]), len(blocks)), dtype=complex)
    for s, stack in enumerate(blocks):
        for i, h in enumerate(stack):
            if i % k == k - 1:
                tops[i, s] = np.linalg.eigvalsh(h)[-1]
            else:
                tops[i, s] = np.sort(np.linalg.eigvals(h))[-1]
    return tops


def refined_top(h, digits: int = 40) -> float:
    """The top eigenvalue of the real matrix h, real and isolated, to about
    `digits` digits: `eig` picks it and its vector, and two Newton steps on
    (h - lam) x = 0, x_k = 1 refine both in mpmath, each squaring the error
    (1e-15 -> 1e-30 -> below 10**-digits)."""
    import mpmath  # with sympy, a test extra

    w, v = np.linalg.eig(h)
    order = np.argsort(-w.real)
    top, x = w[order[0]], v[:, order[0]]
    assert top.imag == 0.0 and w[order[1]].real < top.real - 1e-6 * np.abs(w).max()
    n, k = len(h), int(np.argmax(np.abs(x)))
    with mpmath.workdps(digits):
        a = mpmath.matrix(h.tolist())
        x = mpmath.matrix((x.real / x[k].real).tolist())
        lam = mpmath.mpf(float(top.real))
        for _ in range(2):
            # the Jacobian [[h - lam I, -x], [e_k^T, 0]] and the residual
            jac = mpmath.zeros(n + 1)
            jac[:n, :n] = a - lam * mpmath.eye(n)
            jac[:n, n] = -x
            jac[n, k] = 1
            rhs = mpmath.zeros(n + 1, 1)
            rhs[:n, 0] = lam * x - a * x
            step = mpmath.lu_solve(jac, rhs)
            x += step[:n, 0]
            lam += step[n]
        assert abs(step[n]) < 1e-25  # the second step is already squared
        return float(lam)


def assemble_variant(field, basis) -> np.ndarray:
    """The assembled matrix of the printed variant that field's toggles name."""
    i = PRINTED.index((field.vc_on, field.vmag_on))
    return whole_stack(field.tau0, field.tau1, basis)[i]


def solve_ground(h, basis):
    """`eigensolve`'s `GroundState` of one Hermitian matrix in basis."""
    [ground] = eigensolve(h[None], basis.sectors)
    return ground


def spectrum(h) -> tuple[np.ndarray, np.ndarray]:
    """The full spectrum of a real Hermitian matrix: `np.linalg.eigh` of its
    symmetric part, cast to complex as in `eigensolve`, eigenvalues ascending
    with aligned vector columns."""
    return np.linalg.eigh((0.5 * (h + h.T)).astype(complex))


def hermiticity_defect(h) -> float:
    """max |H - H^dagger| over all entries."""
    return float(np.max(np.abs(h - h.conj().T)))


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
    h = np.zeros((nf, nnu, nf, nnu))  # rows and columns (f, nu)
    dtheta = 2.0 * np.pi / n_quad
    for coeff, harm, jt, jp in variant_rows(basis.alpha, field, theta):
        # the complex product whose rounding the stored outputs pin
        tmat = ((vals * (coeff * f)).astype(complex) @ deriv[jt].T).real * dtheta
        phi = sum(cm * np.eye(nnu, k=-m) for m, cm in harm.items()) * nus**jp
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


def amplitude(comp, label) -> float:
    """Amplitude of one basis label in a composition; 0 if it is absent."""
    kind, n, nu = label
    if (kind, n) not in comp.functions or nu not in comp.nus:
        return 0.0
    return float(comp.amps[comp.functions.index((kind, n)), comp.nus.index(nu)])


def norm_sq(comp) -> float:
    return float(np.sum(np.abs(comp.amps) ** 2))


def circulation(comp) -> float:
    """Expectation of -i d/dphi: sum of nu |amplitude|^2."""
    return float(np.sum(np.abs(comp.amps) ** 2 @ np.array(comp.nus)))


def residual(ground, h: np.ndarray) -> float:
    """||H v - eps0 v|| of a ground pair (its vector is unit norm)."""
    return float(np.linalg.norm(h @ ground.vector - ground.eps0 * ground.vector))


def reference_gram_schmidt_block(alpha: float, odd: bool, count: int) -> np.ndarray:
    """`basis._gram_schmidt_block` as it was written with its checks: every
    projection as u @ gram @ v, a sign fix and two raises, which never fire.
    The rewrite must stay bitwise equal to it."""
    parity = "odd" if odd else "even"
    gram = _primitive_gram(alpha, odd, count)

    def dot(u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ gram @ v)

    funcs: list[np.ndarray] = []
    for i in range(count):
        v = np.eye(count)[i]
        for _ in range(2):  # one re-orthogonalization pass
            for u in funcs:
                v = v - dot(u, v) * u
        nrm2 = dot(v, v)
        if nrm2 <= 0:
            raise AssertionError(f"{parity} primitive {i} numerically degenerate")
        v = v / np.sqrt(nrm2)
        if v[i] < 0:  # leading coefficient made positive
            v = -v
        funcs.append(v)
    coeffs = np.array(funcs).reshape(count, count)
    loss = np.abs(coeffs @ gram @ coeffs.T - np.eye(count))
    if np.any(loss > 1e-10):
        i, j = np.unravel_index(np.argmax(loss), loss.shape)
        raise AssertionError(f"orthogonality loss at {parity} pair ({i}, {j})")
    return coeffs
