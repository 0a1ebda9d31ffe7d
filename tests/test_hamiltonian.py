"""Matrix assembly: Hermiticity, block structure, selection rules."""

import gc
import math
import weakref

import numpy as np
import pytest

from torusmag import hamiltonian
from torusmag.basis import gram_schmidt_basis, sector_index
from torusmag.field import FieldConfig
from torusmag.hamiltonian import assemble, quadrature_nodes
from helpers import (
    PRINTED,
    assemble_variant,
    hermiticity_defect,
    operator_matrix,
    reference_assemble,
    spectrum,
    variant_rows,
    whole_stack,
)


@pytest.fixture(scope="module")
def h_tilted(basis):
    return assemble_variant(FieldConfig(1.5, 0.8), basis)


class TestHermiticity:
    @pytest.mark.parametrize(
        "tau0,tau1,vc",
        [(0.0, 0.0, True), (2.0, 0.0, True), (1.0, 1.0, True),
         (0.0, 2.0, True), (0.7, -1.3, False)],
    )
    def test_full_matrix_hermitian(self, basis, tau0, tau1, vc):
        h = operator_matrix(FieldConfig(tau0, tau1, vc_on=vc, vmag_on=True), basis)
        assert hermiticity_defect(h) < 1e-10

    def test_magnetic_coupling_off_breaks_hermiticity_inplane(self, basis):
        # dropping the magnetic curvature coupling removes exactly the
        # anti-Hermitian compensation of the in-plane paramagnetic terms
        h = assemble_variant(FieldConfig(0.0, 1.0, vc_on=False, vmag_on=False), basis)
        assert hermiticity_defect(h) > 1e-4

    def test_diagonal_elements_real(self, h_tilted):
        assert np.max(np.abs(np.diag(h_tilted).imag)) < 1e-12


class TestBlockStructure:
    def test_axial_field_preserves_nu_and_parity(self, basis):
        h = assemble_variant(FieldConfig(1.7, 0.0), basis)
        labels = basis.labels()
        for i, (ki, ni, nui) in enumerate(labels):
            for j, (kj, nj, nuj) in enumerate(labels):
                if nui != nuj or ki != kj:
                    assert abs(h[i, j]) < 1e-12

    def test_selection_rule_bounds_nu_coupling(self, basis, h_tilted):
        labels = basis.labels()
        for i, (_, _, nui) in enumerate(labels):
            for j, (_, _, nuj) in enumerate(labels):
                if abs(nui - nuj) > 2:
                    assert h_tilted[i, j] == 0.0

    def test_constant_mode_annihilated_without_potentials(self, basis):
        h = assemble_variant(FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False), basis)
        i = basis.labels().index(("f", 0, 0))
        assert np.max(np.abs(h[i, :])) < 1e-12
        assert np.max(np.abs(h[:, i])) < 1e-12


def element(h, basis, row, col):
    labels = basis.labels()
    return h[labels.index(row), labels.index(col)]


class TestSingleElements:
    def test_centrifugal_diagonal_closed_form(self, alpha, basis):
        # f0 diagonal of the azimuthal kinetic term: -nu^2 alpha^2/sqrt(1-alpha^2)
        h = assemble_variant(FieldConfig(0.0, 0.0, vc_on=False, vmag_on=False), basis)
        for nu in (-2, 1, 2):
            value = element(h, basis, ("f", 0, nu), ("f", 0, nu))
            expected = -(nu**2) * alpha**2 / math.sqrt(1.0 - alpha**2)
            assert value.real == pytest.approx(expected, rel=1e-12)
            assert value.imag == pytest.approx(0.0, abs=1e-14)

    def test_delta_nu_three_vanishes(self, basis):
        h = assemble_variant(FieldConfig(1.0, 1.0), basis)
        assert element(h, basis, ("f", 0, 1), ("f", 0, -2)) == 0.0

    def test_parity_decoupling_at_axial_field(self, basis):
        h = assemble_variant(FieldConfig(1.3, 0.0), basis)
        assert abs(element(h, basis, ("f", 0, 0), ("g", 1, 0))) < 1e-13


class TestToggles:
    def test_vmag_toggle_noop_for_axial_field(self, basis):
        on = assemble_variant(FieldConfig(1.5, 0.0, vmag_on=True), basis)
        off = assemble_variant(FieldConfig(1.5, 0.0, vmag_on=False), basis)
        assert np.array_equal(on, off)

    def test_vc_shifts_only_diagonal_blocks(self, basis):
        on = assemble_variant(FieldConfig(0.5, 0.0, vc_on=True, vmag_on=False), basis)
        off = assemble_variant(FieldConfig(0.5, 0.0, vc_on=False, vmag_on=False), basis)
        diff = on - off
        assert np.max(np.abs(diff.imag)) < 1e-14
        labels = basis.labels()
        for i, (ki, ni, nui) in enumerate(labels):
            for j, (kj, nj, nuj) in enumerate(labels):
                if nui != nuj or ki != kj:
                    assert abs(diff[i, j]) < 1e-13


class TestSymmetries:
    def test_field_reversal_leaves_spectrum(self, basis):
        fwd, _ = spectrum(assemble_variant(FieldConfig(1.2, 0.9), basis))
        rev, _ = spectrum(assemble_variant(FieldConfig(-1.2, -0.9), basis))
        assert np.max(np.abs(fwd - rev)) < 1e-10

    @pytest.mark.parametrize(
        "tau0,tau1,vc,vmag",
        [(1.3, 0.7, True, True), (-0.4, 2.1, True, True),
         (0.9, 1.6, False, False), (0.0, 1.0, True, False),
         (0.9, 1.6, False, True)],
    )
    def test_inversion_sectors_decouple(self, basis, tau0, tau1, vc, vmag):
        # (theta, phi) -> (-theta, phi + pi) multiplies f_n e^{i nu phi} by
        # (-1)^nu and g_n e^{i nu phi} by -(-1)^nu; a uniform field at any
        # tilt, with or without either potential, keeps the two sectors apart
        h = operator_matrix(FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag), basis)
        sector = np.array([(nu + (kind == "g")) % 2 for kind, _, nu in basis.labels()])
        cross = h[sector[:, None] != sector[None, :]]
        assert np.max(np.abs(cross)) < 1e-12

    @pytest.mark.parametrize("vc,vmag", [(False, False), (True, False),
                                         (False, True), (True, True)])
    @pytest.mark.parametrize("shape", ["default", "alpha08_8x7"])
    def test_matrix_exactly_real(self, basis, shape, vc, vmag):
        # every basis state f(theta) e^{i nu phi} is fixed by the antiunitary
        # map (complex conjugation) o (phi -> -phi), which commutes with H in
        # every variant; the matrix is assembled in real storage (the audit
        # below checks the real rows against the operator)
        if shape != "default":
            basis = gram_schmidt_basis(0.8, n_even=8, n_odd=7, nu_range=(-3, 4))
        fields = [(1.7, 0.0), (0.0, 1.3), (1.2, 0.9), (-1.2, -0.9), (0.0, -2.2)]
        for tau0, tau1 in fields:
            h = operator_matrix(FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag), basis)
            assert h.dtype == np.float64, (tau0, tau1)

    def test_quadrature_resolution_converged(self, alpha, monkeypatch):
        # each basis keeps its tables at the N_QUAD of its first assembly
        field = FieldConfig(1.1, 0.7)
        h = {}
        for n_quad in (256, 1024):
            monkeypatch.setattr(hamiltonian, "N_QUAD", n_quad)
            fresh = gram_schmidt_basis(alpha, n_even=6, n_odd=6, nu_range=(-2, 2))
            h[n_quad] = assemble_variant(field, fresh)
            assert hamiltonian._BASIS_TERMS[fresh].tables[0].shape[1] == n_quad
        assert np.max(np.abs(h[256] - h[1024])) < 1e-12


class TestOperatorAudit:
    """Each term C P d^j/dtheta^j (-i d/dphi)^p of the table against the
    operator derived symbolically.

    Lengths in units of R, e/hbar = 1, electron charge (p + eA), and
    A = (1/2) B x r on the embedded torus with B = (tau1, 0, tau0).  The
    operator is a^2 [(grad_s + i A_t)^2 - A_N^2 + h^2 - k]; the variant
    without the magnetic curvature coupling drops i a^2 div_s(A_t), which
    equals -2 i a^2 h A_N.
    """

    @pytest.mark.parametrize("vc,vmag", [(True, True), (False, False)])
    def test_term_table_is_the_covariant_operator(self, alpha, vc, vmag):
        sp = pytest.importorskip("sympy")
        th, ph = sp.symbols("theta phi", real=True)
        al, tau0, tau1 = alpha, 0.7, -1.3
        w = 1 + al * sp.cos(th)
        r = sp.Matrix([w * sp.cos(ph), w * sp.sin(ph), al * sp.sin(th)])
        a_vec = sp.Matrix([tau1, 0, tau0]).cross(r) / 2
        e_th, e_ph = r.diff(th) / al, r.diff(ph) / w
        a_th, a_ph = al * a_vec.dot(e_th), w * a_vec.dot(e_ph)
        a_n = a_vec.dot(e_ph.cross(e_th))  # outward normal, as in geometry
        h = (1 / al + sp.cos(th) / w) / 2
        k = sp.cos(th) / (al * w)
        psi = sp.exp(sp.sin(th) * sp.cos(ph) + sp.I * (ph + sp.cos(2 * th)))

        def cov(f, x, a_x):
            return f.diff(x) + sp.I * a_x * f

        lap = (
            cov(w / al * cov(psi, th, a_th), th, a_th)
            + cov(al / w * cov(psi, ph, a_ph), ph, a_ph)
        ) / (al * w)
        div = ((w / al * a_th).diff(th) + (al / w * a_ph).diff(ph)) / (al * w)
        op = al**2 * (lap - a_n**2 * psi)
        if vc:
            op += al**2 * (h**2 - k) * psi
        if not vmag:
            op -= sp.I * al**2 * div * psi

        theta = np.arange(16) * 2.0 * np.pi / 16
        phi = np.arange(12) * 2.0 * np.pi / 12
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        expected = sp.lambdify((th, ph), op, "numpy")(tt, pp)
        identity = sp.lambdify((th, ph), div + 2 * h * a_n, "numpy")(tt, pp)
        assert np.max(np.abs(identity)) < 1e-12
        field = FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag)
        got = np.zeros_like(tt, dtype=complex)
        for coeff, harm, jt, jp in variant_rows(alpha, field, theta):
            p_phi = sum(c * np.exp(1j * m * phi) for m, c in harm.items())
            dpsi = (-1j) ** jp * sp.lambdify((th, ph), psi.diff(th, jt, ph, jp), "numpy")(tt, pp)
            got += coeff[:, None] * p_phi[None, :] * dpsi
        assert np.max(np.abs(got - expected)) < 1e-10


class TestInterface:
    def test_even_only_basis_assembles(self, alpha):
        basis = gram_schmidt_basis(alpha, n_even=3, n_odd=0, nu_range=(-1, 1))
        h = assemble_variant(FieldConfig(0.8, 0.6), basis)
        assert h.shape == (9, 9)
        assert basis.labels() == [("f", n, nu) for n in range(3) for nu in (-1, 0, 1)]
        assert hermiticity_defect(h) < 1e-10


#: (alpha, n_even, n_odd, nu_range) of the bases the shared assembly is
#: compared on: the default, one theta-function (nu only) and 8+8 functions.
SHARED_BASES = {
    "default": (0.5, 6, 6, (-2, 2)),
    "nu-only": (0.5, 1, 0, (-3, 3)),
    "8x8-nu4": (0.8, 8, 8, (-4, 4)),
}


class TestSharedAssembly:
    """`assemble` builds the printed variants of a field from shared parts."""

    def test_builds_exactly_the_printed_variants(self, basis):
        # a printed variant cannot lose its matrix, and no unread one is
        # built: at tau1 = 0 the coupling K is zero, so on-off and on-on are
        # one matrix and the whole stack holds off-off and that one; one
        # stack of the three per sector otherwise
        n = len(basis.labels())
        assert assemble(0.6, 0.0, basis).shape == (2, n, n)
        on_off, on_on = (reference_assemble(FieldConfig(0.6, 0.0, vmag_on=vmag), basis)
                         for vmag in (False, True))
        assert on_off.tobytes() == on_on.tobytes()
        sizes = [i.size for i in sector_index(basis.sectors)]
        shapes = [s.shape for s in assemble(0.6, -1.1, basis)]
        assert shapes == [(len(PRINTED), m, m) for m in sizes] and sum(sizes) == n

    @pytest.mark.parametrize("shape", list(SHARED_BASES))
    def test_bitwise_equal_to_term_by_term_assembly(self, shape):
        alpha, n_even, n_odd, nu_range = SHARED_BASES[shape]
        basis = gram_schmidt_basis(alpha, n_even, n_odd, nu_range)
        # the tau1 = 0 fields, whose rounding the stored outputs pin: axial,
        # negative axial and zero fields, on-off and on-on both against the
        # one "on" matrix
        for tau0, tau1 in [(1.7, 0.0), (-2.5, 0.0), (0.0, 0.0)]:
            off, on = assemble(tau0, tau1, basis)
            for (vc, vmag), h in zip(PRINTED, (off, on, on), strict=True):
                field = FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag)
                ref = reference_assemble(field, basis)
                assert h.dtype == ref.dtype and h.shape == ref.shape
                assert h.tobytes() == ref.tobytes(), (tau0, tau1, vc, vmag)

    def test_variants_do_not_share_storage(self, basis):
        # neither the whole stack (tau1 = 0) nor a sector stack is a view of
        # what the next field's assembly returns or reads
        for tau1 in (0.0, -1.1):
            want = whole_stack(0.6, tau1, basis).tobytes()
            first = assemble(0.6, tau1, basis)
            for stack in (first if tau1 else [first]):
                stack[...] = 7.0
            assert whole_stack(0.6, tau1, basis).tobytes() == want, tau1

    @pytest.mark.parametrize("shape", list(SHARED_BASES) + ["alpha095-12x12"])
    def test_sector_stacks_match_term_by_term_assembly(self, shape):
        # at tau1 != 0 the stacks combine the per-basis affine pieces, so
        # they match the term-by-term sum to rounding, not bit for bit
        alpha, n_even, n_odd, nu_range = SHARED_BASES.get(shape, (0.95, 12, 12, (-8, 8)))
        basis = gram_schmidt_basis(alpha, n_even, n_odd, nu_range)
        rng = np.random.default_rng(23)
        fields = [(0.0, 1.3), (1.2, 0.9), (-1.2, -0.9), (0.0, -2.2), (1e5, 1e-5)]
        for tau0, tau1 in fields + [tuple(f) for f in rng.uniform(-5.0, 5.0, (6, 2))]:
            for (vc, vmag), h in zip(PRINTED, whole_stack(tau0, tau1, basis)):
                ref = reference_assemble(FieldConfig(tau0, tau1, vc_on=vc, vmag_on=vmag), basis)
                bound = 1e-13 * max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(h - ref)) <= bound, (shape, tau0, tau1, vc, vmag)

    def test_field_free_terms_freed_with_the_basis(self, alpha):
        basis = gram_schmidt_basis(alpha, n_even=2, n_odd=1, nu_range=(-1, 1))
        assemble(0.3, 0.2, basis)
        terms = weakref.ref(hamiltonian._BASIS_TERMS[basis])
        del basis
        gc.collect()
        assert terms() is None


def _arrays(obj):
    """Every ndarray in obj, looking through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


class TestBasisTerms:
    """The field-free parts `assemble` keeps per basis."""

    def test_equal_to_values_at_the_nodes(self, basis):
        assemble(0.0, 0.0, basis)
        terms = hamiltonian._BASIS_TERMS[basis]
        theta = quadrature_nodes(hamiltonian.N_QUAD)
        assert np.array_equal(theta, np.arange(512) * 2.0 * np.pi / 512)
        assert np.array_equal(terms.theta, theta)
        for order, table in enumerate(terms.tables):
            assert np.array_equal(table, basis.values(theta, order))

    def test_kept_per_grid_size_and_read_only(self, alpha, monkeypatch):
        # the grid size is read when a basis is first assembled
        monkeypatch.setattr(hamiltonian, "N_QUAD", 16)
        small = gram_schmidt_basis(alpha, n_even=2, n_odd=1, nu_range=(0, 0))
        before = repr(small)
        assemble(0.3, 0.2, small)
        first = hamiltonian._BASIS_TERMS[small]
        assemble(-0.7, 1.1, small)
        assert hamiltonian._BASIS_TERMS[small] is first
        assert [t.shape for t in first.tables] == [(3, 16)] * 3
        for table in first.tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        assert repr(small) == before

    def test_integrates_each_row_once_per_basis(self, alpha, monkeypatch):
        # the four field-free rows once for the record, which the pieces C
        # and V reuse, and the eight field rows once for the other pieces
        calls = []
        increment = hamiltonian._BasisTerms.increment

        def counted(self, i, row):
            calls.append(i)
            return increment(self, i, row)

        monkeypatch.setattr(hamiltonian._BasisTerms, "increment", counted)
        fresh = gram_schmidt_basis(alpha, n_even=3, n_odd=2, nu_range=(-1, 1))
        assemble(0.4, 1.1, fresh)
        assert sorted(calls) == list(range(12))
        calls.clear()
        for tau0, tau1 in [(0.0, -0.7), (1.3, 2.0)]:
            assemble(tau0, tau1, fresh)
        assert calls == []

    @pytest.mark.parametrize("f_row,f_col", [(0, 3), (3, 0)])
    def test_leak_between_sectors_caught_either_way(
        self, alpha, monkeypatch, f_row, f_col
    ):
        # f0 and g1 (function 3 of 3+2) at the lowest nu lie in different
        # sectors, so the entry lands in one of the two blocks between them
        increment = hamiltonian._BasisTerms.increment

        def leaking(self, i, row):
            inc = increment(self, i, row)
            if i == 3:  # the row of the piece A0
                inc = inc.copy()
                inc[0, f_row, f_col] += 1e-6
            return inc

        monkeypatch.setattr(hamiltonian._BasisTerms, "increment", leaking)
        fresh = gram_schmidt_basis(alpha, n_even=3, n_odd=2, nu_range=(-1, 1))
        with pytest.raises(ArithmeticError, match=r"couples the inversion sectors: "
                           r"max\|H_AB\| = 1\.000e-06 exceeds 1\.0e-12"):
            assemble(0.4, 1.1, fresh)

    def test_holds_no_dense_matrix(self):
        # 4+4 functions and nu in [-12, 12]: dimension 200.  The record holds
        # per-function-pair and per-node data and each affine piece's two
        # sector blocks, each a quarter of a whole matrix, never a whole
        # matrix; the eight pieces together outweigh one (1.28 MB against
        # 320 KB), the price of assembling tau1 != 0 fields without the
        # theta integrals
        basis = gram_schmidt_basis(0.5, n_even=4, n_odd=4, nu_range=(-12, 12))
        h = whole_stack(1.2, 0.9, basis)[-1]
        assert h.shape == (200, 200)
        terms = hamiltonian._BASIS_TERMS[basis]
        sizes = [i.size for i in sector_index(basis.sectors)]
        assert [p.shape for p in terms.pieces] == [(8, m * m) for m in sizes]
        assert max(sizes) < 200
        others = [a for a in _arrays(vars(terms)) if not any(a is p for p in terms.pieces)]
        assert others and all(a.size < h.size for a in others)
