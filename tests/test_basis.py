"""Weighted Gram-Schmidt basis construction and inner products."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import reference_gram_schmidt_block
from torusmag.basis import (
    BasisSet, _gram_schmidt_block, _primitive_gram, gram_schmidt_basis,
)

#: The largest aspect ratio below 1, where the Gram matrix is least well
#: conditioned.
ALPHA_TOP = float(np.nextafter(1.0, 0.0))


def quadrature_inner_product(alpha: float, f, g, n: int = 256) -> np.ndarray:
    """Periodic-trapezoid integral of f * g * F over one period of theta.

    f and g map theta samples to an array whose last axis is theta; a
    stack of functions gives the matrix of all pairwise products.
    """
    theta = np.arange(n) * 2.0 * np.pi / n
    w = 1.0 + alpha * np.cos(theta)
    return (f(theta) * w) @ g(theta).T * 2.0 * np.pi / n


def primitives(alpha: float, count: int) -> BasisSet:
    """The unorthogonalized primitives cos(k theta) and sin((k+1) theta)."""
    return BasisSet(np.eye(count), np.eye(count), (0, 0), alpha)


def basis_gram(basis: BasisSet, n: int = 256) -> np.ndarray:
    def vals(theta):
        return basis.values(theta, 0)

    return quadrature_inner_product(basis.alpha, vals, vals, n)


class TestThetaFunction:
    def test_even_evaluation(self):
        f = BasisSet(np.array([[1.0, 2.0]]), np.zeros((0, 0)), (0, 0), 0.5)
        theta = np.array([0.0, math.pi / 2.0, math.pi])
        assert np.allclose(f.values(theta, 0)[0], [3.0, 1.0, -1.0])

    def test_odd_evaluation(self):
        # sin(theta) + 0.5 sin(2 theta) as the first odd row
        g = BasisSet(np.eye(1), np.array([[1.0, 0.5]]), (0, 0), 0.5)
        vals = g.values(np.array([math.pi / 2.0, math.pi / 4.0]), 0)[1]
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(math.sin(math.pi / 4.0) + 0.5)

    def test_derivatives_match_finite_differences(self):
        fg = BasisSet(
            np.array([[0.3, -1.1, 0.7]]), np.array([[0.9, 0.2, -0.4]]), (0, 0), 0.5
        )
        eps = 1e-6
        theta = np.array([0.3, 1.8, 4.2])
        lo, mid, hi = (fg.values(theta + d, 0) for d in (-eps, 0.0, eps))
        fd1 = (hi - lo) / (2.0 * eps)
        fd2 = (hi - 2.0 * mid + lo) / eps**2
        assert np.max(np.abs(fg.values(theta, 1) - fd1)) < 1e-7
        assert np.max(np.abs(fg.values(theta, 2) - fd2)) < 1e-3


class TestInversionSectors:
    @pytest.mark.parametrize(
        "n_even,n_odd,nu_range",
        [(6, 6, (-2, 2)), (3, 4, (-1, 3)), (1, 0, (-3, 3))],
        ids=["default", "skew-nu", "nu-only"],
    )
    def test_labels_are_inversion_parities(self, n_even, n_odd, nu_range):
        # every state evaluated at (theta, phi) and at its image under the
        # inversion (-theta, phi + pi): their ratio is the state's parity
        basis = gram_schmidt_basis(0.6, n_even, n_odd, nu_range)
        theta = np.array([0.4, 1.1, 2.9, 4.0, 5.3])
        phi = np.array([0.3, 2.2, 3.7, 5.5, 1.6])

        def states(th, ph):
            waves = np.exp(1j * np.outer(basis.nus, ph))
            return (basis.values(th, 0)[:, None, :] * waves[None]).reshape(-1, len(th))

        here = states(theta, phi)
        assert np.min(np.abs(here)) > 1e-3
        ratio = states(-theta, phi + np.pi) / here
        parity = np.where(basis.sectors == 0, 1.0, -1.0)
        assert basis.sectors.shape == (len(basis.labels()),)
        assert np.max(np.abs(ratio - parity[:, None])) < 1e-12
        assert not basis.sectors.flags.writeable


class TestInnerProduct:
    def test_cos_against_one(self):
        # 1 and cos(theta) against F = 1 + alpha cos(theta): pi alpha
        assert _primitive_gram(0.5, False, 2)[0, 1] == pytest.approx(
            math.pi / 2.0, rel=1e-14
        )

    def test_symmetry(self):
        for odd in (False, True):
            gram = _primitive_gram(0.37, odd, 5)
            assert np.array_equal(gram, gram.T)

    def test_parity_orthogonality(self, alpha):
        fg = BasisSet(
            np.array([[0.5, 1.0, 0.25]]), np.array([[1.0, -0.6]]), (0, 0), alpha
        )
        assert basis_gram(fg)[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_exact_form_matches_quadrature(self, alpha):
        fg = np.array([[0.1, 0.9, -0.2, 0.4], [0.7, 0.3, 0.5, 0.0]])
        exact = fg[0] @ _primitive_gram(alpha, False, 4) @ fg[1]
        quad = basis_gram(BasisSet(fg, np.zeros((0, 0)), (0, 0), alpha))
        assert exact == pytest.approx(quad[0, 1], rel=1e-12)

    def test_odd_pair_quadrature_agreement(self, alpha):
        fg = np.array([[0.8, -0.1, 0.3], [0.2, 0.6, 0.0]])
        exact = fg[0] @ _primitive_gram(alpha, True, 3) @ fg[1]
        quad = basis_gram(BasisSet(np.zeros((0, 0)), fg, (0, 0), alpha))
        assert exact == pytest.approx(quad[0, 1], rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9])
    def test_closed_form_equals_quadrature_gram(self, alpha):
        count = 7
        quad = basis_gram(primitives(alpha, count))
        exact = np.zeros((2 * count, 2 * count))
        exact[:count, :count] = _primitive_gram(alpha, False, count)
        exact[count:, count:] = _primitive_gram(alpha, True, count)
        assert np.max(np.abs(quad - exact)) < 1e-12


class TestGramSchmidtBasis:
    def test_first_functions_closed_forms(self, basis):
        f0 = basis.even[0]
        assert f0[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-10)
        assert np.max(np.abs(f0[1:])) < 1e-14

        f1 = basis.even[1]
        scale = 1.0 / math.sqrt(0.875 * math.pi)
        assert f1[1] == pytest.approx(scale, abs=1e-10)
        assert f1[0] == pytest.approx(-0.25 * scale, abs=1e-10)

        g1 = basis.odd[0]
        assert g1[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)

    def test_orthonormal_under_weight(self, basis):
        gram = basis_gram(basis)
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-10

    def test_cross_parity_products_vanish(self, basis):
        worst = np.max(np.abs(basis_gram(basis)[:6, 6:]))
        assert worst < 1e-12

    def test_leading_coefficients_positive(self, basis):
        assert np.all(np.diag(basis.even) > 0)
        assert np.all(np.diag(basis.odd) > 0)

    def test_size_and_labels(self, basis):
        labels = basis.labels()
        assert basis.even.shape == basis.odd.shape == (6, 6)
        assert len(labels) == 60
        assert labels[0] == ("f", 0, -2)
        assert ("g", 6, 2) in labels

    def test_small_alpha_limit(self):
        basis = gram_schmidt_basis(0.001, n_even=3, n_odd=3, nu_range=(0, 0))
        inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
        assert basis.even[0, 0] == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-3
        )
        assert basis.even[1, 1] == pytest.approx(inv_sqrt_pi, abs=1e-3)
        assert basis.odd[1, 1] == pytest.approx(inv_sqrt_pi, abs=1e-3)

    def test_reproducible_bitwise(self, alpha, basis):
        again = gram_schmidt_basis(alpha, n_even=6, n_odd=6, nu_range=(-2, 2))
        assert np.array_equal(basis.even, again.even)
        assert np.array_equal(basis.odd, again.odd)

    def test_equality_is_identity(self, alpha, basis):
        # the coefficient arrays make field-wise == ambiguous
        assert (basis == gram_schmidt_basis(alpha)) is False
        assert basis == basis

    def test_json_round_trip(self, basis):
        data = json.loads(basis.to_json())
        assert tuple(data["nu_range"]) == basis.nu_range
        assert data["alpha"] == basis.alpha
        assert np.array_equal(np.array(data["even"]), basis.even)
        assert np.array_equal(np.array(data["odd"]), basis.odd)

    def test_rejects_bad_arguments(self, alpha):
        with pytest.raises(ValueError):
            gram_schmidt_basis(alpha, n_even=0, n_odd=2)
        with pytest.raises(ValueError):
            gram_schmidt_basis(alpha, nu_range=(2, -2))

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.05, max_value=0.9), st.just((4, 4)))
    # harmonics up to 255 on 1024 nodes: the products and F are integrated exactly
    @example(ALPHA_TOP, (256, 255))
    def test_orthonormality_across_aspect_ratios(self, alpha, counts):
        basis = gram_schmidt_basis(alpha, *counts, nu_range=(0, 0))
        gram = basis_gram(basis, 1024)
        assert np.max(np.abs(gram - np.eye(sum(counts)))) < 1e-10

    @pytest.mark.parametrize("count", [1, 2, 6, 24, 256])
    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, ALPHA_TOP])
    def test_bitwise_equal_to_checked_reference(self, alpha, odd, count):
        # each projection is (u @ gram) @ v with u @ gram computed once
        assert np.array_equal(
            _gram_schmidt_block(alpha, odd, count),
            reference_gram_schmidt_block(alpha, odd, count),
        )
