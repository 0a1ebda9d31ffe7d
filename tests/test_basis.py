"""Weighted Gram-Schmidt basis construction and inner products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusmag.basis import (
    BasisSet,
    ThetaFunction,
    gram_schmidt_basis,
    weighted_inner_product,
)
from torusmag.geometry import TorusGeometry


def quadrature_inner_product(
    geom: TorusGeometry, f: ThetaFunction, g: ThetaFunction, n: int = 256
) -> float:
    """Periodic-trapezoid cross-check of `weighted_inner_product`."""
    theta = np.arange(n) * 2.0 * np.pi / n
    w = 1.0 + geom.alpha * np.cos(theta)
    return float(np.sum(f(theta) * g(theta) * w) * 2.0 * np.pi / n)


class TestThetaFunction:
    def test_even_evaluation(self):
        f = ThetaFunction("even", [1.0, 2.0])
        theta = np.array([0.0, math.pi / 2.0, math.pi])
        assert np.allclose(f(theta), [3.0, 1.0, -1.0])

    def test_odd_evaluation(self):
        g = ThetaFunction("odd", [1.0, 0.5])  # sin(theta) + 0.5 sin(2 theta)
        assert g(math.pi / 2.0) == pytest.approx(1.0)
        assert g(math.pi / 4.0) == pytest.approx(math.sin(math.pi / 4.0) + 0.5)

    def test_derivatives_match_finite_differences(self):
        f = ThetaFunction("even", [0.3, -1.1, 0.7])
        g = ThetaFunction("odd", [0.9, 0.2, -0.4])
        eps = 1e-6
        for fn in (f, g):
            for theta in (0.3, 1.8, 4.2):
                fd1 = (fn(theta + eps) - fn(theta - eps)) / (2.0 * eps)
                fd2 = (fn(theta + eps) - 2.0 * fn(theta) + fn(theta - eps)) / eps**2
                assert fn.derivative(theta, 1) == pytest.approx(fd1, abs=1e-7)
                assert fn.derivative(theta, 2) == pytest.approx(fd2, abs=1e-3)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            ThetaFunction("mixed", [1.0])


class TestInnerProduct:
    def test_cos_against_one(self, geom):
        one = ThetaFunction("even", [1.0])
        cos = ThetaFunction("even", [0.0, 1.0])
        assert weighted_inner_product(geom, cos, one) == pytest.approx(
            math.pi / 2.0, rel=1e-14
        )

    def test_symmetry(self, geom):
        f = ThetaFunction("even", [0.2, 0.7, -0.3])
        g = ThetaFunction("even", [1.0, -0.4])
        assert weighted_inner_product(geom, f, g) == weighted_inner_product(
            geom, g, f
        )

    def test_parity_orthogonality(self, geom):
        f = ThetaFunction("even", [0.5, 1.0, 0.25])
        g = ThetaFunction("odd", [1.0, -0.6])
        assert weighted_inner_product(geom, f, g) == pytest.approx(0.0, abs=1e-15)

    def test_exact_form_matches_quadrature(self, geom):
        f = ThetaFunction("even", [0.1, 0.9, -0.2, 0.4])
        g = ThetaFunction("even", [0.7, 0.3, 0.5])
        exact = weighted_inner_product(geom, f, g)
        quad = quadrature_inner_product(geom, f, g)
        assert exact == pytest.approx(quad, rel=1e-12)

    def test_odd_pair_quadrature_agreement(self, geom):
        f = ThetaFunction("odd", [0.8, -0.1, 0.3])
        g = ThetaFunction("odd", [0.2, 0.6])
        assert weighted_inner_product(geom, f, g) == pytest.approx(
            quadrature_inner_product(geom, f, g), rel=1e-12
        )


class TestGramSchmidtBasis:
    def test_first_functions_closed_forms(self, basis):
        f0 = basis.even_funcs[0].coeffs
        assert f0[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-10)
        assert np.max(np.abs(f0[1:])) < 1e-14

        f1 = basis.even_funcs[1].coeffs
        scale = 1.0 / math.sqrt(0.875 * math.pi)
        assert f1[1] == pytest.approx(scale, abs=1e-10)
        assert f1[0] == pytest.approx(-0.25 * scale, abs=1e-10)

        g1 = basis.odd_funcs[0].coeffs
        assert g1[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)

    def test_orthonormal_under_weight(self, geom, basis):
        funcs = list(basis.even_funcs) + list(basis.odd_funcs)
        gram = np.array(
            [[weighted_inner_product(geom, u, v) for v in funcs] for u in funcs]
        )
        assert np.max(np.abs(gram - np.eye(len(funcs)))) < 1e-10

    def test_cross_parity_products_vanish(self, geom, basis):
        worst = max(
            abs(weighted_inner_product(geom, f, g))
            for f in basis.even_funcs
            for g in basis.odd_funcs
        )
        assert worst < 1e-12

    def test_leading_coefficients_positive(self, basis):
        for i, f in enumerate(basis.even_funcs):
            assert f.coeffs[i] > 0
        for i, g in enumerate(basis.odd_funcs):
            assert g.coeffs[i] > 0

    def test_size_and_labels(self, basis):
        assert basis.size == 60
        labels = basis.labels()
        assert len(labels) == 60
        assert labels[0] == ("f", 0, -2)
        assert ("g", 6, 2) in labels

    def test_small_alpha_limit(self):
        geom = TorusGeometry(1000.0, 1.0)
        basis = gram_schmidt_basis(geom, n_even=3, n_odd=3, nu_range=(0, 0))
        inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
        assert basis.even_funcs[0].coeffs[0] == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-3
        )
        assert basis.even_funcs[1].coeffs[1] == pytest.approx(inv_sqrt_pi, abs=1e-3)
        assert basis.odd_funcs[1].coeffs[1] == pytest.approx(inv_sqrt_pi, abs=1e-3)

    def test_reproducible_bitwise(self, geom, basis):
        again = gram_schmidt_basis(geom, n_even=6, n_odd=6, nu_range=(-2, 2))
        for a, b in zip(
            basis.even_funcs + basis.odd_funcs, again.even_funcs + again.odd_funcs
        ):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_json_round_trip(self, basis):
        restored = BasisSet.from_json(basis.to_json())
        assert restored.nu_range == basis.nu_range
        assert restored.alpha == basis.alpha
        for a, b in zip(basis.even_funcs, restored.even_funcs):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_rejects_bad_arguments(self, geom):
        with pytest.raises(ValueError):
            gram_schmidt_basis(geom, n_even=0, n_odd=2)
        with pytest.raises(ValueError):
            gram_schmidt_basis(geom, nu_range=(2, -2))

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_orthonormality_across_aspect_ratios(self, alpha):
        geom = TorusGeometry(100.0, 100.0 * alpha)
        basis = gram_schmidt_basis(geom, n_even=4, n_odd=4, nu_range=(0, 0))
        funcs = list(basis.even_funcs) + list(basis.odd_funcs)
        gram = np.array(
            [[weighted_inner_product(geom, u, v) for v in funcs] for u in funcs]
        )
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10
