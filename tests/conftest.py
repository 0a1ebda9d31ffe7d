"""Shared fixtures: the reference aspect ratio and its orthonormal basis."""

import pytest

from torusmag import gram_schmidt_basis


@pytest.fixture(scope="session")
def alpha():
    return 0.5


@pytest.fixture(scope="session")
def basis(alpha):
    return gram_schmidt_basis(alpha, n_even=6, n_odd=6, nu_range=(-2, 2))
