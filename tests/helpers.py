"""Readings of solver results that only the tests take."""

import numpy as np


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
