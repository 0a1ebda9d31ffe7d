"""Readings of solver results that only the tests take."""

import numpy as np


def amplitude(comp, label) -> complex:
    """Amplitude of one basis label in a composition; 0 if it is absent."""
    for lab, amp in comp.terms:
        if lab == label:
            return amp
    return 0.0


def norm_sq(comp) -> float:
    return float(sum(abs(a) ** 2 for _, a in comp.terms))


def circulation(comp) -> float:
    """Expectation of -i d/dphi: sum of nu |amplitude|^2."""
    return float(sum(nu * abs(a) ** 2 for (_, _, nu), a in comp.terms))


def residuals(s, h: np.ndarray) -> np.ndarray:
    """||H v - eps v|| per eigenpair (eigenvectors are unit norm)."""
    hv = h @ s.eigenvectors
    return np.linalg.norm(hv - s.eigenvectors * s.eigenvalues[np.newaxis, :], axis=0)
