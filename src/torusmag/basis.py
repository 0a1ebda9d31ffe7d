"""Orthonormal poloidal basis under the weighted measure F(theta) dtheta.

The basis functions are real trigonometric polynomials of definite parity,
orthonormalized by a modified Gram-Schmidt procedure over the torus surface
measure dJ = F(theta) dtheta dphi, starting from the primitives
{1, cos(theta), ..., cos((n_even-1) theta)} and {sin(theta), ..., sin(n_odd theta)}.
Each basis state carries an additional azimuthal factor exp(i nu phi)/sqrt(2 pi),
so the states are the product of `functions` and `nus`, numbered
function-major: state i * len(nus) + j is function i times nu index j.

With F = 1 + alpha cos(theta) the weighted Gram matrix of the primitives is
exact and tridiagonal, so Gram-Schmidt runs on coefficient vectors alone.
That matrix is positive definite for every alpha in (0, 1), since F > 0 and
the primitives are linearly independent, so no primitive can be lost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: labels: ('f', n, nu) for even functions, ('g', n, nu) for odd ones.
Label = tuple[str, int, int]


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Orthonormal poloidal functions plus an azimuthal index range.

    Row n of `even` holds the cos(k theta) coefficients of f_n; row n of
    `odd` holds the sin((k+1) theta) coefficients of g_{n+1}.  The full
    basis states are f_n(theta) e^{i nu phi}/sqrt(2 pi) and
    g_n(theta) e^{i nu phi}/sqrt(2 pi) for nu in the inclusive nu_range.
    """

    even: np.ndarray
    odd: np.ndarray
    nu_range: tuple[int, int]
    alpha: float

    @property
    def nus(self) -> list[int]:
        return list(range(self.nu_range[0], self.nu_range[1] + 1))

    def values(self, theta: np.ndarray, order: int) -> np.ndarray:
        """order-th theta-derivative of every function at theta, even block first."""
        theta = np.asarray(theta, dtype=float)
        blocks = []
        # d^j cos = (-1)^ceil(j/2) {cos, sin}; d^j sin = (-1)^floor(j/2) {sin, cos}
        for coeffs, shift, trig in (
            (self.even, 0, (np.cos, np.sin)),
            (self.odd, 1, (np.sin, np.cos)),
        ):
            sign = (-1.0) ** ((order + 1 - shift) // 2)
            base = trig[order % 2]
            out = np.zeros((len(coeffs), len(theta)))
            for k in range(coeffs.shape[1]):
                m = k + shift
                out = out + coeffs[:, k, None] * sign * m**order * base(m * theta)
            blocks.append(out)
        return np.concatenate(blocks)

    @property
    def functions(self) -> list[tuple[str, int]]:
        """Theta-function names in table order: ('f', n)..., then ('g', n+1)..."""
        even, odd = len(self.even), len(self.odd)
        return [("f", n) for n in range(even)] + [("g", n) for n in range(1, odd + 1)]

    def labels(self) -> list[Label]:
        """Row labels in assembly order: each function with every nu in turn."""
        return [(kind, n, nu) for kind, n in self.functions for nu in self.nus]

    @cached_property
    def sectors(self) -> np.ndarray:
        """Inversion sector of each state in `labels()` order, read-only.

        The inversion (theta, phi) -> (-theta, phi + pi) multiplies
        f_n e^{i nu phi} by (-1)^nu and g_n e^{i nu phi} by -(-1)^nu, so the
        label (nu + [g]) mod 2 is 0 (sector A) where a state is even and 1
        (sector B) where it is odd.
        """
        odd = np.repeat([0, 1], [len(self.even), len(self.odd)])
        sectors = np.add.outer(odd, self.nus).ravel() % 2
        sectors.flags.writeable = False
        return sectors

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "nu_range": list(self.nu_range),
                "even": self.even.tolist(),
                "odd": self.odd.tolist(),
            },
            indent=2,
        )


def sector_index(labels: np.ndarray) -> list[np.ndarray]:
    """The positions of each distinct label, in ascending label order."""
    # not np.unique: it imports numpy.ma, about 1.4 MB of peak RSS per process
    return [np.flatnonzero(labels == s) for s in sorted(set(labels.tolist()))]


def _primitive_gram(alpha: float, odd: bool, count: int) -> np.ndarray:
    """Exact integrals of p_i p_j F over one period for the first count primitives."""
    gram = np.pi * np.eye(count)
    for k in range(count - 1):
        gram[k, k + 1] = gram[k + 1, k] = np.pi * alpha / 2
    if not odd:
        gram[0, 0] = 2 * np.pi
        if count > 1:
            gram[0, 1] = gram[1, 0] = np.pi * alpha
    return gram


def _gram_schmidt_block(alpha: float, odd: bool, count: int) -> np.ndarray:
    gram = _primitive_gram(alpha, odd, count)
    funcs: list[np.ndarray] = []
    rows: list[np.ndarray] = []  # u @ gram of each accepted function u
    for i in range(count):
        v = np.eye(1, count, i)[0]
        for _ in range(2):  # one re-orthogonalization pass
            for u, row in zip(funcs, rows):
                v = v - float(row @ v) * u
        # v[i] is still 1.0, since each earlier function is zero past its own
        # index, so the leading coefficient comes out positive
        v = v / np.sqrt(float(v @ gram @ v))
        funcs.append(v)
        rows.append(v @ gram)
    return np.array(funcs).reshape(count, count)


def gram_schmidt_basis(
    alpha: float,
    n_even: int = 6,
    n_odd: int = 6,
    nu_range: tuple[int, int] = (-2, 2),
) -> BasisSet:
    """Build the orthonormal basis for the torus of aspect ratio alpha = a/R.

    Defaults reproduce the 60-state configuration: six functions per
    parity and five azimuthal indices.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n_even < 1 or n_odd < 0:
        raise ValueError("need n_even >= 1 and n_odd >= 0")
    if nu_range[0] > nu_range[1]:
        raise ValueError(f"empty nu_range {nu_range}")
    return BasisSet(
        even=_gram_schmidt_block(alpha, False, n_even),
        odd=_gram_schmidt_block(alpha, True, n_odd),
        nu_range=tuple(nu_range),
        alpha=alpha,
    )
