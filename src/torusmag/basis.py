"""Orthonormal poloidal basis under the weighted measure F(theta) dtheta.

The basis functions are real trigonometric polynomials of definite parity,
orthonormalized by a modified Gram-Schmidt procedure over the torus surface
measure dJ = F(theta) dtheta dphi, starting from the primitives
{1, cos(theta), ..., cos((n_even-1) theta)} and {sin(theta), ..., sin(n_odd theta)}.
Each basis state carries an additional azimuthal factor exp(i nu phi)/sqrt(2 pi).

Inner products of trigonometric polynomials against the weight F are exact:
products are expanded by convolving complex Fourier coefficient arrays, and
only the constant harmonic survives integration over a full period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import TorusGeometry

#: labels: ('f', n, nu) for even functions, ('g', n, nu) for odd ones.
Label = tuple[str, int, int]


class DegeneracyError(RuntimeError):
    """Orthogonalization lost too much precision at some primitive index."""


@dataclass(frozen=True)
class ThetaFunction:
    """Real trig polynomial of definite parity.

    For parity 'even', coeffs[k] multiplies cos(k*theta); for parity 'odd',
    coeffs[k] multiplies sin((k+1)*theta).
    """

    parity: str
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        if self.parity == "even":
            for k, c in enumerate(self.coeffs):
                out = out + c * np.cos(k * theta)
        else:
            for k, c in enumerate(self.coeffs):
                out = out + c * np.sin((k + 1) * theta)
        return out

    def derivative(self, theta, order: int = 1):
        """Analytic derivative of the given order, evaluated at theta."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for k, c in enumerate(self.coeffs):
            m = k if self.parity == "even" else k + 1
            if self.parity == "even":
                base = np.cos if order % 2 == 0 else np.sin
                sign = (-1.0) ** ((order + 1) // 2)
            else:
                base = np.sin if order % 2 == 0 else np.cos
                sign = (-1.0) ** (order // 2)
            out = out + c * sign * m**order * base(m * theta)
        return out

    def fourier(self) -> np.ndarray:
        """Centered complex Fourier coefficients c[m], m = -M..M."""
        if self.parity == "even":
            m = len(self.coeffs) - 1
            c = np.zeros(2 * m + 1, dtype=complex)
            c[m] = self.coeffs[0]
            for k in range(1, m + 1):
                c[m + k] = c[m - k] = 0.5 * self.coeffs[k]
        else:
            m = len(self.coeffs)
            c = np.zeros(2 * m + 1, dtype=complex)
            for k in range(1, m + 1):
                c[m + k] = self.coeffs[k - 1] / 2j
                c[m - k] = -self.coeffs[k - 1] / 2j
        return c


def _dc_after_product(*specs: np.ndarray) -> complex:
    out = specs[0]
    for s in specs[1:]:
        out = np.convolve(out, s)
    return out[len(out) // 2]


def weighted_inner_product(
    geom: TorusGeometry, f: ThetaFunction, g: ThetaFunction
) -> float:
    """Exact integral of f * g * F over one period of theta."""
    weight = np.array([0.5 * geom.alpha, 1.0, 0.5 * geom.alpha], dtype=complex)
    return float(
        (2.0 * np.pi * _dc_after_product(f.fourier(), g.fourier(), weight)).real
    )


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal poloidal functions plus an azimuthal index range.

    The full basis states are f_n(theta) e^{i nu phi}/sqrt(2 pi) and
    g_n(theta) e^{i nu phi}/sqrt(2 pi) for nu in the inclusive nu_range.
    """

    even_funcs: list[ThetaFunction]
    odd_funcs: list[ThetaFunction]
    nu_range: tuple[int, int]
    alpha: float

    @property
    def nus(self) -> list[int]:
        return list(range(self.nu_range[0], self.nu_range[1] + 1))

    @property
    def size(self) -> int:
        return (len(self.even_funcs) + len(self.odd_funcs)) * len(self.nus)

    def labels(self) -> list[Label]:
        """Row labels in assembly order: even block then odd block."""
        out: list[Label] = []
        for n in range(len(self.even_funcs)):
            for nu in self.nus:
                out.append(("f", n, nu))
        for n in range(len(self.odd_funcs)):
            for nu in self.nus:
                out.append(("g", n + 1, nu))
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "nu_range": list(self.nu_range),
                "even": [list(f.coeffs) for f in self.even_funcs],
                "odd": [list(g.coeffs) for g in self.odd_funcs],
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "BasisSet":
        data = json.loads(text)
        return BasisSet(
            even_funcs=[ThetaFunction("even", np.array(c)) for c in data["even"]],
            odd_funcs=[ThetaFunction("odd", np.array(c)) for c in data["odd"]],
            nu_range=tuple(data["nu_range"]),
            alpha=data["alpha"],
        )


def _gram_schmidt_block(
    geom: TorusGeometry, parity: str, count: int, tol: float
) -> list[ThetaFunction]:
    prims = [
        ThetaFunction(parity, np.eye(count)[i]) for i in range(count)
    ]
    gram = np.array(
        [[weighted_inner_product(geom, p, q) for q in prims] for p in prims]
    )

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
            raise DegeneracyError(f"{parity} primitive {i} numerically degenerate")
        v = v / np.sqrt(nrm2)
        if v[i] < 0:  # leading coefficient made positive
            v = -v
        funcs.append(v)
    for i, u in enumerate(funcs):
        for j, v in enumerate(funcs):
            expect = 1.0 if i == j else 0.0
            if abs(dot(u, v) - expect) > tol:
                raise DegeneracyError(
                    f"orthogonality loss at {parity} pair ({i}, {j})"
                )
    return [ThetaFunction(parity, v) for v in funcs]


def gram_schmidt_basis(
    geom: TorusGeometry,
    n_even: int = 6,
    n_odd: int = 6,
    nu_range: tuple[int, int] = (-2, 2),
    tol: float = 1e-10,
) -> BasisSet:
    """Build the orthonormal basis for the given torus geometry.

    Defaults reproduce the 60-state configuration: six functions per
    parity and five azimuthal indices.
    """
    if n_even < 1 or n_odd < 0:
        raise ValueError("need n_even >= 1 and n_odd >= 0")
    if nu_range[0] > nu_range[1]:
        raise ValueError(f"empty nu_range {nu_range}")
    even = _gram_schmidt_block(geom, "even", n_even, tol)
    odd = _gram_schmidt_block(geom, "odd", n_odd, tol) if n_odd else []
    return BasisSet(even_funcs=even, odd_funcs=odd, nu_range=tuple(nu_range),
                    alpha=geom.alpha)
