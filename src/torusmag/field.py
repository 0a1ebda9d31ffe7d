"""Uniform magnetic field in the torus surface frame.

The field B = B1 x_hat + B0 z_hat is parameterized by the dimensionless
fluxes tau0 (axial) and tau1 (in-plane): tau = flux through a disc of the
major radius, in units of pi*hbar/e.  Internally the natural magnetic unit
is hbar/(e R^2), so B0 = tau0/R^2 and B1 = tau1/R^2 with hbar/e = 1; all
spectra depend on the taus only.

The normal component A_N of the Coulomb-gauge vector potential
A = (1/2) B x r is independent of the normal coordinate, so the curvature
coupling it generates reduces to a pure surface function proportional to
h * A_N; `hamiltonian` writes it in dimensionless form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2022 values in SI units (e and h are exact by definition)
E_CHARGE = 1.602176634e-19
HBAR = 6.62607015e-34 / (2 * math.pi)
M_E = 9.1093837139e-31


@dataclass(frozen=True)
class FieldConfig:
    """Dimensionless field strengths and potential toggles.

    tau0 is the axial flux parameter, tau1 the in-plane one; either sign is
    allowed.  vc_on / vmag_on switch the curvature potential and the
    magnetic curvature coupling on; the pair names a variant of
    `hamiltonian.VARIANTS`; at tau1 = 0 on-off and on-on are one operator.
    """

    tau0: float
    tau1: float
    vc_on: bool = True
    vmag_on: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau0) and math.isfinite(self.tau1)):
            raise ValueError("tau0 and tau1 must be finite")

    @property
    def hermitian(self) -> bool:
        """Whether the operator is Hermitian.

        Dropping the magnetic curvature coupling at tau1 != 0 leaves the
        anti-Hermitian residue of the in-plane paramagnetic couplings.
        """
        return self.vmag_on or self.tau1 == 0.0


def tau_from_tesla(b_tesla: float, major_radius_m: float) -> float:
    """Dimensionless flux tau = e R^2 B / hbar for a field in tesla.

    For R = 500 angstrom this gives tau ~ 3.80 per tesla.  Raises
    ValueError for a field that is not finite, and OverflowError where tau
    is not.
    """
    if not math.isfinite(b_tesla):
        raise ValueError(f"field must be finite, got {b_tesla} T")
    try:
        tau = E_CHARGE * major_radius_m**2 * b_tesla / HBAR
    except OverflowError:
        tau = math.inf
    if not math.isfinite(tau):
        raise OverflowError(f"field B = {b_tesla:g} T at R = {major_radius_m:g} m "
                            "is out of range: tau is not finite")
    return tau


def energy_scale_mev(minor_radius_m: float) -> float:
    """hbar^2 / (2 m_e a^2) in meV for the minor radius a in metres.

    Physical energies are E = -eps * scale for a dimensionless eigenvalue
    eps of the surface Hamiltonian.  Raises OverflowError where a**2
    overflows or the scale is not finite.
    """
    try:
        mev = HBAR**2 / (2.0 * M_E * minor_radius_m**2) / E_CHARGE * 1e3
    except (OverflowError, ZeroDivisionError):
        mev = math.inf
    if not math.isfinite(mev):
        raise OverflowError(f"minor radius a = {minor_radius_m:g} m is out of range: "
                            "the energy scale is not finite")
    return mev
