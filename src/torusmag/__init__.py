"""Single-electron states on a torus surface in a uniform magnetic field.

Computes spectra and wave functions of the dimensionless surface
Hamiltonian obtained by thin-layer reduction, including the curvature
geometric potential and the magnetic geometric potential from the
surface-normal vector-potential component, for fields of arbitrary
orientation.
"""

from .basis import BasisSet, gram_schmidt_basis
from .field import FieldConfig, energy_scale_mev, tau_from_tesla
from .hamiltonian import assemble
from .oracle import GridSpec, grid_solve
from .solver import (
    GroundState,
    StateComposition,
    eigensolve,
    eigensolve_general,
    ground_state_composition,
)

__all__ = [
    "BasisSet",
    "gram_schmidt_basis",
    "FieldConfig",
    "energy_scale_mev",
    "tau_from_tesla",
    "assemble",
    "GridSpec",
    "grid_solve",
    "GroundState",
    "StateComposition",
    "eigensolve",
    "eigensolve_general",
    "ground_state_composition",
]

__version__ = "0.1.0"
