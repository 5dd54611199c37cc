"""Dimerized-chain energy landscapes, restricted phase-space dynamics,
and kink propagation for an exponential electron-phonon coupling with a
q-deformed mode algebra."""

from .algebra import ModeEnergies, mode_eigenvalues, mode_energies, xi
from .config import ConfigError, RunConfig, load_config, reference_config_path
from .dynamics import PhaseState, Trajectory, drive_kernel, integrate
from .kink import (
    KinkConfiguration,
    KinkTrajectory,
    kink_position,
    kink_spectrum,
    propagate_kink,
    sublattice_svd,
)
from .landscape import (
    CriticalPoint,
    DomainError,
    electronic_density_modesum,
    energy_densities,
    find_critical_points,
    landscape_grid,
    phonon_density,
)
from .model import (
    CoherentAmplitude,
    ModelParams,
    effective_coupling,
    ring_spectrum,
    staggered_bonds,
    state_location,
)

__version__ = "1.0.0"
