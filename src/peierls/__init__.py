"""Dimerized-chain energy landscapes, restricted phase-space dynamics,
and kink propagation for an exponential electron-phonon coupling with a
q-deformed mode algebra."""

from .algebra import (
    ModeEnergies,
    deformed_mode_matrix,
    lambda_discrepancy,
    mode_eigenvalues,
    mode_energies,
    paper_lambda,
    q_bracket,
    xi,
)
from .config import ConfigError, RunConfig, load_config, reference_config_path
from .dynamics import (
    PhaseState,
    Trajectory,
    canonical_flow,
    fixed_point_branches,
    integrate,
    ode_rhs,
    script_p,
    script_p_x,
)
from .kink import (
    KinkConfiguration,
    KinkTrajectory,
    bond_order,
    difference_operator,
    kink_matrix,
    kink_position,
    kink_spectrum,
    propagate_kink,
    sublattice_svd,
    zero_subspace,
)
from .landscape import (
    CriticalPoint,
    DomainError,
    EnergyBreakdown,
    domain_limit,
    electronic_density_continuum,
    electronic_density_modesum,
    find_critical_points,
    landscape_grid,
    phonon_energy_total,
    total_density,
    total_gradient,
)
from .model import (
    CoherentAmplitude,
    HoppingChain,
    ModelParams,
    effective_coupling,
    single_particle_matrix,
    spectrum,
    staggered_bonds,
    staggered_ring_bands,
    state_location,
)
from .special import de_dm, elliptic_e, elliptic_k, hyp_e, hyp_f

__version__ = "1.0.0"
