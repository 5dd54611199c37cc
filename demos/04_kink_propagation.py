"""Demo: mid-gap states and the relaxation of a displaced electronic wall.

Builds a domain-wall (kink) configuration on an open chain at the shipped
reference parameters, shows the mid-gap states the wall binds, and runs
the shipped propagation experiment: electrons prepared in the ground
state of a chain whose wall sits four sites away relax onto the fixed
lattice wall, carrying the bond-order wall across more than one site at
energy conserved to rounding.  z is frozen, so the lattice wall does not
move: this is a relaxation, not free soliton motion.
"""

import numpy as np

from peierls import (
    CoherentAmplitude,
    KinkConfiguration,
    kink_spectrum,
    load_config,
    propagate_kink,
    reference_config_path,
)


def main() -> None:
    cfg = load_config(reference_config_path("kink_dynamics"))
    params = cfg.model_params()
    z = CoherentAmplitude(cfg.z_re, cfg.z_im)

    kcfg = KinkConfiguration(n=cfg.kink_site, z=z, n_sites=cfg.n_sites)
    evals, lowest, in_gap = kink_spectrum(params, kcfg)
    print(f"open chain, N = {cfg.n_sites}, wall at site {cfg.kink_site}")
    print(f"lowest eigenvalue E(z, n) = {lowest:.10f}")
    print(f"mid-gap states: {int(in_gap.sum())} at {[f'{e:+.6f}' for e in evals[in_gap]]}")

    print(f"\npropagation: initial orbitals from the chain with its wall at "
          f"{cfg.kink_site + cfg.anchor_offset}, evolving under the chain with its wall at {cfg.kink_site}")
    traj = propagate_kink(
        params, z, cfg.kink_site, cfg.kink_dt, cfg.kink_steps,
        n_sites=cfg.n_sites, initial_anchor_offset=cfg.anchor_offset,
    )
    pos = np.array(traj.positions)
    en = np.array(traj.energies)
    stride = max(1, len(pos) // 10)
    print(f"{'t':>7} {'wall position':>14} {'energy':>20}")
    for i in range(0, len(pos), stride):
        print(f"{traj.times[i]:7.1f} {pos[i]:14.3f} {en[i]:20.15f}")
    print(f"\nmax wall advance: {np.max(np.abs(pos - pos[0])):.2f} sites")
    print(f"relative energy drift: {np.max(np.abs(en - en[0])) / abs(en[0]):.2e}")
    print(f"orthonormality error of the factors and the launch (any step count): {traj.orthonormality_error:.1e}")


if __name__ == "__main__":
    main()
