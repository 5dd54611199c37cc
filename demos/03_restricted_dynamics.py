"""Demo: damped settling of the staggering coordinate.

Integrates the restricted phase-plane oscillator from a small
perturbation of the undimerized state at the shipped dynamics reference
parameters.  The intrinsic non-linear damping steers the trajectory onto
the attractor where the drive kernel has unit slope - the dynamical
counterpart of the landscape's off-origin minimum.
"""

from peierls import PhaseState, drive_kernel, integrate, load_config, reference_config_path


def main() -> None:
    cfg = load_config(reference_config_path("kink_dynamics"))
    params = cfg.model_params()
    print(f"parameters: t={params.t}, zeta={params.zeta}, kappa={params.kappa}, "
          f"q={params.q}, w={params.w}")

    traj = integrate(params, PhaseState(cfg.x0, cfg.v0), cfg.dt, cfg.steps, settle_tol=cfg.settle_tol)
    print(f"\nfrom (x, v) = ({cfg.x0}, {cfg.v0}), dt = {cfg.dt}:")
    stride = max(1, len(traj.states) // 12)
    print(f"{'t':>8} {'x':>12} {'v':>12}")
    for s in traj.states[::stride]:
        print(f"{s.t:8.2f} {s.x:12.8f} {s.v:12.4e}")
    final = traj.final
    print(f"{final.t:8.2f} {final.x:12.8f} {final.v:12.4e}  <- {traj.termination}")

    pval, px = drive_kernel(params)(final.x, final.x)
    on_kernel, unit_slope = abs(final.x - pval) < 1e-6, abs(px - 1.0) < 1e-6
    print(f"\nfixed-point branch at x = {final.x:.8f}: "
          f"x = P(x,x): {on_kernel}, P_x(x,x) = 1: {unit_slope}")
    print(f"kernel value P(x,x) = {pval:.8f} (> x: drive still pulls outward,")
    print("balanced by the unit-slope damping branch - a genuinely non-linear attractor)")


if __name__ == "__main__":
    main()
