"""Demo: the dimerization double well.

Scans the ground-state energy density over the coherent-amplitude plane
at the shipped double-well reference parameters, locates its critical
points, and shows that switching the deformation off (q = 1) removes the
off-origin minima.  Writes a gnuplot-ready CSV next to this script.
"""

from pathlib import Path

from peierls import (
    ModelParams,
    energy_densities,
    find_critical_points,
    landscape_grid,
    load_config,
    reference_config_path,
    xi,
)


def main() -> None:
    cfg = load_config(reference_config_path("double_well"))
    params = cfg.model_params()
    print(f"parameters: t={params.t}, zeta={params.zeta}, kappa={params.kappa}, "
          f"q={params.q}, w={params.w}  (xi_q={xi(params.q, params.w):.4f})")

    print("\ncritical points at q = 1.5:")
    points = find_critical_points(params, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    for c in sorted(points, key=lambda c: c.location):
        e = float(energy_densities(params, *c.location)["e_total"])
        print(f"  {c.kind:8s} at ({c.location[0]:+.6f}, {c.location[1]:+.6f}), "
              f"energy {e:.12f}, Hessian eigs ({c.hessian_eigs[0]:+.3f}, {c.hessian_eigs[1]:+.3f})")

    q1 = ModelParams(t=params.t, zeta=params.zeta, kappa=params.kappa,
                     big_l=params.big_l, q=1.0, w=params.w)
    print("\ncritical points at q = 1 (same t, zeta, kappa, w):")
    for c in find_critical_points(q1, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step):
        print(f"  {c.kind:8s} at ({c.location[0]:+.6f}, {c.location[1]:+.6f})")
    print("  -> the double well exists only in the deformed regime")

    out = Path(__file__).with_name("landscape_grid.csv")
    grid = landscape_grid(params, (cfg.re_min, cfg.re_max), (cfg.im_min, cfg.im_max), cfg.resolution)
    with out.open("w") as fh:
        fh.write("re,im,e_total\n")
        for re, im, e in zip(grid["re"].tolist(), grid["im"].tolist(), grid["e_total"].tolist()):
            fh.write(f"{re},{im},{e}\n")
    print(f"\nwrote {cfg.resolution}x{cfg.resolution} grid to {out.name} "
          f"(plot with: gnuplot> set dgrid3d; splot '{out.name}' u 1:2:3 w pm3d)")


if __name__ == "__main__":
    main()
