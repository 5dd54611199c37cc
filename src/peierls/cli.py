"""Command-line front end and dataset emission.

Subcommands: landscape, critical-points, spectrum, dynamics,
kink-spectrum, kink-propagate, validate.  Every run writes a CSV dataset
plus a metadata JSON embedding the effective config and a schema version,
so any artifact can be re-run from its metadata alone.  Identical configs
produce byte-identical CSV.  Datasets are written column by column: each
distinct float of a column is formatted once (shortest round-trip repr).
``--workers`` is accepted (and must be >= 1) but has no effect: landscape
grids are evaluated as arrays in one process.

Exit codes: 0 ok, 1 validation failure, 2 config/domain error or any
other out-of-range input (a ValueError), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .algebra import mode_energies
from .config import ConfigError, RunConfig, _coerce, load_config, reference_config_path
from .dynamics import PhaseState, integrate
from .kink import KinkConfiguration, kink_spectrum, propagate_kink
from .landscape import _energy_densities, find_critical_points, landscape_grid
from .model import CoherentAmplitude, ring_spectrum, staggered_bonds

__all__ = ["main"]

SCHEMA_VERSION = "v1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[Any]) -> None:
    """Write equal-length columns as CSV rows.  A float64 column gets one
    shortest round-trip repr per distinct bit pattern (-0.0 and 0.0 stay
    apart), gathered back by index; any other column is written with str."""
    texts: list[Iterable[str]] = []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype == np.float64:
            bits, inverse = np.unique(arr.view(np.int64), return_inverse=True)
            distinct = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            texts.append(distinct[inverse])
        else:
            texts.append(map(str, arr.tolist()))
    lines = [",".join(header), *map(",".join, zip(*texts))]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _write_metadata(path: Path, command: str, config: RunConfig, extra: dict[str, Any]) -> None:
    payload = {
        "schema": f"peierls/{command}/{SCHEMA_VERSION}",
        "config": config.as_dict(),
        **extra,
    }
    path.write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii"))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_landscape(config: RunConfig, args: argparse.Namespace) -> int:
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing cells get the status "non-finite"
        grid = landscape_grid(
            config.model_params(),
            (config.re_min, config.re_max),
            (config.im_min, config.im_max),
            config.resolution,
        )
    names = ["re", "im", "e_phonon", "e_electronic", "e_total"]
    in_domain = grid["in_domain"]
    out = _out_dir(args)
    labels = np.array(["ok", "domain", "non-finite"], dtype=object)  # shared strings, not a fixed width per cell
    status = labels[np.where(np.isfinite(grid["e_total"]), 0, 1 + in_domain)]
    _write_csv(out / "landscape.csv", [*names, "status"], [*(grid[name] for name in names), status])
    _write_metadata(
        out / "landscape.json",
        "landscape",
        config,
        {"cells": in_domain.size, "domain_cells": int(np.count_nonzero(~in_domain))},
    )
    return EXIT_OK


def cmd_critical_points(config: RunConfig, args: argparse.Namespace) -> int:
    points = find_critical_points(
        config.model_params(),
        config.seeds(),
        tol=config.newton_tol,
        max_step=config.max_step,
    )
    counts = {kind: sum(p.kind == kind for p in points) for kind in ("minimum", "saddle", "maximum", "marginal")}
    out = _out_dir(args)
    _write_csv(
        out / "critical_points.csv",
        ["kind", "re", "im", "gradient_norm", "hessian_eig_low", "hessian_eig_high"],
        [[p.kind for p in points], *([p.location[i] for p in points] for i in (0, 1)),
         [p.gradient_norm for p in points], *([p.hessian_eigs[i] for p in points] for i in (0, 1))],
    )
    _write_metadata(
        out / "critical_points.json",
        "critical-points",
        config,
        {"counts": counts, "seeds": points.seeds},
    )
    return EXIT_OK


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    params = config.model_params()
    z = CoherentAmplitude(config.z_re, config.z_im)
    real_space = ring_spectrum(staggered_bonds(params, z))
    m = mode_energies(params, z, np.arange(params.big_l))
    r = np.hypot(m.epsilon, m.delta)
    modes = np.sort(np.concatenate((-r, r)))
    nonzero = np.abs(modes) > 1e-300
    constant = float(np.median(real_space[nonzero] / modes[nonzero])) if nonzero.any() else math.nan
    out = _out_dir(args)
    _write_csv(
        out / "spectrum.csv",
        ["index", "real_space", "mode_value"],
        [np.arange(len(real_space)), real_space, modes],
    )
    _write_metadata(
        out / "spectrum.json",
        "spectrum",
        config,
        {"proportionality_constant": constant},
    )
    return EXIT_OK


def cmd_dynamics(config: RunConfig, args: argparse.Namespace) -> int:
    traj = integrate(
        config.model_params(),
        PhaseState(config.x0, config.v0),
        config.dt,
        config.steps,
        settle_tol=config.settle_tol if config.settle_tol > 0 else None,
    )
    if traj.termination == "non-finite":
        print("error: trajectory became non-finite", file=sys.stderr)
        return EXIT_NUMERICAL
    out = _out_dir(args)
    x = np.array(traj.x)
    half = CoherentAmplitude(0.5 * x, 0.5 * x)  # type: ignore[arg-type]
    e_total = _energy_densities(config.model_params(), half)["e_total"]
    _write_csv(out / "trajectory.csv", ["t", "x", "v", "e_total"], [traj.t, x, traj.v, e_total])
    _write_metadata(
        out / "trajectory.json",
        "dynamics",
        config,
        {"termination": traj.termination, "final": {"t": traj.final.t, "x": traj.final.x, "v": traj.final.v}},
    )
    return EXIT_OK


def cmd_kink_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    params = config.model_params()
    kcfg = KinkConfiguration(
        n=config.kink_site,
        z=CoherentAmplitude(config.z_re, config.z_im),
        n_sites=config.n_sites,
    )
    evals, lowest, in_gap = kink_spectrum(params, kcfg)
    out = _out_dir(args)
    _write_csv(
        out / "kink_spectrum.csv",
        ["index", "eigenvalue", "in_gap"],
        [np.arange(len(evals)), evals, in_gap.astype(int)],
    )
    _write_metadata(
        out / "kink_spectrum.json",
        "kink-spectrum",
        config,
        {"lowest": lowest, "in_gap_count": int(in_gap.sum())},
    )
    return EXIT_OK


def cmd_kink_propagate(config: RunConfig, args: argparse.Namespace) -> int:
    traj = propagate_kink(
        config.model_params(),
        CoherentAmplitude(config.z_re, config.z_im),
        config.kink_site,
        config.kink_dt,
        config.kink_steps,
        n_sites=config.n_sites,
        initial_anchor_offset=config.anchor_offset,
        hysteresis=config.hysteresis,
    )
    out = _out_dir(args)
    _write_csv(
        out / "kink_trajectory.csv",
        ["t", "re_z", "im_z", "kink_position", "energy", "n_anchor"],
        [traj.times, np.full(len(traj.times), config.z_re), np.full(len(traj.times), config.z_im),
         traj.positions, traj.energies, traj.anchors],
    )
    energies = np.array(traj.energies)
    positions = np.array(traj.positions)
    _write_metadata(
        out / "kink_trajectory.json",
        "kink-propagate",
        config,
        {
            "termination": "completed",  # z is frozen and each step is exact, so runs always complete
            "max_advance": float(np.max(np.abs(positions - positions[0]))),
            "relative_energy_drift": float(np.max(np.abs(energies - energies[0])) / abs(energies[0])),
            "orthonormality_error": traj.orthonormality_error,
            "anchor_hops": int(np.count_nonzero(np.diff(traj.anchors))),
        },
    )
    return EXIT_OK


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    from .validate import run_validation  # scipy.integrate is needed by this command only

    report = run_validation(config.model_params())
    out = _out_dir(args)
    _write_metadata(out / "validation.json", "validate", config, {"report": report.as_dict()})
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{status} {check.name}: measured {check.measured:.3e} (threshold {check.threshold:.1e})")
    for key, value in report.info.items():
        print(f"info {key}: {value}")
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


_COMMANDS = {
    "landscape": cmd_landscape,
    "critical-points": cmd_critical_points,
    "spectrum": cmd_spectrum,
    "dynamics": cmd_dynamics,
    "kink-spectrum": cmd_kink_spectrum,
    "kink-propagate": cmd_kink_propagate,
    "validate": cmd_validate,
}


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        out[key.strip()] = _coerce(key.strip(), raw, f"--set {pair!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Dimerized-chain energy landscapes, restricted dynamics, and kink propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--reference",
            choices=["double_well", "kink_dynamics"],
            help="use a checked-in reference config (overridden by --config)",
        )
        p.add_argument("--out", "-o", default=".", help="output directory (default: current)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a single config field (repeatable; highest precedence)",
        )
        p.add_argument("--workers", type=int, help="accepted for compatibility (>= 1); has no effect")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_overrides(args.set)
        if args.workers is not None:
            overrides["workers"] = args.workers
        config_file = args.config
        if config_file is None and args.reference is not None:
            config_file = reference_config_path(args.reference)
        config = load_config(config_file, overrides)
        return _COMMANDS[args.command](config, args)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError, DomainError and library range checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
