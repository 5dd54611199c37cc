"""Command-line front end and dataset emission.

Commands: landscape, critical-points, spectrum, dynamics, kink-spectrum,
kink-propagate, validate.  One flat parser takes the command as its
positional argument and the same five options for every command, before
or after it; ``peierls --help`` lists the commands.  A run's config is the
defaults, then the ``--config`` or ``--reference`` file, then each ``--set``
pair, read by the config file's line parser; nothing else sets a field.
Each command is a function of the config that returns what it computed and
writes nothing; `main` alone makes ``--out`` and writes the result: a CSV
dataset (every command but validate) plus a metadata JSON embedding the effective
config, the package version and a schema version, so any artifact can be
re-run from its metadata alone.  validate prints its report once the
files are written.  At one BLAS thread count, identical configs produce
byte-identical CSV; the seconds spent on config, compute and write go only
into the JSON, as ``timings_s`` outside the config.
Datasets are formatted column by column: each distinct float of a column
is formatted once, as the shortest round-trip text `repr` writes.  orjson's
Ryu formatter writes the values `repr` writes in fixed notation (+-0.0 and
1e-4 <= |x| < 1e16), with the same digits; `repr` writes NaN, +-inf and
the magnitudes it writes with an exponent.  Every column becomes distinct
texts that end in their separator plus an index of one text per row
(landscape passes its axes and status already in that form).  Blocks of
rows are gathered by index into one object table, joined once and
written, so the writer holds the distinct texts, the index arrays and
one block, never the whole file.  ``--workers`` must be >= 1
and is read by nothing, not even the config: grids are numpy arrays in
one process.  The import loads numpy and no scipy: landscape,
critical-points and dynamics load ``scipy.special`` (E and K), spectrum and
the kink commands ``scipy.linalg`` (LAPACK), each at its first use, and
the first CSV write loads orjson.

Exit codes: 0 ok, 1 validation failure, 2 config/domain error or any
other out-of-range input (a ValueError), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple, Sequence

import numpy as np

from . import __version__
from .algebra import mode_energies
from .config import ConfigError, RunConfig, _parse_setting, load_config, reference_config_path
from .dynamics import PhaseState, integrate
from .kink import KinkConfiguration, kink_spectrum, propagate_kink
from .landscape import energy_densities, find_critical_points, landscape_grid
from .model import CoherentAmplitude, ring_spectrum, staggered_bonds

__all__ = ["main"]

SCHEMA_VERSION = "v1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_BLOCK_ROWS = 8192  # CSV rows joined and written at a time; bounds the writer's memory


def _float_texts(values: np.ndarray, sep: str) -> np.ndarray:
    """The shortest round-trip text of each float64 in `values`, exactly as `repr` writes it,
    each ending in `sep`.  Where `repr` writes fixed notation (+-0.0 and 1e-4 <= |x| < 1e16) the
    text comes from orjson's Ryu formatter, which writes the same digits there, _BLOCK_ROWS values
    per call; its commas become `sep` plus a NUL, and the chunk is split on the NUL.  NaN, +-inf
    and the magnitudes `repr` writes with an exponent (1e-05, 1e+16) keep `repr`."""
    import orjson  # loaded by the first CSV write, not by `import peierls.cli`

    texts = np.empty(len(values), dtype=object)
    magnitude = np.abs(values)
    fixed = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude == 0.0)  # NaN compares False
    where = np.flatnonzero(fixed)
    for start in range(0, len(where), _BLOCK_ROWS):
        chunk = where[start:start + _BLOCK_ROWS]
        text = orjson.dumps(values[chunk], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        texts[chunk] = (text.replace(",", sep + "\0") + sep).split("\0")
    texts[~fixed] = [repr(v) + sep for v in values[~fixed].tolist()]
    return texts


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[Any]) -> None:
    """Write equal-length columns as CSV rows.  Each column becomes distinct texts, each
    ending in its separator ("," or, in the last column, a newline), and an index of one
    text per row.  A column may come factored, as a (values, index) pair.  A float64
    column gets one shortest round-trip text per distinct bit pattern (-0.0 and 0.0 stay
    apart; `_float_texts`: orjson's Ryu digits where `repr` writes fixed notation, `repr`
    elsewhere); any other column is written with str, one text per row.  Each block of
    _BLOCK_ROWS rows is gathered by index into one object table and joined once, so the
    whole file is never held as one string."""
    factored = []
    for j, column in enumerate(columns):
        sep = "\n" if j == len(columns) - 1 else ","
        values, index = column if isinstance(column, tuple) else (column, None)
        values = np.asarray(values)
        if index is None and values.dtype == np.float64:
            bits, index = np.unique(values.view(np.int64), return_inverse=True)
            values = bits.view(np.float64)
        if values.dtype == np.float64:
            texts = _float_texts(values, sep)
        else:
            texts = np.array([str(v) + sep for v in values.tolist()], dtype=object)
        factored.append((texts, np.arange(len(texts)) if index is None else index))
    rows = len(factored[0][1])
    table = np.empty((min(rows, _BLOCK_ROWS), len(factored)), dtype=object)
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, rows, _BLOCK_ROWS):
            block = table[:min(rows - start, _BLOCK_ROWS)]
            for j, (texts, index) in enumerate(factored):
                block[:, j] = texts[index[start:start + len(block)]]
            f.write("".join(block.ravel().tolist()).encode("ascii"))


class _Result(NamedTuple):
    """What a command computed.  `main` writes `<stem>.csv` from `header` and `columns` (no CSV
    without a header) and `<stem>.json` with `extra` beside the config, then prints `lines` and
    returns `code`."""

    stem: str
    extra: dict[str, Any]
    header: Sequence[str] | None = None
    columns: Sequence[Any] = ()
    lines: Sequence[str] = ()
    code: int = EXIT_OK


def cmd_landscape(config: RunConfig) -> _Result:
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing cells get the status "non-finite"
        grid = landscape_grid(
            config.model_params(),
            (config.re_min, config.re_max),
            (config.im_min, config.im_max),
            config.resolution,
        )
    in_domain = grid["in_domain"]
    res = config.resolution
    row, col = np.divmod(np.arange(in_domain.size), res)  # re-major: cell = res * row + col
    status = np.where(np.isfinite(grid["e_total"]), 0, 1 + in_domain)
    energies = ["e_phonon", "e_electronic", "e_total"]
    return _Result(
        "landscape",
        {"cells": in_domain.size, "domain_cells": int(np.count_nonzero(~in_domain))},
        ["re", "im", *energies, "status"],
        # the axes and the status go to the writer factored, as (values, index) pairs
        [(grid["re"][::res], row), (grid["im"][:res], col), *(grid[name] for name in energies),
         (["ok", "domain", "non-finite"], status)],
    )


def cmd_critical_points(config: RunConfig) -> _Result:
    points = find_critical_points(
        config.model_params(),
        config.seeds(),
        tol=config.newton_tol,
        max_step=config.max_step,
    )
    counts = {kind: sum(p.kind == kind for p in points) for kind in ("minimum", "saddle", "marginal")}
    return _Result(
        "critical_points",
        {"counts": counts, "seeds": points.seeds, "newton_evaluations": points.evaluations,
         "max_gradient_norm": max((p.gradient_norm for p in points), default=None)},
        ["kind", "re", "im", "gradient_norm", "hessian_eig_low", "hessian_eig_high"],
        [[p.kind for p in points], *([p.location[i] for p in points] for i in (0, 1)),
         [p.gradient_norm for p in points], *([p.hessian_eigs[i] for p in points] for i in (0, 1))],
    )


def cmd_spectrum(config: RunConfig) -> _Result:
    params = config.model_params()
    z = CoherentAmplitude(config.z_re, config.z_im)
    real_space = ring_spectrum(staggered_bonds(params, z))
    m = mode_energies(params, z, np.arange(params.big_l))
    r = np.hypot(m.epsilon, m.delta)
    modes = np.sort(np.concatenate((-r, r)))
    band_error = float(np.max(np.abs(real_space - 2.0 * modes)))  # the bands are 2 x mode_value
    nonzero = np.abs(modes) > 1e-300
    constant = float(np.median(real_space[nonzero] / modes[nonzero])) if nonzero.any() else None
    return _Result(
        "spectrum",
        {"proportionality_constant": constant, "max_band_error": band_error},
        ["index", "real_space", "mode_value"],
        [np.arange(len(real_space)), real_space, modes],
    )


def cmd_dynamics(config: RunConfig) -> _Result:
    traj = integrate(
        config.model_params(),
        PhaseState(config.x0, config.v0),
        config.dt,
        config.steps,
        settle_tol=config.settle_tol,
    )
    if traj.termination == "non-finite":
        raise FloatingPointError("trajectory became non-finite")
    x = np.array(traj.x)
    e_total = energy_densities(config.model_params(), 0.5 * x, 0.5 * x)["e_total"]
    final, steps = traj.final, len(traj.t) - 1
    residuals = {"abs_v": abs(final.v), "abs_dv_dt": abs(traj.dv_dt)} if steps else None  # the settle test's last pair
    return _Result(
        "trajectory",
        {"termination": traj.termination, "final": {"t": final.t, "x": final.x, "v": final.v},
         "rk4_steps": steps, "settle_residuals": residuals},
        ["t", "x", "v", "e_total"],
        [traj.t, x, traj.v, e_total],
    )


def cmd_kink_spectrum(config: RunConfig) -> _Result:
    kcfg = KinkConfiguration(n=config.kink_site, z=CoherentAmplitude(config.z_re, config.z_im), n_sites=config.n_sites)
    evals, lowest, in_gap = kink_spectrum(config.model_params(), kcfg)
    return _Result(
        "kink_spectrum",
        {"lowest": lowest, "in_gap_count": int(in_gap.sum())},
        ["index", "eigenvalue", "in_gap"],
        [np.arange(len(evals)), evals, in_gap.astype(int)],
    )


def cmd_kink_propagate(config: RunConfig) -> _Result:
    traj = propagate_kink(
        config.model_params(),
        CoherentAmplitude(config.z_re, config.z_im),
        config.kink_site,
        config.kink_dt,
        config.kink_steps,
        n_sites=config.n_sites,
        initial_anchor_offset=config.anchor_offset,
    )
    energies = np.array(traj.energies)
    positions = np.array(traj.positions)
    rows = len(traj.times)
    return _Result(
        "kink_trajectory",
        {
            "termination": "completed",  # z is frozen and each step is exact, so runs always complete
            "max_advance": float(np.max(np.abs(positions - positions[0]))),
            "relative_energy_drift": float(np.max(np.abs(energies - energies[0])) / abs(energies[0])),
            "max_step_energy_change": float(np.max(np.abs(np.diff(energies)) / np.abs(energies[1:]))),
            "orthonormality_error": traj.orthonormality_error,
        },
        # z and the lattice wall are frozen: re_z, im_z and n_anchor are constant columns
        ["t", "re_z", "im_z", "kink_position", "energy", "n_anchor"],
        [traj.times, np.full(rows, config.z_re), np.full(rows, config.z_im), traj.positions, traj.energies,
         np.full(rows, config.kink_site)],
    )


def cmd_validate(config: RunConfig) -> _Result:
    from .validate import run_validation  # only this command runs the oracle suite, which imports scipy.special

    report = run_validation(config.model_params())
    # from the checks, not as_dict(), which writes a NaN measurement as null
    lines = [f"{'pass' if check.passed else 'FAIL'} {check.name}: measured {check.measured:.3e} "
             f"(threshold {check.threshold:.1e})" for check in report.checks]
    lines += [f"info {key}: {value}" for key, value in report.info.items()]
    return _Result("validation", {"report": report.as_dict()}, lines=lines,
                   code=EXIT_OK if report.passed else EXIT_VALIDATION)


_COMMANDS = {
    "landscape": cmd_landscape,
    "critical-points": cmd_critical_points,
    "spectrum": cmd_spectrum,
    "dynamics": cmd_dynamics,
    "kink-spectrum": cmd_kink_spectrum,
    "kink-propagate": cmd_kink_propagate,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Dimerized-chain energy landscapes, restricted dynamics, and kink propagation.",
    )
    parser.add_argument("command", choices=list(_COMMANDS), help="the command to run")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--reference",
        choices=["double_well", "kink_dynamics"],
        help="use a checked-in reference config (overridden by --config)",
    )
    parser.add_argument("--out", "-o", default=".", help="output directory (default: current)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config field (repeatable; highest precedence)",
    )
    parser.add_argument("--workers", type=int, help="accepted for compatibility (>= 1); has no effect")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, then write its files: the one place that makes `--out` and reads the clock.
    The `timings_s` stages end after `load_config`, after the command, and after the CSV."""
    args = build_parser().parse_args(argv)
    stamps = [perf_counter()]
    try:
        overrides = dict(_parse_setting(pair, "--set") for pair in args.set)
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        config_file = args.config
        if config_file is None and args.reference is not None:
            config_file = reference_config_path(args.reference)
        config = load_config(config_file, overrides)
        stamps.append(perf_counter())
        result = _COMMANDS[args.command](config)
        stamps.append(perf_counter())
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one: exit 2, not a traceback
            raise ConfigError(f"--out {args.out}: cannot make the output directory ({exc.strerror})") from exc
        if result.header is not None:
            _write_csv(out / f"{result.stem}.csv", result.header, result.columns)
        stamps.append(perf_counter())
        payload = {
            "schema": f"peierls/{args.command}/{SCHEMA_VERSION}",
            "version": __version__,
            "config": config.as_dict(),
            "timings_s": {stage: b - a for stage, a, b in zip(("config", "compute", "write"), stamps, stamps[1:])},
            **result.extra,
        }
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        (out / f"{result.stem}.json").write_bytes(text.encode("ascii"))
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError, DomainError and library range checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in result.lines:
        print(line)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
