"""The three benchmark studies.

Each study runs the ``peierls`` CLI in-process through
``peierls.cli.main``.  The seed generates only the sweep inputs; every
session of a run repeats the same inputs, so repeats can be compared
byte for byte.  Each CLI call is one operation: it fails when it exits
non-zero, raises, or when its output breaks the study's check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Iterator

import peierls.cli

# accepted deviation of a settled dynamics endpoint from a found minimum
SETTLE_X_TOL = 1e-3


class Session:
    """CLI calls of one session (or warm-up) and their outcomes."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.ops: list[dict[str, Any]] = []
        self.times: dict[str, float] = {}  # call key -> seconds
        self.bytes_written = 0

    def call(self, argv: list[str], key: str) -> tuple[Path, dict[str, Any]]:
        """Run one CLI call, writing into its own directory named by key."""
        out = self.work / key
        shutil.rmtree(out, ignore_errors=True)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = peierls.cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            rc = None
            captured.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        op: dict[str, Any] = {"key": key, "argv": argv, "seconds": seconds, "rc": rc, "error": None}
        if rc != 0:
            op["error"] = f"exit {rc}: {captured.getvalue()[-2000:]}"
        self.ops.append(op)
        self.times[key] = seconds
        if out.is_dir():
            self.bytes_written += sum(f.stat().st_size for f in out.iterdir())
        return out, op

    @staticmethod
    def check(op: dict[str, Any], ok: bool, reason: str) -> None:
        if not ok and op["error"] is None:
            op["error"] = reason

    @staticmethod
    @contextlib.contextmanager
    def reading(op: dict[str, Any]) -> Iterator[None]:
        """Missing or malformed output files fail the operation."""
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            Session.check(op, False, f"unreadable output: {exc!r}")

    @property
    def failed(self) -> int:
        return sum(op["error"] is not None for op in self.ops)


def _read_json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _data_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def _sum(times: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in times.items() if k.startswith(prefix))


class Study:
    """A workload: seeded inputs, an untimed warm-up and a timed session."""

    name = ""
    reference = ""  # config whose load is part of setup_s
    primary = ""  # session metric reported as primary_per_s
    secondary = ""  # session metric reported as secondary_per_s
    units: dict[str, str] = {}

    def __init__(self, seed: int, small: bool) -> None:
        self.small = small
        self.inputs = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng: random.Random) -> dict[str, Any]:
        raise NotImplementedError

    def warm_up(self, s: Session) -> None:
        raise NotImplementedError

    def session(self, s: Session) -> dict[str, float]:
        """Run and check one session; return its work counts."""
        raise NotImplementedError

    def metrics(self, times: dict[str, float], work: dict[str, float]) -> dict[str, float]:
        """End-to-end metrics from per-call seconds and the work counts."""
        raise NotImplementedError


class LandscapeScan(Study):
    """Bulk array-shaped work: landscape grids, a spectrum sweep, validation."""

    name = "landscape_scan"
    reference = "double_well"
    primary = "landscape_cells_per_s"
    secondary = "spectra_per_s"
    units = {
        "wall_s": "s",
        "landscape_cells_per_s": "1/s",
        "spectrum_sweep_s": "s",
        "spectra_per_s": "1/s",
    }

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed, small)
        self.grid_digests: dict[str, str] = {}  # first session's CSV digest per grid

    def make_inputs(self, rng: random.Random) -> dict[str, Any]:
        resolution = 41 if self.small else 401
        z = [(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)) for _ in range(2 if self.small else 8)]
        big_l = 64 if self.small else 512
        grid = ["landscape", "--reference", "double_well", "--set", f"resolution={resolution}"]
        wide = ["--set", "w=-2", "--set", "re_min=-0.5", "--set", "re_max=0.5",
                "--set", "im_min=-0.5", "--set", "im_max=0.5"]
        return {
            "cells_per_grid": resolution * resolution,
            "grid_workers_1": [*grid, "--workers", "1"],
            "grid_workers_2": [*grid, "--workers", "2"],
            "grid_domain": [*grid, *wide],
            "spectra": [
                ["spectrum", "--reference", "double_well", "--set", f"big_l={big_l}",
                 "--set", f"z_re={re!r}", "--set", f"z_im={im!r}"]
                for re, im in z
            ],
            "spectrum_rows": 2 * big_l,
            "validate": [["validate", "--reference", ref] for ref in ("double_well", "kink_dynamics")],
        }

    def warm_up(self, s: Session) -> None:
        for argv in (
            ["landscape", "--reference", "double_well", "--set", "resolution=21", "--workers", "2"],
            ["spectrum", "--reference", "double_well", "--set", "big_l=16"],
            ["validate", "--reference", "double_well"],
        ):
            s.call(argv, "warm_up")

    def _grid(self, s: Session, key: str, same_as: str) -> int:
        """Run one grid; check it repeats the first session's bytes and,
        for the two-worker grid, the one-worker bytes.  Returns the number
        of domain cells."""
        out, op = s.call(self.inputs[key], key)
        domain = 0
        if op["error"] is None:
            with s.reading(op):
                data = (out / "landscape.csv").read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                expected = self.grid_digests.setdefault(same_as, digest)
                s.check(op, digest == expected, f"landscape CSV differs from {same_as}")
                s.check(op, data.count(b"\n") == self.inputs["cells_per_grid"] + 1, "landscape CSV row count")
                domain = data.count(b",domain\n")
        return domain

    def session(self, s: Session) -> dict[str, float]:
        self._grid(s, "grid_workers_1", "grid_workers_1")
        self._grid(s, "grid_workers_2", "grid_workers_1")
        domain = self._grid(s, "grid_domain", "grid_domain")
        for i, argv in enumerate(self.inputs["spectra"]):
            out, op = s.call(argv, f"spectrum_{i}")
            if op["error"] is None:
                with s.reading(op):
                    rows = _data_rows(out / "spectrum.csv")
                    s.check(op, rows == self.inputs["spectrum_rows"], f"spectrum has {rows} rows")
        for i, argv in enumerate(self.inputs["validate"]):
            out, op = s.call(argv, f"validate_{i}")
            if op["error"] is None:
                with s.reading(op):
                    passed = _read_json(out / "validation.json")["report"]["passed"]
                    s.check(op, passed, "validation check failed")
        return {"cells": 3 * self.inputs["cells_per_grid"], "domain_cells": domain}

    def metrics(self, times: dict[str, float], work: dict[str, float]) -> dict[str, float]:
        spectrum_s = _sum(times, "spectrum_")
        return {
            "wall_s": sum(times.values()),
            "landscape_cells_per_s": work["cells"] / _sum(times, "grid_"),
            "spectrum_sweep_s": spectrum_s,
            "spectra_per_s": len(self.inputs["spectra"]) / spectrum_s,
        }


class AttractorSweep(Study):
    """Scalar special-function work driven from long sequential loops."""

    name = "attractor_sweep"
    reference = "kink_dynamics"
    primary = "dynamics_steps_per_s"
    secondary = "newton_seeds_per_s"
    units = {
        "wall_s": "s",
        "critical_points_s": "s",
        "newton_seeds_per_s": "1/s",
        "dynamics_steps_per_s": "1/s",
    }

    def make_inputs(self, rng: random.Random) -> dict[str, Any]:
        angles = 8 if self.small else 64
        n = 2 if self.small else 8
        # one magnitude per equal stratum of [0.005, 0.08]: settle times
        # depend on |x0|, so stratifying keeps the summed work per session
        # nearly the same for every seed
        lo, hi = 0.005, 0.08
        width = (hi - lo) / n
        x0 = [rng.choice((-1.0, 1.0)) * (lo + width * (i + rng.random())) for i in range(n)]
        return {
            "critical_points": [
                ["critical-points", "--reference", ref, "--set", f"seed_angles={angles}"]
                for ref in ("double_well", "kink_dynamics")
            ],
            "seeds_per_search": 1 + 2 * angles,  # origin plus two rings
            "dynamics": [["dynamics", "--reference", "kink_dynamics", "--set", f"x0={x!r}"] for x in x0],
        }

    def warm_up(self, s: Session) -> None:
        for argv in (
            ["critical-points", "--reference", "kink_dynamics"],
            ["dynamics", "--reference", "kink_dynamics", "--set", "steps=200"],
        ):
            s.call(argv, "warm_up")

    def session(self, s: Session) -> dict[str, float]:
        minima_x: list[float] = []
        for i, argv in enumerate(self.inputs["critical_points"]):
            out, op = s.call(argv, f"critical_points_{i}")
            if op["error"] is None:
                with s.reading(op):
                    with (out / "critical_points.csv").open() as fh:
                        rows = list(csv.DictReader(fh))
                    kinds = Counter(r["kind"] for r in rows)
                    s.check(op, kinds == Counter(saddle=1, minimum=2), f"critical points {dict(kinds)}")
                    if argv[2] == "kink_dynamics":
                        minima_x = [2.0 * float(r["re"]) for r in rows if r["kind"] == "minimum"]
        steps = 0
        for i, argv in enumerate(self.inputs["dynamics"]):
            out, op = s.call(argv, f"dynamics_{i}")
            if op["error"] is None:
                with s.reading(op):
                    steps += _data_rows(out / "trajectory.csv") - 1  # rows are states; the first is t = 0
                    meta = _read_json(out / "trajectory.json")
                    s.check(op, meta["termination"] == "settled", f"dynamics ended {meta['termination']}")
                    x = meta["final"]["x"]
                    near = any(abs(x - m) < SETTLE_X_TOL for m in minima_x)
                    s.check(op, near, f"settled at x={x}, minima {minima_x}")
        seeds = len(self.inputs["critical_points"]) * self.inputs["seeds_per_search"]
        return {"seeds": seeds, "rk4_steps_csv": steps}

    def metrics(self, times: dict[str, float], work: dict[str, float]) -> dict[str, float]:
        search_s = _sum(times, "critical_points_")
        return {
            "wall_s": sum(times.values()),
            "critical_points_s": search_s,
            "newton_seeds_per_s": work["seeds"] / search_s,
            "dynamics_steps_per_s": work["rk4_steps_csv"] / _sum(times, "dynamics_"),
        }


class KinkWall(Study):
    """The kink layer: one wall propagation and a static spectrum sweep."""

    name = "kink_wall"
    reference = "kink_dynamics"
    primary = "kink_steps_per_s"
    secondary = "kink_spectra_per_s"
    units = {
        "wall_s": "s",
        "kink_steps_per_s": "1/s",
        "kink_spectra_per_s": "1/s",
    }

    def make_inputs(self, rng: random.Random) -> dict[str, Any]:
        n_sites = 200 if self.small else 1000
        margin = n_sites // 5  # keep the wall away from the open ends
        sites = [rng.randint(margin, n_sites - margin - 2) for _ in range(2 if self.small else 8)]
        # 25 of the reference's 400 steps: half-second calls give a steady
        # fastest time where 9 s calls do not.  The wall makes both of its
        # anchor hops within the first 2 steps (same max_advance and energy
        # drift as 400 steps); the 4 matrix builds and eigensolves, spread
        # over 25 steps instead of 400, take about 5% of the call's time
        propagate = ["kink-propagate", "--reference", "kink_dynamics", "--set", "kink_steps=25"]
        if self.small:
            propagate += ["--set", "n_sites=100", "--set", "kink_site=50", "--set", "kink_steps=60"]
        return {
            "propagate": propagate,
            "spectra": [
                ["kink-spectrum", "--reference", "kink_dynamics", "--set", f"n_sites={n_sites}",
                 "--set", f"kink_site={site}"]
                for site in sites
            ],
        }

    def warm_up(self, s: Session) -> None:
        for argv in (
            ["kink-propagate", "--reference", "kink_dynamics", "--set", "kink_steps=2"],
            ["kink-spectrum", "--reference", "kink_dynamics"],
        ):
            s.call(argv, "warm_up")

    def session(self, s: Session) -> dict[str, float]:
        out, op = s.call(self.inputs["propagate"], "kink_propagate")
        steps = hops = 0
        if op["error"] is None:
            with s.reading(op):
                meta = _read_json(out / "kink_trajectory.json")
                s.check(op, meta["termination"] == "completed", f"kink run ended {meta['termination']}")
                s.check(op, meta["max_advance"] >= 1.0, f"max_advance {meta['max_advance']}")
                drift = meta["relative_energy_drift"]
                s.check(op, drift < 1e-3, f"relative_energy_drift {drift}")
                with (out / "kink_trajectory.csv").open() as fh:
                    anchors = [int(r["n_anchor"]) for r in csv.DictReader(fh)]
                steps = len(anchors) - 1
                hops = sum(a != b for a, b in zip(anchors, anchors[1:]))
        for i, argv in enumerate(self.inputs["spectra"]):
            out_i, op_i = s.call(argv, f"kink_spectrum_{i}")
            if op_i["error"] is None:
                with s.reading(op_i):
                    in_gap = _read_json(out_i / "kink_spectrum.json")["in_gap_count"]
                    s.check(op_i, in_gap >= 1, f"{in_gap} in-gap states")
        return {"kink_steps": steps, "anchor_hops": hops}

    def metrics(self, times: dict[str, float], work: dict[str, float]) -> dict[str, float]:
        return {
            "wall_s": sum(times.values()),
            "kink_steps_per_s": work["kink_steps"] / times["kink_propagate"],
            "kink_spectra_per_s": len(self.inputs["spectra"]) / _sum(times, "kink_spectrum_"),
        }


STUDIES = {cls.name: cls for cls in (LandscapeScan, AttractorSweep, KinkWall)}
