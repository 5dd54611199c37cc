"""Run configuration: flat key=value files, environment overrides, CLI overrides.

Precedence (later wins): built-in defaults < config file < PEIERLS_*
environment variables < command-line flags.  All numerics are decimal;
parse errors name the file, line, and key.  A run's effective config is
embedded verbatim in its output metadata so any artifact can be re-run
from the metadata alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any

from .model import ModelParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_file",
    "load_config",
    "reference_config_path",
]

ENV_PREFIX = "PEIERLS_"


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    # model parameters
    t: float = 1.0
    zeta: float = 0.0
    kappa: float = 0.0
    q: float = 1.0
    w: float = 0.0
    big_l: int = 16
    phonon_norm: str = "per-cell"
    # state
    z_re: float = 0.0
    z_im: float = 0.0
    # landscape grid
    re_min: float = -0.3
    re_max: float = 0.3
    im_min: float = -0.3
    im_max: float = 0.3
    resolution: int = 41
    workers: int = 1  # accepted and range-checked; grids are evaluated in one process
    # critical-point search
    seed_rings: tuple[float, ...] = (0.05, 0.12)
    seed_angles: int = 8
    newton_tol: float = 1e-10
    max_step: float = 0.05
    # phase-space dynamics
    x0: float = 0.01
    v0: float = 0.0
    dt: float = 0.01
    steps: int = 20000
    settle_tol: float = 1e-10
    # kink chain
    n_sites: int = 200
    kink_site: int = 100
    kink_dt: float = 0.5
    kink_steps: int = 400
    anchor_offset: int = -4
    hysteresis: float = 0.25

    def __post_init__(self) -> None:
        if self.phonon_norm not in ("per-cell", "per-site"):
            raise ConfigError(f"phonon_norm must be 'per-cell' or 'per-site', got {self.phonon_norm!r}")
        for name in ("resolution", "workers", "steps", "kink_steps", "seed_angles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_sites < 3:
            raise ConfigError(f"n_sites: kink chain needs at least 3 sites, got {self.n_sites}")
        if not 0 <= self.kink_site <= self.n_sites - 2:
            raise ConfigError(f"kink_site: kink site {self.kink_site} outside [0, {self.n_sites - 2}]")
        if not 0 <= self.kink_site + self.anchor_offset <= self.n_sites - 2:
            raise ConfigError(f"anchor_offset: initial anchor {self.kink_site} + {self.anchor_offset} "
                              f"outside [0, {self.n_sites - 2}]")
        if not (math.isfinite(self.hysteresis) and self.hysteresis >= 0):
            raise ConfigError(f"hysteresis must be finite and >= 0, got {self.hysteresis}")
        for name in ("dt", "kink_dt", "newton_tol", "max_step"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (math.isfinite(self.settle_tol) and self.settle_tol >= 0):
            raise ConfigError(f"settle_tol must be finite and >= 0, got {self.settle_tol}")
        for name in ("z_re", "z_im", "x0", "v0", "re_min", "re_max", "im_min", "im_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(r) and r >= 0 for r in self.seed_rings):
            raise ConfigError(f"seed_rings must be finite and >= 0, got {self.seed_rings}")
        try:
            self.model_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def model_params(self) -> ModelParams:
        return ModelParams(t=self.t, zeta=self.zeta, kappa=self.kappa, big_l=self.big_l, q=self.q, w=self.w)

    def seeds(self) -> list[tuple[float, float]]:
        """Deterministic critical-point seeds: origin plus rings of points."""
        out: list[tuple[float, float]] = [(0.0, 0.0)]
        for r in self.seed_rings:
            for k in range(self.seed_angles):
                a = 2.0 * math.pi * k / self.seed_angles
                out.append((r * math.cos(a), r * math.sin(a)))
        return out

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# field name -> its annotation, a string under postponed evaluation
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple[float, ...]": lambda raw: tuple(float(part) for part in raw.split(",") if part.strip()),
}


def _coerce(key: str, raw: str, where: str) -> Any:
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{where}: unknown field {key!r}")
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: field {key!r}: {exc}") from exc


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = _coerce(key, raw, f"{path}:{lineno}")
    return values


def _env_overrides(environ: dict[str, str]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for key, raw in environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        field = key[len(ENV_PREFIX):].lower()
        values[field] = _coerce(field, raw, f"environment variable {key}")
    return values


def load_config(
    config_file: str | Path | None = None,
    overrides: dict[str, Any] | None = None,
    environ: dict[str, str] | None = None,
) -> RunConfig:
    """Assemble the effective RunConfig (defaults < file < env < overrides)."""
    values: dict[str, Any] = {}
    if config_file is not None:
        values.update(parse_config_file(config_file))
    values.update(_env_overrides(os.environ if environ is None else environ))
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown field {key!r}")
            values[key] = val
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def reference_config_path(name: str) -> Path:
    """Path of a checked-in reference config ('double_well' or 'kink_dynamics')."""
    ref = resources.files("peierls.configs").joinpath(f"{name}.cfg")
    path = Path(str(ref))
    if not path.is_file():
        raise ConfigError(f"no reference config named {name!r}")
    return path
