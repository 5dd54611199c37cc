"""Run configuration: flat key=value files and command-line overrides.

Precedence (later wins): built-in defaults < config file < command-line
``--set`` pairs.  A file line and a ``--set`` pair are one ``key = value``
text each, read by one parser.  All numerics are decimal; parse errors
name the file and line, or ``--set``, and the key.  A run's effective
config is embedded verbatim in its output metadata so any artifact can be
re-run from the metadata alone.
"""

from __future__ import annotations

import math
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
    # state
    z_re: float = 0.0
    z_im: float = 0.0
    # landscape grid
    re_min: float = -0.3
    re_max: float = 0.3
    im_min: float = -0.3
    im_max: float = 0.3
    resolution: int = 41
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

    def __post_init__(self) -> None:
        for name in ("resolution", "steps", "kink_steps", "seed_angles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_sites < 3:
            raise ConfigError(f"n_sites: kink chain needs at least 3 sites, got {self.n_sites}")
        if not 0 <= self.kink_site <= self.n_sites - 2:
            raise ConfigError(f"kink_site: kink site {self.kink_site} outside [0, {self.n_sites - 2}]")
        if not 0 <= self.kink_site + self.anchor_offset <= self.n_sites - 2:
            raise ConfigError(f"anchor_offset: initial anchor {self.kink_site} + {self.anchor_offset} "
                              f"outside [0, {self.n_sites - 2}]")
        for name in ("dt", "kink_dt", "newton_tol", "max_step"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not (math.isfinite(self.settle_tol) and self.settle_tol >= 0):
            raise ConfigError(f"settle_tol must be finite and >= 0, got {self.settle_tol}")
        for name in ("z_re", "z_im", "x0", "v0", "re_min", "re_max", "im_min", "im_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        spans = {"re_max - re_min": self.re_max - self.re_min, "im_max - im_min": self.im_max - self.im_min,
                 "dt * steps": self.dt * self.steps, "kink_dt * kink_steps": self.kink_dt * self.kink_steps}
        for name, value in spans.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
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
    "tuple[float, ...]": lambda raw: tuple(float(part) for part in raw.split(",") if part.strip()),
}


def _parse_setting(text: str, where: str) -> tuple[str, Any]:
    """(field, value) of one 'key = value' text: a config-file line or a --set pair."""
    key, eq, raw = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text.strip()!r}")
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{where}: unknown field {key!r}")
    try:
        return key, _PARSERS[_FIELD_TYPES[key]](raw.strip())
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
        if stripped:
            key, value = _parse_setting(stripped, f"{path}:{lineno}")
            values[key] = value
    return values


def load_config(config_file: str | Path | None = None, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Assemble the effective RunConfig (defaults < file < overrides); a str override is parsed as a file line."""
    values: dict[str, Any] = {}
    if config_file is not None:
        values.update(parse_config_file(config_file))
    for key, val in (overrides or {}).items():
        if isinstance(val, str) or key not in _FIELD_TYPES:  # unknown keys raise
            key, val = _parse_setting(f"{key}={val}", "override")
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
