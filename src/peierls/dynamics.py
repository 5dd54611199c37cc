"""Semiclassical phase-space dynamics of the staggering amplitude.

`drive_kernel` builds the non-linear drive/damping kernel P(x, p) of the
restricted equation of motion along x = p,

    x'' = (x - P)(1 - P_x) - x' P_x ,

integrated by classical fixed-step RK4.  The kernel is the loc-slope of
the landscape's continuum electronic density at loc = sqrt(2)*(zeta*x +
kappa*p), so the oscillator and the landscape describe one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .landscape import DomainError, _slope_kernel
from .model import ModelParams

__all__ = [
    "PhaseState",
    "Trajectory",
    "drive_kernel",
    "integrate",
]


@dataclass(frozen=True)
class PhaseState:
    x: float
    v: float
    t: float = 0.0


@dataclass
class Trajectory:
    t: list[float]
    x: list[float]
    v: list[float]
    termination: str = "completed"
    dv_dt: float | None = None  # dv/dt at the start of the last completed step; None before the first

    @property
    def states(self) -> list[PhaseState]:
        return list(map(PhaseState, self.x, self.v, self.t))

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.x[-1], self.v[-1], self.t[-1])


def _drive_factors(zeta: float) -> tuple[float, float, float]:
    """(sqrt 2, -2 sqrt 2/pi, -4 zeta/pi): u = sqrt(2)(zeta x + kappa p), P = -2 sqrt(2)/pi d1, P_x = -4 zeta/pi d2."""
    root2 = math.sqrt(2.0)
    return root2, -(2.0 * root2 / math.pi), -(4.0 * zeta / math.pi)


def drive_kernel(params: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """`drive(x, p)` -> the drive kernel P(x, p) and dP/dx at fixed p, from a `_slope_kernel` and
    `_drive_factors` built once; `integrate`'s stages apply the same factors to the same slopes.

    P(x, p) = -(2*sqrt(2)/pi) * dE_el/d(loc) at loc = u = sqrt(2)*(zeta*x + kappa*p),
    where dE_el/d(loc) is the slope of the continuum electronic density
    (`landscape._slope_kernel`), which raises `DomainError` where
    m = 1 - xi*tanh(u)^2 leaves [-1, 1].  In the hypergeometric normalization
    this is the originally written form
    (4*sqrt(2)*g/pi) * sinh(u)/(xi*(q+1/q)) * (E(m) - xi*(E(m)-F(m))/(m*cosh(u)^2)).
    dP/dx = -(4 zeta/pi) d2E_el/d(loc)2 at loc = u; +inf at u = 0.
    """
    slopes = _slope_kernel(params)
    zeta, kappa = params.zeta, params.kappa
    root2, p_scale, px_scale = _drive_factors(zeta)

    def drive(x: float, p: float) -> tuple[float, float]:
        d1, d2 = slopes(root2 * (zeta * x + kappa * p))
        return p_scale * d1, (px_scale * d2 if zeta else 0.0)  # zeta = 0: P does not depend on x (d2 may be -inf)

    return drive


def integrate(
    params: ModelParams,
    initial: PhaseState,
    dt: float,
    steps: int,
    settle_tol: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the restricted equation of motion.

    Each stage is one call of a per-run closure: one `_slope_kernel` call and
    `drive_kernel`'s factors at p = x.  Aborts (with a recorded termination
    reason) if the state leaves the elliptic domain or becomes non-finite.
    With `settle_tol` set, stops early once |v| after a step and |dv/dt| at
    its start (kept as `Trajectory.dv_dt`) both fall below the tolerance.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    slopes = _slope_kernel(params)
    zeta, kappa = params.zeta, params.kappa
    root2, p_scale, px_scale = _drive_factors(zeta)
    isinf = math.isinf

    def acceleration(x: float, v: float) -> float:  # dv/dt = (x - P)(1 - P_x) - v P_x, P at p = x
        d1, d2 = slopes(root2 * (zeta * x + kappa * x))
        px = px_scale * d2 if zeta else 0.0
        px = 0.0 if isinf(px) else px  # u = 0: the cusp's log singularity is integrable; a stage sample takes slope 0
        return (x - p_scale * d1) * (1.0 - px) - v * px

    x, v, t = initial.x, initial.v, initial.t
    traj = Trajectory(t=[t], x=[x], v=[v])
    for _ in range(steps):
        try:
            a1 = acceleration(x, v)
            v2 = v + 0.5 * dt * a1
            a2 = acceleration(x + 0.5 * dt * v, v2)
            v3 = v + 0.5 * dt * a2
            a3 = acceleration(x + 0.5 * dt * v2, v3)
            v4 = v + dt * a3
            a4 = acceleration(x + dt * v3, v4)
        except DomainError:
            traj.termination = "domain-exit"
            break
        x += dt * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        v += dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        t += dt
        if not (math.isfinite(x) and math.isfinite(v)):
            traj.termination = "non-finite"
            break
        traj.t.append(t)
        traj.x.append(x)
        traj.v.append(v)
        traj.dv_dt = a1
        if settle_tol is not None and abs(v) < settle_tol and abs(a1) < settle_tol:
            traj.termination = "settled"
            break
    return traj
