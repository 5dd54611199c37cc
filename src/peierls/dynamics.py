"""Semiclassical phase-space dynamics of the staggering amplitude.

`script_p` is the non-linear drive/damping kernel of the restricted
equation of motion along x = p,

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
    "script_p",
    "script_p_x",
    "ode_rhs",
    "fixed_point_branches",
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

    @property
    def states(self) -> list[PhaseState]:
        return list(map(PhaseState, self.x, self.v, self.t))

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.x[-1], self.v[-1], self.t[-1])


def _drive(params: ModelParams) -> Callable[[float, float], tuple[float, float]]:
    """`drive(x, p)` -> P(x, p) and dP/dx at fixed p from one call of a `_slope_kernel` built once."""
    slopes = _slope_kernel(params)
    zeta, kappa = params.zeta, params.kappa

    def drive(x: float, p: float) -> tuple[float, float]:
        d1, d2 = slopes(math.sqrt(2.0) * (zeta * x + kappa * p))
        # du/dx = sqrt(2) zeta; with zeta = 0 P does not depend on x (and d2 may be -inf)
        return -(2.0 * math.sqrt(2.0) / math.pi) * d1, (-(4.0 * zeta / math.pi) * d2 if zeta else 0.0)

    return drive


def _acceleration(drive: Callable[[float, float], tuple[float, float]], x: float, v: float) -> float:
    """dv/dt = (x - P)(1 - P_x) - v P_x of the restricted oscillator, with P evaluated at p = x."""
    pval, px = drive(x, x)
    px = 0.0 if math.isinf(px) else px  # u = 0: the cusp's log singularity is integrable; a stage sample takes slope 0
    return (x - pval) * (1.0 - px) - v * px


def script_p(params: ModelParams, x: float, p: float) -> float:
    """The drive kernel P(x, p) = -(2*sqrt(2)/pi) * dE_el/d(loc) at loc = u.

    u = sqrt(2)*(zeta*x + kappa*p) and dE_el/d(loc) is the slope of the
    continuum electronic density (`landscape._slope_kernel`), which
    raises `DomainError` where m = 1 - xi*tanh(u)^2 leaves [-1, 1].  In the
    hypergeometric normalization this is the originally written form
    (4*sqrt(2)*g/pi) * sinh(u)/(xi*(q+1/q)) * (E(m) - xi*(E(m)-F(m))/(m*cosh(u)^2)).
    """
    return _drive(params)(x, p)[0]


def script_p_x(params: ModelParams, x: float, p: float) -> float:
    """Partial dP/dx at fixed p, -(4 zeta/pi) d2E_el/d(loc)2 at loc = u; +inf at u = 0."""
    return _drive(params)(x, p)[1]


def ode_rhs(params: ModelParams, state: PhaseState) -> tuple[float, float]:
    """(dx/dt, dv/dt) of the restricted oscillator, with P evaluated at p = x."""
    return state.v, _acceleration(_drive(params), state.x, state.v)


def fixed_point_branches(params: ModelParams, x: float, tol: float = 1e-8) -> tuple[bool, bool]:
    """Which stationarity branch a v = 0 fixed point satisfies.

    Returns (x equals the kernel value, kernel slope equals one); a point
    with both False is not a fixed point of the restricted oscillator.
    """
    pval, px = _drive(params)(x, x)
    return abs(x - pval) < tol, abs(px - 1.0) < tol


def integrate(
    params: ModelParams,
    initial: PhaseState,
    dt: float,
    steps: int,
    settle_tol: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the restricted equation of motion.

    Aborts (with a recorded termination reason) if the state leaves the
    elliptic domain or becomes non-finite.  With `settle_tol` set, stops
    early once both |v| and |dv/dt| fall below the tolerance.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    drive = _drive(params)
    x, v, t = initial.x, initial.v, initial.t
    traj = Trajectory(t=[t], x=[x], v=[v])
    for _ in range(steps):
        try:
            a1 = _acceleration(drive, x, v)
            v2 = v + 0.5 * dt * a1
            a2 = _acceleration(drive, x + 0.5 * dt * v, v2)
            v3 = v + 0.5 * dt * a2
            a3 = _acceleration(drive, x + 0.5 * dt * v2, v3)
            v4 = v + dt * a3
            a4 = _acceleration(drive, x + dt * v3, v4)
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
        if settle_tol is not None and abs(v) < settle_tol and abs(a1) < settle_tol:
            traj.termination = "settled"
            break
    return traj
