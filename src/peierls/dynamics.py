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

from .landscape import DomainError, _electronic_slopes
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
    states: list[PhaseState]
    termination: str = "completed"

    @property
    def final(self) -> PhaseState:
        return self.states[-1]


def _kernel(params: ModelParams, x: float, p: float) -> tuple[float, float]:
    """P(x, p) and its slope dP/dx at fixed p from one `landscape._electronic_slopes` call."""
    zeta, kappa = params.zeta, params.kappa
    d1, d2 = _electronic_slopes(params, math.sqrt(2.0) * (zeta * x + kappa * p))
    # du/dx = sqrt(2) zeta; with zeta = 0 P does not depend on x (and d2 may be -inf)
    return -(2.0 * math.sqrt(2.0) / math.pi) * d1, (-(4.0 * zeta / math.pi) * d2 if zeta else 0.0)


def script_p(params: ModelParams, x: float, p: float) -> float:
    """The drive kernel P(x, p) = -(2*sqrt(2)/pi) * dE_el/d(loc) at loc = u.

    u = sqrt(2)*(zeta*x + kappa*p) and dE_el/d(loc) is the slope of the
    continuum electronic density (`landscape._electronic_slopes`), which
    raises `DomainError` where m = 1 - xi*tanh(u)^2 leaves [-1, 1].  In the
    hypergeometric normalization this is the originally written form
    (4*sqrt(2)*g/pi) * sinh(u)/(xi*(q+1/q)) * (E(m) - xi*(E(m)-F(m))/(m*cosh(u)^2)).
    """
    return _kernel(params, x, p)[0]


def script_p_x(params: ModelParams, x: float, p: float) -> float:
    """Partial dP/dx at fixed p, -(4 zeta/pi) d2E_el/d(loc)2 at loc = u; +inf at u = 0."""
    return _kernel(params, x, p)[1]


def ode_rhs(params: ModelParams, state: PhaseState) -> tuple[float, float]:
    """(dx/dt, dv/dt) of the restricted oscillator, with P evaluated at p = x."""
    x, v = state.x, state.v
    pval, px = _kernel(params, x, x)
    if math.isinf(px):  # u = 0: the cusp's log singularity is integrable; a stage sample takes slope 0 there
        px = 0.0
    return v, (x - pval) * (1.0 - px) - v * px


def fixed_point_branches(params: ModelParams, x: float, tol: float = 1e-8) -> tuple[bool, bool]:
    """Which stationarity branch a v = 0 fixed point satisfies.

    Returns (x equals the kernel value, kernel slope equals one); a point
    with both False is not a fixed point of the restricted oscillator.
    """
    pval, px = _kernel(params, x, x)
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
    x, v, t = initial.x, initial.v, initial.t
    states = [PhaseState(x, v, t)]
    termination = "completed"
    for _ in range(steps):
        try:
            k1x, k1v = ode_rhs(params, PhaseState(x, v, t))
            k2x, k2v = ode_rhs(params, PhaseState(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, t))
            k3x, k3v = ode_rhs(params, PhaseState(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, t))
            k4x, k4v = ode_rhs(params, PhaseState(x + dt * k3x, v + dt * k3v, t))
        except DomainError:
            termination = "domain-exit"
            break
        x += dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        t += dt
        if not (math.isfinite(x) and math.isfinite(v)):
            termination = "non-finite"
            break
        states.append(PhaseState(x, v, t))
        if settle_tol is not None and abs(v) < settle_tol and abs(k1v) < settle_tol:
            termination = "settled"
            break
    return Trajectory(states=states, termination=termination)
