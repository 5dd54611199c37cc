"""Restricted phase-plane dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peierls.dynamics
from peierls.config import load_config, reference_config_path
from peierls.dynamics import PhaseState, drive_kernel, integrate
from peierls.landscape import DomainError, _slope_kernel, find_critical_points
from peierls.model import ModelParams


def reference_config():
    return load_config(reference_config_path("kink_dynamics"))


def reference_params():
    return reference_config().model_params()


def ode_rhs(params, state):
    """(dx/dt, dv/dt) = (v, (x - P)(1 - P_x) - v P_x) of the restricted oscillator, P at p = x;
    a cusp sample (P_x = inf at u = 0) takes slope 0."""
    pval, px = drive_kernel(params)(state.x, state.x)
    px = 0.0 if math.isinf(px) else px
    return state.v, (state.x - pval) * (1.0 - px) - state.v * px


# attractor x-coordinate of the shipped dynamics reference (unit-slope
# branch of the kernel, solved independently during config construction)
X_ATTRACTOR = 0.05233800864865468


def test_landscape_minimum_is_the_attractor_and_the_kink_amplitude():
    # one coherent-state energy: the per-cell landscape minimum z, the oscillator
    # attractor x = 2 Re z = 2 Im z on p = x, and the kink chain's frozen z coincide
    cfg = reference_config()
    points = find_critical_points(cfg.model_params(), cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    ((re, im),) = [c.location for c in points if c.kind == "minimum" and c.location[0] > 0]
    for x in (2.0 * re, 2.0 * im, 2.0 * cfg.z_re, 2.0 * cfg.z_im):
        assert abs(x - X_ATTRACTOR) < 1e-12


def test_kernel_vanishes_at_origin():
    assert drive_kernel(reference_params())(0.0, 0.0)[0] == 0.0


@given(st.floats(min_value=-0.4, max_value=0.4), st.floats(min_value=-0.4, max_value=0.4))
def test_kernel_odd(x, p):
    drive = drive_kernel(reference_params())
    assert drive(-x, -p)[0] == pytest.approx(-drive(x, p)[0], abs=1e-12)


def test_kernel_is_scaled_landscape_slope():
    # P(x, p) = -(2 sqrt(2)/pi) * dE/d(loc) at loc = sqrt(2)(zeta x + kappa p)
    params = reference_params()
    for x, p in ((0.05, 0.02), (0.2, -0.1), (-0.3, 0.25)):
        loc = math.sqrt(2.0) * (params.zeta * x + params.kappa * p)
        expected = -(2.0 * math.sqrt(2.0) / math.pi) * _slope_kernel(params)(loc)[0]
        assert drive_kernel(params)(x, p)[0] == pytest.approx(expected, rel=1e-12)


def test_kernel_domain_error():
    params = ModelParams(t=0.01, zeta=1.0, kappa=0.0, big_l=8, q=1.5, w=-3.0)  # xi > 2
    with pytest.raises(DomainError):
        drive_kernel(params)(5.0, 5.0)


def test_rhs_decoupled_limit():
    p = ModelParams(t=1.0, zeta=0.0, kappa=0.0, big_l=8)
    dx, dv = ode_rhs(p, PhaseState(x=0.3, v=0.1))
    assert dx == 0.1
    assert dv == pytest.approx(0.3, abs=1e-12)


def test_rhs_fixed_point_condition():
    params = reference_params()
    x = X_ATTRACTOR
    _, dv = ode_rhs(params, PhaseState(x=x, v=0.0))
    assert abs(dv) < 1e-8
    pval, px = drive_kernel(params)(x, x)
    assert abs(px - 1.0) < 1e-6 and not abs(x - pval) < 1e-6  # the unit-slope branch, off the kernel


def test_origin_is_fixed_point_on_kernel_branch():
    params = reference_params()
    pval, _ = drive_kernel(params)(0.0, 0.0)
    assert abs(pval) < 1e-8
    traj = integrate(params, PhaseState(0.0, 0.0), dt=0.01, steps=100)
    assert abs(traj.final.x) < 1e-12 and abs(traj.final.v) < 1e-12


def test_kernel_slope_matches_central_difference():
    drive = drive_kernel(reference_params())
    for x, p in ((0.05, 0.05), (0.2, -0.1), (-0.3, 0.25), (1e-4, 1e-4)):
        h = 1e-7 * max(abs(x), 1e-3)
        fd = (drive(x + h, p)[0] - drive(x - h, p)[0]) / (2.0 * h)
        assert drive(x, p)[1] == pytest.approx(fd, rel=1e-7)
    assert drive(0.0, 0.0)[1] == math.inf  # the Delta^2 ln Delta cusp


def test_integrate_evaluates_the_kernel_once_per_rk4_stage(monkeypatch):
    params = reference_params()
    builds, calls = [], []
    kernel = peierls.dynamics._slope_kernel

    def counted_kernel(params):
        builds.append(params)
        slopes = kernel(params)
        return lambda loc: calls.append(loc) or slopes(loc)

    monkeypatch.setattr(peierls.dynamics, "_slope_kernel", counted_kernel)
    traj = integrate(params, PhaseState(0.03, 0.0), dt=0.01, steps=25)
    assert len(traj.states) == 26 and len(calls) == 4 * 25 and len(builds) == 1


@pytest.mark.parametrize("x, v", [(0.03, 0.0), (-0.05, 0.02), (0.0, 0.1)])
def test_one_integrate_step_is_a_hand_rk4_step_of_ode_rhs(x, v):
    # bit for bit: the float stages of `integrate` are the right-hand side above;
    # (0, 0.1) samples the cusp at loc = 0 in its first stage
    params, dt = reference_params(), 0.01
    k1 = ode_rhs(params, PhaseState(x, v))
    k2 = ode_rhs(params, PhaseState(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1]))
    k3 = ode_rhs(params, PhaseState(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1]))
    k4 = ode_rhs(params, PhaseState(x + dt * k3[0], v + dt * k3[1]))
    traj = integrate(params, PhaseState(x, v), dt, steps=1)
    assert traj.states == [PhaseState(x, v), traj.final]
    assert traj.final.x == x + dt * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
    assert traj.final.v == v + dt * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
    assert traj.final.t == dt


def hand_rk4(params, x, v, dt, steps, settle_tol=0.0):
    """`integrate`'s loop written out on `ode_rhs`: the (t, x, v) lists, the termination and the last k1 dv/dt."""
    t, ts, xs, vs, dv_dt = 0.0, [0.0], [x], [v], None
    for _ in range(steps):
        try:
            k1 = ode_rhs(params, PhaseState(x, v))
            k2 = ode_rhs(params, PhaseState(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1]))
            k3 = ode_rhs(params, PhaseState(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1]))
            k4 = ode_rhs(params, PhaseState(x + dt * k3[0], v + dt * k3[1]))
        except DomainError:
            return ts, xs, vs, "domain-exit", dv_dt
        except (OverflowError, ValueError):
            return ts, xs, vs, "non-finite", dv_dt
        x += dt * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
        v += dt * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        t += dt
        if not (math.isfinite(x) and math.isfinite(v)):
            return ts, xs, vs, "non-finite", dv_dt
        ts.append(t)
        xs.append(x)
        vs.append(v)
        dv_dt = k1[1]
        if abs(v) < settle_tol and abs(dv_dt) < settle_tol:
            return ts, xs, vs, "settled", dv_dt
    return ts, xs, vs, "completed", dv_dt


@pytest.mark.parametrize("case", ["reference", "short", "domain-exit", "cusp", "run-away"])
def test_whole_integrate_run_is_a_hand_rk4_loop_of_ode_rhs(case):
    # bit for bit over every step: `integrate`'s stage closure and `drive_kernel` (inside
    # `ode_rhs`) must stay one formula, with the same factors, operands and order
    cfg = reference_config()
    params, dt, steps, settle_tol = cfg.model_params(), cfg.dt, cfg.steps, cfg.settle_tol
    x, v, expected = {
        "reference": (cfg.x0, cfg.v0, "settled"),
        "short": (0.03, 0.0, "completed"),
        "domain-exit": (0.4, 2.0, "domain-exit"),
        "cusp": (0.0, 0.1, "settled"),  # the first stage samples the cusp at u = 0
        "run-away": (0.3, 0.0, "non-finite"),  # on double_well a stage's cosh overflows after ~1,000 steps
    }[case]
    if case == "short":
        steps, settle_tol = 60, 0.0
    elif case == "domain-exit":
        params, dt, steps, settle_tol = ModelParams(t=0.01, zeta=1.0, kappa=0.0, big_l=8, q=1.5, w=-3.0), 0.05, 2000, 0.0
    elif case == "run-away":
        params = load_config(reference_config_path("double_well")).model_params()
    traj = integrate(params, PhaseState(x, v), dt, steps, settle_tol=settle_tol)
    ts, xs, vs, termination, dv_dt = hand_rk4(params, x, v, dt, steps, settle_tol)
    assert termination == traj.termination == expected
    assert (traj.t, traj.x, traj.v, traj.dv_dt) == (ts, xs, vs, dv_dt)
    assert len(ts) > 2


@pytest.mark.parametrize("x0", [150.0, 600.0], ids=["non-finite-m", "cosh-overflow"])
def test_run_away_within_the_first_step_is_non_finite(x0):
    # the first stage's slope sends a later stage past cosh's range (or to a NaN location): no step completes
    traj = integrate(reference_params(), PhaseState(x0, 0.0), dt=0.01, steps=10)
    assert traj.termination == "non-finite"
    assert traj.states == [PhaseState(x0, 0.0)]


def test_start_on_cusp_with_velocity_settles():
    # the first RK4 stage samples u = 0 exactly, where the slope is infinite
    cfg = reference_config()
    traj = integrate(cfg.model_params(), PhaseState(0.0, 0.1), cfg.dt, cfg.steps, settle_tol=cfg.settle_tol)
    assert traj.termination == "settled"
    assert abs(traj.final.x - X_ATTRACTOR) < 1e-3


def test_trajectory_parity():
    params = reference_params()
    a = integrate(params, PhaseState(0.02, 0.01), dt=0.01, steps=200)
    b = integrate(params, PhaseState(-0.02, -0.01), dt=0.01, steps=200)
    for sa, sb in zip(a.states, b.states):
        assert sa.x == pytest.approx(-sb.x, abs=1e-12)
        assert sa.v == pytest.approx(-sb.v, abs=1e-12)


def test_rk4_self_convergence():
    params = reference_params()
    t_final = 4.0
    base_dt = 0.2
    ref = integrate(params, PhaseState(0.01, 0.0), base_dt / 256.0, int(t_final / (base_dt / 256.0)))
    errors = []
    dts = [base_dt / 2**k for k in range(5)]
    for dt in dts:
        traj = integrate(params, PhaseState(0.01, 0.0), dt, int(round(t_final / dt)))
        errors.append(abs(traj.final.x - ref.final.x) + abs(traj.final.v - ref.final.v))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope >= 3.8


def test_settles_onto_attractor():
    cfg = reference_config()
    traj = integrate(
        cfg.model_params(),
        PhaseState(cfg.x0, cfg.v0),
        cfg.dt,
        cfg.steps,
        settle_tol=cfg.settle_tol,
    )
    assert traj.termination == "settled"
    assert abs(traj.final.x - X_ATTRACTOR) < 1e-3
    assert abs(traj.final.v) < 1e-6


def test_domain_exit_recorded():
    params = ModelParams(t=0.01, zeta=1.0, kappa=0.0, big_l=8, q=1.5, w=-3.0)
    traj = integrate(params, PhaseState(0.4, 2.0), dt=0.05, steps=2000)
    assert traj.termination == "domain-exit"
    assert all(math.isfinite(s.x) and math.isfinite(s.v) for s in traj.states)
