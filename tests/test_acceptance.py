"""Acceptance suite: nine end-to-end criteria at fixed tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output) and then asserts.  Criterion 4 measures its
convergence order at q = 1.5, where the finite-L error is exactly C / L;
see the criterion-4 docstring.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe as elliptic_e, ellipk as elliptic_k

from peierls.algebra import mode_eigenvalues, mode_energies, xi
from peierls.cli import main
from peierls.config import load_config, reference_config_path
from peierls.dynamics import PhaseState, integrate
from peierls.kink import KinkConfiguration, kink_spectrum, propagate_kink
from peierls.landscape import (
    _density_derivatives,
    electronic_density_modesum,
    energy_densities,
    find_critical_points,
)
from peierls.model import (
    CoherentAmplitude,
    ModelParams,
    effective_coupling,
    ring_spectrum,
    staggered_bonds,
    state_location,
)
from peierls.validate import _difference_block, _zero_subspace


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def g_one_params(big_l=64):
    return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l)


def amplitude(loc):
    return CoherentAmplitude(loc / (2.0 * math.sqrt(2.0)), 0.0)


def test_criterion_1_special_functions():
    """Elliptic integrals vs adaptive quadrature and the Legendre relation.

    QUADPACK here and the periodic trapezoid rule in `peierls.validate` are two independent oracles."""
    start = time.perf_counter()
    worst = 0.0
    for m in np.arange(-1.0, 0.9901, 0.25).tolist() + [0.99]:
        oracle = quad(lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, math.pi / 2, epsabs=1e-13)[0]
        worst = max(worst, abs(elliptic_e(m) - oracle))
    for m in np.arange(-1.0, 0.9501, 0.25).tolist() + [0.95]:
        oracle = quad(lambda th: 1.0 / math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, math.pi / 2, epsabs=1e-13)[0]
        worst = max(worst, abs(elliptic_k(m) - oracle))
    legendre = 0.0
    for m in np.linspace(0.04, 0.96, 20):
        lhs = (
            elliptic_e(m) * elliptic_k(1.0 - m)
            + elliptic_e(1.0 - m) * elliptic_k(m)
            - elliptic_k(m) * elliptic_k(1.0 - m)
        )
        legendre = max(legendre, abs(lhs - math.pi / 2.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and legendre <= 1e-10 and elapsed < 1.0
    report(1, ok, f"quadrature dev {worst:.2e}, Legendre dev {legendre:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert legendre <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_spectral_oracle():
    """Real-space spectrum vs the bands 2 hypot(eps, delta); proportionality to mode values."""
    start = time.perf_counter()
    p = g_one_params(big_l=64)
    z = amplitude(0.4)
    assert state_location(p, z) == pytest.approx(0.4, rel=1e-15)
    assert effective_coupling(p) == pytest.approx(1.0, rel=1e-15)
    real_space = ring_spectrum(staggered_bonds(p, z))
    mode_vals = []
    for k in range(p.big_l):
        m = mode_energies(p, z, k)
        r = math.hypot(m.epsilon, m.delta)
        mode_vals.extend((-r, r))
    modes = np.sort(mode_vals)
    spectral_dev = float(np.max(np.abs(real_space - 2.0 * modes)))  # the bands are 2 hypot(eps, delta)
    ratios = real_space / modes
    const = float(np.median(ratios))
    spread = float(np.max(np.abs(ratios / const - 1.0)))
    elapsed = time.perf_counter() - start
    ok = spectral_dev <= 1e-9 and spread <= 1e-9 and elapsed < 1.0
    report(2, ok, f"spectral dev {spectral_dev:.2e}, constant {const}, spread {spread:.2e}, {elapsed:.2f}s")
    assert spectral_dev <= 1e-9
    assert spread <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_deformed_limit_continuity():
    """Mode eigenvalues continuous across q = 1."""
    z = amplitude(0.4)
    worst = 0.0
    p1 = ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=64, q=1.0)
    p2 = ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=64, q=1.0 + 1e-7)
    for k in range(64):
        a = mode_eigenvalues(p1, mode_energies(p1, z, k))
        b = mode_eigenvalues(p2, mode_energies(p2, z, k))
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    ok = worst < 1e-6
    report(3, ok, f"max eigenvalue shift {worst:.2e} under q -> 1 + 1e-7")
    assert worst < 1e-6


def test_criterion_4_modesum_convergence():
    """Mode-sum vs continuum: fitted order in [0.8, 1.2] over L = 64..512
    and relative agreement <= 2e-3 at L = 4096.

    The order is measured at q = 1.5, w = 0 (g = 1, loc = 0.4), where the
    finite-L error is algebraic.  There the trace of the deformed 2x2 is
    proportional to cos(theta), and sum_{k<L} cos(pi k / L) = 1 exactly,
    so the error is C / L plus exponentially small terms with
    C = g cosh(loc) (q - 1/q) q^(2w) xi_q / 2; L * err is asserted to equal
    C, which ties the 1/L term to the trace shift rather than to a grid
    defect.  The fit is against L, so the order is minus the fitted slope.

    At q = 1 the lower eigenvalue is a smooth pi-periodic function of
    theta, so the mode sum converges exponentially: its error is asserted
    to be at roundoff at every L in 64..512, where no power law can be
    fitted.
    """
    start = time.perf_counter()
    loc = 0.4
    ls = [64, 128, 256, 512]
    z = amplitude(loc)

    def error(p):
        return abs(electronic_density_modesum(p, z) - float(energy_densities(p, z.re, z.im)["e_electronic"]))

    def deformed(big_l):
        return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l, q=1.5, w=0.0)

    errors = [error(deformed(big_l)) for big_l in ls]
    order = -float(np.polyfit(np.log(ls), np.log(errors), 1)[0])
    p = deformed(4096)
    c = 0.5 * effective_coupling(p) * math.cosh(loc) * (p.q - 1.0 / p.q) * p.q ** (2 * p.w) * xi(p.q, p.w)
    c_dev = max(abs(big_l * e / c - 1.0) for big_l, e in zip(ls, errors))
    rel = error(p) / abs(float(energy_densities(p, z.re, z.im)["e_electronic"]))
    undeformed = max(error(g_one_params(big_l=big_l)) for big_l in ls)
    elapsed = time.perf_counter() - start
    ok = 0.8 <= order <= 1.2 and c_dev <= 1e-9 and rel <= 2e-3 and undeformed <= 1e-14 and elapsed < 10.0
    report(
        4,
        ok,
        f"q=1.5 order {order:.3f} (errors {[f'{e:.2e}' for e in errors]}), L*err/C - 1 {c_dev:.1e}, "
        f"L=4096 rel {rel:.2e}; q=1 max error {undeformed:.1e}, {elapsed:.2f}s",
    )
    assert rel <= 2e-3
    assert elapsed < 10.0
    assert 0.8 <= order <= 1.2
    assert c_dev <= 1e-9
    assert undeformed <= 1e-14


def test_criterion_5_double_well():
    """Reference double-well: origin saddle plus two degenerate mirror
    minima at q = 1.5; no off-origin minima at q = 1."""
    start = time.perf_counter()
    cfg = load_config(reference_config_path("double_well"))
    p = cfg.model_params()
    assert p.q == 1.5 and 1.0 < xi(p.q, p.w) < 2.0
    points = find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    saddles = [c for c in points if c.kind == "saddle"]
    minima = [c for c in points if c.kind == "minimum"]
    structure_ok = (
        len(points) == 3
        and len(saddles) == 1
        and math.hypot(*saddles[0].location) < 1e-6
        and saddles[0].hessian_eigs[0] < 0 < saddles[0].hessian_eigs[1]
        and len(minima) == 2
    )
    degeneracy = mirror = math.inf
    if structure_ok:
        e = [float(energy_densities(p, *m.location)["e_total"]) for m in minima]
        degeneracy = abs(e[0] - e[1])
        mirror = max(
            abs(minima[0].location[0] + minima[1].location[0]),
            abs(minima[0].location[1] + minima[1].location[1]),
        )
    p1 = ModelParams(t=p.t, zeta=p.zeta, kappa=p.kappa, big_l=p.big_l, q=1.0, w=p.w)
    points_q1 = find_critical_points(p1, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    q1_clean = all(c.kind != "minimum" for c in points_q1)
    elapsed = time.perf_counter() - start
    ok = structure_ok and degeneracy < 1e-10 and mirror < 1e-8 and q1_clean and elapsed < 30.0
    report(
        5,
        ok,
        f"saddle+2 minima: {structure_ok}, degeneracy {degeneracy:.1e}, mirror {mirror:.1e}, "
        f"q=1 minima absent: {q1_clean}, {elapsed:.2f}s",
    )
    assert structure_ok
    assert degeneracy < 1e-10
    assert mirror < 1e-8
    assert q1_clean
    assert elapsed < 30.0


def test_criterion_6_gradient_correctness():
    """Analytic vs finite-difference gradient on 50 random in-domain points."""
    cfg = load_config(reference_config_path("double_well"))
    p = cfg.model_params()
    rng = np.random.default_rng(20260823)
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 50:
        re, im = rng.uniform(-0.1, 0.1, size=2)
        grad = np.array(_density_derivatives(p)(re, im)[:2])
        e = energy_densities(p, [re + h, re - h, re, re], [im, im, im + h, im - h])["e_total"]
        fd = np.array([(e[0] - e[1]) / (2 * h), (e[2] - e[3]) / (2 * h)])
        worst = max(worst, float(np.linalg.norm(grad - fd)) / max(1.0, float(np.linalg.norm(fd))))
        checked += 1
    ok = worst <= 1e-6
    report(6, ok, f"max relative gradient deviation {worst:.2e} over 50 points")
    assert worst <= 1e-6


def test_criterion_7_dynamics():
    """RK4 self-convergence order >= 3.8 and damped settling at a minimum."""
    start = time.perf_counter()
    cfg = load_config(reference_config_path("kink_dynamics"))
    p = cfg.model_params()
    t_final = 4.0
    base_dt = 0.2
    ref = integrate(p, PhaseState(0.01, 0.0), base_dt / 256.0, int(t_final / (base_dt / 256.0)))
    dts = [base_dt / 2**k for k in range(5)]
    errors = []
    for dt in dts:
        traj = integrate(p, PhaseState(0.01, 0.0), dt, int(round(t_final / dt)))
        errors.append(abs(traj.final.x - ref.final.x) + abs(traj.final.v - ref.final.v))
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    traj = integrate(p, PhaseState(cfg.x0, cfg.v0), cfg.dt, cfg.steps, settle_tol=cfg.settle_tol)
    minima = [
        c
        for c in find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
        if c.kind == "minimum"
    ]
    x_targets = [2.0 * c.location[0] for c in minima]
    x_dev = min(abs(traj.final.x - x) for x in x_targets) if x_targets else math.inf
    elapsed = time.perf_counter() - start
    ok = order >= 3.8 and x_dev < 1e-3 and abs(traj.final.v) < 1e-6 and elapsed < 30.0
    report(
        7,
        ok,
        f"RK4 order {order:.2f}, settle |x - x_min| {x_dev:.2e}, |v| {abs(traj.final.v):.1e}, {elapsed:.2f}s",
    )
    assert order >= 3.8
    assert x_dev < 1e-3
    assert abs(traj.final.v) < 1e-6
    assert elapsed < 30.0


def test_criterion_8_kink():
    """Kink spectrum oracle, difference block, unitarity, propagation."""
    start = time.perf_counter()
    cfg = load_config(reference_config_path("kink_dynamics"))
    p = cfg.model_params()
    z = CoherentAmplitude(cfg.z_re, cfg.z_im)
    n_sites = 200
    cfg0 = KinkConfiguration(n=100, z=CoherentAmplitude(0.0, 0.0), n_sites=n_sites)
    evals, _, _ = kink_spectrum(p, cfg0)
    g = effective_coupling(p)
    oracle = np.sort(-2.0 * g * np.cos(np.pi * np.arange(1, n_sites + 1) / (n_sites + 1)))
    spec_dev = float(np.max(np.abs(evals - oracle)))

    kcfg = KinkConfiguration(n=100, z=z, n_sites=n_sites)
    block = _difference_block(p, kcfg)
    om = block[1, 2]
    eigs = np.sort(np.linalg.eigvalsh(block))
    block_dev = float(
        np.max(np.abs(eigs - np.sort([-math.sqrt(2.0) * abs(om), 0.0, math.sqrt(2.0) * abs(om)])))
    )
    dim, basis = _zero_subspace(block, g)
    kernel_dev = (
        abs(1.0 - abs(float(basis[0] @ (np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)))))
        if dim == 1
        else math.inf
    )

    unit = propagate_kink(p, z, 20, dt=0.5, steps=1000, n_sites=40)
    unitarity = unit.orthonormality_error

    traj = propagate_kink(
        p,
        z,
        cfg.kink_site,
        cfg.kink_dt,
        cfg.kink_steps,
        n_sites=cfg.n_sites,
        initial_anchor_offset=cfg.anchor_offset,
    )
    positions = np.array(traj.positions)
    energies = np.array(traj.energies)
    advance = float(np.max(np.abs(positions - positions[0])))
    drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    elapsed = time.perf_counter() - start
    ok = (
        spec_dev <= 1e-10
        and block_dev <= 1e-10
        and kernel_dev <= 1e-10
        and unitarity < 1e-10
        and advance >= 1.0
        and drift < 1e-3
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"spectrum dev {spec_dev:.1e}, block dev {block_dev:.1e}, kernel dev {kernel_dev:.1e}, "
        f"unitarity {unitarity:.1e}/1e3 steps, advance {advance:.2f} sites, drift {drift:.1e}, {elapsed:.1f}s",
    )
    assert spec_dev <= 1e-10
    assert block_dev <= 1e-10
    assert kernel_dev <= 1e-10
    assert unitarity < 1e-10
    assert advance >= 1.0
    assert drift < 1e-3
    assert elapsed < 120.0


def test_criterion_9_determinism(tmp_path):
    """Byte-identical landscape CSV across reruns and worker counts."""
    args = ["landscape", "--reference", "double_well"]
    assert main(args + ["-o", str(tmp_path / "a"), "--workers", "1"]) == 0
    assert main(args + ["-o", str(tmp_path / "b"), "--workers", "1"]) == 0
    assert main(args + ["-o", str(tmp_path / "c"), "--workers", "4"]) == 0
    csv_a = (tmp_path / "a" / "landscape.csv").read_bytes()
    csv_b = (tmp_path / "b" / "landscape.csv").read_bytes()
    csv_c = (tmp_path / "c" / "landscape.csv").read_bytes()
    ok = csv_a == csv_b == csv_c
    report(9, ok, f"rerun identical: {csv_a == csv_b}, worker-count invariant: {csv_a == csv_c}")
    assert csv_a == csv_b
    assert csv_a == csv_c
