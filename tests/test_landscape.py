"""Energy landscape: continuum density, gradients, grids, critical points."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import peierls.landscape
from peierls.algebra import xi
from peierls.config import load_config, reference_config_path
from peierls.landscape import (
    DomainError,
    _classify,
    _gradient_and_hessian,
    _slope_kernel,
    electronic_density_modesum,
    energy_densities,
    find_critical_points,
    landscape_grid,
    phonon_density,
)
from peierls.model import CoherentAmplitude, ModelParams, effective_coupling, state_location


def g_one_params(big_l=64, q=1.0, w=0.0):
    return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l, q=q, w=w)


def amplitude(loc, zeta=1.0):
    return CoherentAmplitude(loc / (2.0 * math.sqrt(2.0) * zeta), 0.0)


def domain_limit(params):
    """State-location bound where |m_q| = |1 - xi_q tanh(loc)^2| reaches 1; inf when xi_q <= 2."""
    xq = xi(params.q, params.w)
    return math.inf if xq <= 2.0 else math.atanh(math.sqrt(2.0 / xq))


def double_well_params():
    cfg = load_config(reference_config_path("double_well"))
    return cfg, cfg.model_params()


def electronic(params, z):
    return float(energy_densities(params, z.re, z.im)["e_electronic"])


def total(params, re, im):
    return float(energy_densities(params, re, im)["e_total"])


def gradient(params, z):
    return np.array(_gradient_and_hessian(params, _slope_kernel(params), z.re, z.im)[:2])


def test_phonon_density():
    assert phonon_density(0.3, -0.2) == pytest.approx(2.0 * (4 * 0.09 + 0.04 + 0.75), rel=1e-15)


@given(st.floats(min_value=-0.6, max_value=0.6), st.floats(min_value=-0.6, max_value=0.6))
def test_continuum_density_even(re, im):
    p = ModelParams(t=0.2, zeta=0.8, kappa=0.3, big_l=8, q=1.3, w=-0.5)
    z = CoherentAmplitude(re, im)
    assert electronic(p, z) == pytest.approx(electronic(p, -z), abs=1e-13)


def test_undimerized_continuum_value():
    # at loc = 0: -(2/pi) g E(1) with xi = 1 (q = 1) ... m = 1, E(1) = 1
    p = g_one_params()
    assert electronic(p, CoherentAmplitude(0.0, 0.0)) == pytest.approx(-2.0 / math.pi, rel=1e-14)


def test_dimerization_lowers_electronic_energy():
    p = g_one_params()
    e0 = electronic(p, CoherentAmplitude(0.0, 0.0))
    e1 = electronic(p, amplitude(0.5))
    assert e1 < e0


def test_domain_limit_and_error():
    # xi <= 2: unrestricted
    assert domain_limit(g_one_params(q=1.5, w=-1.0)) == math.inf
    # xi > 2 for w pushing the normalization up
    p = g_one_params(q=1.5, w=-3.0)
    bound = domain_limit(p)
    assert math.isfinite(bound)
    inside, outside = (energy_densities(p, amplitude(f * bound).re, 0.0) for f in (0.99, 1.01))
    assert inside["in_domain"] and math.isfinite(inside["e_electronic"])
    assert not outside["in_domain"] and math.isnan(outside["e_electronic"])


def test_analytic_d_loc_matches_finite_difference():
    p = g_one_params(q=1.5, w=-1.0)
    h = 1e-6
    for loc in (0.05, 0.3, 0.9, -0.4):
        fd = (electronic(p, amplitude(loc + h)) - electronic(p, amplitude(loc - h))) / (2.0 * h)
        assert _slope_kernel(p)(loc)[0] == pytest.approx(fd, rel=1e-6)


def _mpmath_slopes(params, loc):
    """d/d(loc) and d2/d(loc)2 of -p_q cosh(loc) E(1 - xi_q tanh(loc)^2) at 50
    digits, by mpmath's differentiation of the density itself."""
    with mpmath.workdps(50):
        xq = mpmath.mpf(xi(params.q, params.w))
        pref = mpmath.mpf((2.0 / math.pi) * effective_coupling(params) * params.q**params.w)
        density = lambda u: -pref * mpmath.cosh(u) * mpmath.ellipe(1 - xq * mpmath.tanh(u) ** 2)  # noqa: E731
        loc = mpmath.mpf(loc)
        h = abs(loc) * mpmath.mpf("1e-20")
        return float(mpmath.diff(density, loc, 1, h=h)), float(mpmath.diff(density, loc, 2, h=h))


@pytest.mark.parametrize("loc", [1e-12, 1e-9, 1e-7, 1e-6, 1e-4, 0.05, 0.3])
def test_slopes_match_mpmath_at_small_loc(loc):
    # m = 1 - xi tanh^2 rounds towards 1 here; p = xi tanh^2 and K = ellipkm1(p)
    # keep the loc ln(1/loc) term of the slope and the ln(1/loc) of the curvature
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    d1, d2 = _slope_kernel(params)(loc)
    o1, o2 = _mpmath_slopes(params, loc)
    assert d1 == pytest.approx(o1, rel=1e-13)
    assert d2 == pytest.approx(o2, rel=1e-13)
    assert _slope_kernel(params)(-loc)[0] == -d1


@pytest.mark.parametrize("m", [2.4e-3, -2.4e-3, 2.6e-3, -2.6e-3, 0.02, -0.02, -0.3])
def test_slopes_match_mpmath_near_m_zero(m):
    # both sides of the series branch of `special._e_derivatives` (|m| < 2.5e-3)
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    loc = math.atanh(math.sqrt((1.0 - m) / xi(params.q, params.w)))
    d1, d2 = _slope_kernel(params)(loc)
    o1, o2 = _mpmath_slopes(params, loc)
    assert d1 == pytest.approx(o1, rel=1e-13)
    assert d2 == pytest.approx(o2, rel=5e-11)


@given(
    st.sampled_from([(1.5, -1.0), (1.0, 0.0), (1.5, -3.0)]),
    st.floats(min_value=1e-3, max_value=0.95),
    st.sampled_from([1.0, -1.0]),
)
@example((1.5, -1.0), 0.3, 1.0)
def test_curvature_matches_five_point_difference_of_slope(qw, fraction, sign):
    params = g_one_params(q=qw[0], w=qw[1])
    reach = min(3.0, domain_limit(params))  # xi > 2 (w = -3) bounds loc; m < 0 beyond tanh^2 = 1/xi
    loc = sign * fraction * reach
    h = 1e-3 * min(abs(loc), 1.0)
    f = [_slope_kernel(params)(loc + k * h)[0] for k in (-2, -1, 1, 2)]
    fd = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    assert _slope_kernel(params)(loc)[1] == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_origin_slope_zero_and_curvature_minus_infinity():
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    assert _slope_kernel(params)(0.0) == (0.0, -math.inf)
    assert _slope_kernel(params)(1e-9)[1] < _slope_kernel(params)(1e-6)[1] < 0.0
    with pytest.raises(ValueError, match="finite"):
        _slope_kernel(params)(math.nan)


def assert_one_point_matches_array(re, im):
    """One point gives 0-d columns, bit for bit those of the same point inside an array."""
    _, p = double_well_params()
    point = energy_densities(p, re, im)
    row = energy_densities(p, [0.1, re], [0.1, im])
    for column in ("e_phonon", "e_electronic", "e_total", "in_domain"):
        assert point[column].shape == () and point[column] == row[column][1]


@pytest.mark.parametrize(
    "re, im", [(-0.02616900268718804, -0.02616900268718804), (-0.4050677150573715, -0.3190496689261719), (0.0, 0.0)]
)
def test_total_density_scalar_and_array_bitwise(re, im):
    # a scalar ** 2 calls C pow: 0.5025 ulp off numpy's square for Re z = -0.02616900268718804
    # in the phonon density, and one ulp off in tanh(loc)^2 at the second point
    assert_one_point_matches_array(re, im)


@given(st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=-0.5, max_value=0.5))
def test_total_density_scalar_and_array_bitwise_hypothesis(re, im):
    assert_one_point_matches_array(re, im)


def test_total_gradient_matches_finite_difference():
    _, p = double_well_params()
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        re, im = rng.uniform(-0.08, 0.08, size=2)
        z = CoherentAmplitude(re, im)
        grad = gradient(p, z)
        fd = np.array(
            [
                (total(p, re + h, im) - total(p, re - h, im)) / (2 * h),
                (total(p, re, im + h) - total(p, re, im - h)) / (2 * h),
            ]
        )
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize(
    "params, z, expected, tol",
    [
        # phonon paraboloid only: dE/d(re) = 16 re, dE/d(im) = 4 im (per cell)
        (ModelParams(t=1.0, zeta=0.0, kappa=0.0, big_l=8), CoherentAmplitude(0.3, -0.2), (16 * 0.3, 4 * -0.2), 1e-14),
        # the kink_dynamics reference's double-well minimum, to the digits its config carries
        (load_config(reference_config_path("kink_dynamics")).model_params(),
         CoherentAmplitude(0.026169004324320, 0.026169004324320), (0.0, 0.0), 1e-8),
    ],
    ids=["decoupled-is-linear", "zero-at-kink-minimum"],
)
def test_total_gradient_known_values(params, z, expected, tol):
    assert gradient(params, z) == pytest.approx(expected, abs=tol)


@given(st.floats(min_value=-0.05, max_value=0.05), st.floats(min_value=-0.05, max_value=0.05))
def test_total_gradient_odd(re, im):
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    z = CoherentAmplitude(re, im)
    assert gradient(params, -z) == pytest.approx(-gradient(params, z), abs=1e-10)


def test_modesum_approaches_continuum():
    p = g_one_params(big_l=4096)
    z = amplitude(0.4)
    ms = electronic_density_modesum(p, z)
    ct = electronic(p, z)
    assert abs(ms - ct) / abs(ct) < 2e-3


def test_modesum_even_in_location():
    p = g_one_params(big_l=32)
    a = electronic_density_modesum(p, amplitude(0.3))
    b = electronic_density_modesum(p, amplitude(-0.3))
    assert a == pytest.approx(b, abs=1e-13)


def test_grid_single_cell_is_range_center():
    _, p = double_well_params()
    grid = landscape_grid(p, (-0.2, 0.4), (-0.1, 0.3), 1)
    assert len(grid["re"]) == 1
    re, im = float(grid["re"][0]), float(grid["im"][0])
    assert re == pytest.approx(0.1, abs=1e-15)
    assert im == pytest.approx(0.1, abs=1e-15)
    assert grid["e_total"][0] == pytest.approx(total(p, re, im), rel=1e-15)
    assert grid["in_domain"][0]


def test_grid_matches_mpmath_density_cell_by_cell():
    # every cell against -p_q E(m_q) and 2(4 re^2 + im^2 + 3/4) at 30 digits, each factor
    # formed from its definition; measured within 2e-16 relative, asserted within 1e-14
    p = g_one_params(q=1.5, w=-3.0)  # xi > 2, finite domain
    grid = landscape_grid(p, (-0.4, 0.4), (-0.3, 0.3), 9)
    axis_re, axis_im = np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 9)
    assert grid["re"].tolist() == np.repeat(axis_re, 9).tolist()  # re-major
    assert grid["im"].tolist() == np.tile(axis_im, 9).tolist()
    domain = 0
    with mpmath.workdps(30):
        q, w = mpmath.mpf(p.q), mpmath.mpf(p.w)
        xq = 2 * q**-w / (q + 1 / q)
        pref = 2 / mpmath.pi * mpmath.mpf(p.t) * mpmath.exp(mpmath.mpf(p.zeta) ** 2 + mpmath.mpf(p.kappa) ** 2) * q**w
        for i, (re, im) in enumerate(zip(grid["re"].tolist(), grid["im"].tolist())):
            re_mp, im_mp = mpmath.mpf(re), mpmath.mpf(im)
            loc = 2 * mpmath.sqrt(2) * (p.zeta * re_mp + p.kappa * im_mp)
            m = 1 - xq * mpmath.tanh(loc) ** 2
            if abs(m) > 1:
                domain += 1
                assert not grid["in_domain"][i]
                assert all(math.isnan(grid[c][i]) for c in ("e_phonon", "e_electronic", "e_total"))
                continue
            assert grid["in_domain"][i]
            phonon = 2 * (4 * re_mp**2 + im_mp**2 + mpmath.mpf(3) / 4)
            assert grid["e_phonon"][i] == pytest.approx(float(phonon), rel=1e-14, abs=0)
            electronic_mp = -pref * mpmath.cosh(loc) * mpmath.ellipe(m)
            assert grid["e_electronic"][i] == pytest.approx(float(electronic_mp), rel=1e-14, abs=0)
            assert grid["e_total"][i] == grid["e_phonon"][i] + grid["e_electronic"][i]
    assert 0 < domain < 81


def test_grid_domain_sentinel():
    p = g_one_params(q=1.5, w=-3.0)  # xi > 2, finite domain
    grid = landscape_grid(p, (-2.0, 2.0), (-2.0, 2.0), 5)
    in_domain = grid["in_domain"]
    assert in_domain.any() and not in_domain.all()
    assert np.isnan(grid["e_total"][~in_domain]).all()


def test_critical_points_decoupled_limit():
    p = ModelParams(t=1.0, zeta=0.0, kappa=0.0, big_l=8)
    points = find_critical_points(p, [(0.0, 0.0), (0.1, -0.1), (0.2, 0.3)])
    assert len(points) == 1
    assert points[0].kind == "minimum"
    assert math.hypot(*points[0].location) < 1e-10


def test_reference_double_well_structure():
    cfg, p = double_well_params()
    points = find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    saddles = [c for c in points if c.kind == "saddle"]
    minima = [c for c in points if c.kind == "minimum"]
    assert len(points) == 3
    assert len(saddles) == 1 and math.hypot(*saddles[0].location) < 1e-6
    assert saddles[0].hessian_eigs[0] < 0 < saddles[0].hessian_eigs[1]
    assert len(minima) == 2
    e = [total(p, *m.location) for m in minima]
    assert abs(e[0] - e[1]) < 1e-10
    assert abs(minima[0].location[0] + minima[1].location[0]) < 1e-8
    assert abs(minima[0].location[1] + minima[1].location[1]) < 1e-8


def test_origin_saddle_eigenvalues_are_exact():
    # at loc = 0 the curvature along (zeta, kappa) is -inf; across it only
    # the phonons curve: (16 kappa^2 + 4 zeta^2) / (zeta^2 + kappa^2)
    cfg, p = double_well_params()
    points = find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    (saddle,) = [c for c in points if c.kind == "saddle"]
    across = (16.0 * p.kappa**2 + 4.0 * p.zeta**2) / (p.zeta**2 + p.kappa**2)
    assert saddle.location == (0.0, 0.0)
    assert saddle.hessian_eigs == (-math.inf, pytest.approx(across, rel=1e-15))


def test_critical_point_seed_counts():
    cfg, p = double_well_params()
    points = find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    assert points.seeds == {"tried": 17, "converged": 17, "skipped": 0, "deduplicated": 14}
    # w = -3 bounds the domain: a seed beyond it is skipped, max_iter = 1 skips an unconverged one
    wide = g_one_params(q=1.5, w=-3.0)
    far = 1.01 * domain_limit(wide) / (2.0 * math.sqrt(2.0))
    points = find_critical_points(wide, [(0.0, 0.0), (far, 0.0), (0.0, 0.0)])
    assert points.seeds == {"tried": 3, "converged": 2, "skipped": 1, "deduplicated": 1}
    points = find_critical_points(p, [(0.05, 0.05)], max_iter=1)
    assert points == [] and points.seeds == {"tried": 1, "converged": 0, "skipped": 1, "deduplicated": 0}


def test_a_seed_whose_slope_overflows_is_skipped():
    # at Re z = 300 the state location is ~1,500, where cosh(loc) overflows: the seed is skipped
    _, p = double_well_params()
    points = find_critical_points(p, [(300.0, 0.0)])
    assert points == [] and points.seeds == {"tried": 1, "converged": 0, "skipped": 1, "deduplicated": 0}


def test_newton_hessian_reuses_the_gradient_evaluation(monkeypatch):
    # one call of the search's one slope kernel per trial point gives both
    # gradient and Hessian; neither the iteration nor the classification adds any
    cfg, p = double_well_params()
    builds, calls = [], []
    kernel = peierls.landscape._slope_kernel

    def counted_kernel(params):
        builds.append(params)
        slopes = kernel(params)
        return lambda loc: calls.append(loc) or slopes(loc)

    monkeypatch.setattr(peierls.landscape, "_slope_kernel", counted_kernel)
    find_critical_points(p, [(0.1, 0.1)], max_iter=1)
    assert len(builds) == 1 and len(calls) == 2  # the seed, then one full Newton step, accepted
    calls.clear()
    (point,) = find_critical_points(p, [(0.0, 0.0)])
    assert point.kind == "saddle" and len(calls) == 1


def test_reference_minima_vanish_at_q_one():
    cfg, p = double_well_params()
    p1 = ModelParams(t=p.t, zeta=p.zeta, kappa=p.kappa, big_l=p.big_l, q=1.0, w=p.w)
    points = find_critical_points(p1, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    assert all(c.kind != "minimum" for c in points)


@np.errstate(over="ignore")  # at large zeta far seeds' gradient norms overflow to inf, which still orders as a norm
def numpy_critical_points(params, seeds, tol=1e-10, max_iter=200, max_step=None):
    """Oracle for `find_critical_points`: the same damped Newton search on numpy 2-vectors, with
    `np.linalg.solve` for the step, `np.linalg.norm` for the norms and `eigvalsh` for every point.
    Returns (points, seeds) with points as (location, gradient_norm, hessian_eigs, kind) tuples."""
    slopes = _slope_kernel(params)
    found, counts = [], dict.fromkeys(("tried", "converged", "skipped", "deduplicated"), 0)

    def evaluate(pt):
        g_re, g_im, h_rr, h_ri, h_ii = _gradient_and_hessian(params, slopes, float(pt[0]), float(pt[1]))
        return np.array([g_re, g_im]), np.array([[h_rr, h_ri], [h_ri, h_ii]])

    def known(pt):
        return any(np.hypot(pt[0] - loc[0], pt[1] - loc[1]) < 1e-6 for loc, *_ in found)

    for seed in seeds:
        counts["tried"] += 1
        pt = np.array(seed, dtype=float)
        converged = False
        try:
            grad, hess = evaluate(pt)
            for _ in range(max_iter):
                gnorm = float(np.linalg.norm(grad))
                if gnorm < tol or known(pt):
                    converged = True
                    break
                try:
                    step = np.linalg.solve(hess, -grad) if np.isfinite(hess).all() else -grad
                except np.linalg.LinAlgError:
                    step = -grad
                if max_step is not None:
                    slen = float(np.linalg.norm(step))
                    if slen > max_step:
                        step *= max_step / slen
                lam = 1.0
                for _ in range(40):
                    trial = pt + lam * step
                    try:
                        gt, ht = evaluate(trial)
                    except (DomainError, OverflowError):
                        lam *= 0.5
                        continue
                    if np.linalg.norm(gt) < gnorm:
                        pt, grad, hess = trial, gt, ht
                        break
                    lam *= 0.5
                else:
                    break
        except (DomainError, OverflowError):
            pass
        if not converged:
            counts["skipped"] += 1
            continue
        counts["converged"] += 1
        if known(pt):
            counts["deduplicated"] += 1
            continue
        if np.isfinite(hess).all():
            eigs = np.linalg.eigvalsh(hess)
        else:
            zeta2, kappa2 = params.zeta**2, params.kappa**2
            eigs = np.array([-math.inf, (16.0 * kappa2 + 4.0 * zeta2) / (zeta2 + kappa2)])
        found.append(((float(pt[0]), float(pt[1])), float(np.linalg.norm(grad)), tuple(eigs.tolist()), _classify(eigs)))
    return found, counts


def newton_reach(z, gradient_norm, eigs):
    """How far a Newton point z may sit from its root: |grad| / min |eig|.  |grad| is the computed
    norm plus the rounding of the phonon term (16 Re z, 4 Im z), which the electronic term cancels
    at the root, so a gradient that rounds to 0.0 can still be eps times that term."""
    phonon = max(16 * abs(z[0]), 4 * abs(z[1]))
    return (gradient_norm + sys.float_info.epsilon * phonon) / min(map(abs, eigs))


def assert_matches_numpy_oracle(params, seeds, tol, max_step):
    points = find_critical_points(params, seeds, tol=tol, max_step=max_step)
    oracle, counts = numpy_critical_points(params, seeds, tol=tol, max_step=max_step)
    assert points.seeds == counts
    assert [c.kind for c in points] == [kind for *_, kind in oracle]
    for c, (location, gradient_norm, eigs, _) in zip(points, oracle):
        # the two locations differ by at most the sum of their reaches, plus a few ulps of the coordinates
        bound = (newton_reach(c.location, c.gradient_norm, eigs) + newton_reach(location, gradient_norm, eigs)
                 + 4 * math.ulp(max(map(abs, location))))
        assert math.dist(c.location, location) <= bound
        assert c.hessian_eigs == pytest.approx(eigs, rel=1e-12, abs=0)
        assert c.gradient_norm < tol and gradient_norm < tol


@pytest.mark.parametrize("reference", ["double_well", "kink_dynamics"])
@pytest.mark.parametrize("angles", [8, 64])
def test_newton_matches_numpy_oracle_on_references(reference, angles):
    cfg = load_config(reference_config_path(reference), {"seed_angles": angles})
    assert_matches_numpy_oracle(cfg.model_params(), cfg.seeds(), cfg.newton_tol, cfg.max_step)


@settings(max_examples=40, deadline=None)
@given(
    zeta=st.floats(min_value=0.5, max_value=2.5),
    kappa=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=1.0, max_value=2.0),
    w=st.floats(min_value=-2.0, max_value=0.0),
)
@example(zeta=1.5354912935352618, kappa=0.8250418749670223, q=1.53125, w=-0.21875)  # locations 1.05e-15 apart
@example(zeta=1.485075671646169, kappa=0.7460097097661532, q=1.0, w=0.0)  # 3.88e-17 apart, gradients 0.0
def test_newton_matches_numpy_oracle_across_parameters(zeta, kappa, q, w):
    cfg, p = double_well_params()
    params = ModelParams(t=p.t, zeta=zeta, kappa=kappa, big_l=p.big_l, q=q, w=w)
    assert_matches_numpy_oracle(params, cfg.seeds(), cfg.newton_tol, cfg.max_step)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=0.005, max_value=1.5),
    zeta=st.floats(min_value=0.5, max_value=2.5),
    kappa=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=1.0, max_value=2.0),
    w=st.floats(min_value=-2.0, max_value=0.0),
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=-0.5, max_value=0.5),
)
@example(t=1.0, zeta=0.5, kappa=0.0, q=1.0, w=0.0, re=1e-9, im=0.0)  # next to the cusp
@example(t=0.005, zeta=2.5, kappa=1.0, q=2.0, w=-2.0, re=0.0, im=0.0)  # loc = 0: the across value
def test_larger_hessian_eigenvalue_lies_between_the_phonon_curvatures(t, zeta, kappa, q, w, re, im):
    # diag(16, 4) plus 8 d2E_el/d(loc)2 (zeta, kappa)^T (zeta, kappa), with d2E_el/d(loc)2 <= 0:
    # by interlacing the larger eigenvalue lies in [4, 16], so no critical point is a maximum
    params = ModelParams(t=t, zeta=zeta, kappa=kappa, q=q, w=w)
    try:
        _, _, h_rr, h_ri, h_ii = _gradient_and_hessian(params, _slope_kernel(params), re, im)
    except DomainError:
        return
    hess = np.array([[h_rr, h_ri], [h_ri, h_ii]])
    if np.isfinite(hess).all():
        high = np.linalg.eigvalsh(hess)[1]
    else:  # loc = 0: find_critical_points gives the curvature across (zeta, kappa) instead
        (origin,) = find_critical_points(params, [(0.0, 0.0)])
        assert origin.hessian_eigs[0] == -math.inf and origin.kind == "saddle"
        high = origin.hessian_eigs[1]
    assert 4.0 * (1.0 - 1e-12) <= high <= 16.0 * (1.0 + 1e-12)  # up to eigvalsh's rounding


@pytest.mark.parametrize("d2", [-2.0, -math.inf], ids=["singular", "non-finite"])
def test_newton_step_falls_back_to_minus_gradient(monkeypatch, d2):
    # zeta = 1, kappa = 0: h_rr = 16 + 8 d2 is 0 at d2 = -2 (det = 0) and -inf at d2 = -inf,
    # where h_ri = -inf * 0 is NaN; either way the step is -grad, and its full trial comes first
    params = ModelParams(t=1.0, zeta=1.0, kappa=0.0, big_l=8)
    locs = []

    def stub_kernel(_):
        return lambda loc: locs.append(loc) or (0.01, d2)

    monkeypatch.setattr(peierls.landscape, "_slope_kernel", stub_kernel)
    re, im = 0.02, 0.03
    g_re, g_im, *_ = _gradient_and_hessian(params, stub_kernel(params), re, im)
    locs.clear()
    points = find_critical_points(params, [(re, im)], max_iter=1)
    assert points == [] and points.evaluations == len(locs) >= 2
    assert locs[:2] == [state_location(params, CoherentAmplitude(re, im)),
                        state_location(params, CoherentAmplitude(re - g_re, im - g_im))]


def test_newton_evaluations_count_every_slope_call(monkeypatch):
    cfg, p = double_well_params()
    calls = []
    kernel = peierls.landscape._slope_kernel

    def counted_kernel(params):
        slopes = kernel(params)
        return lambda loc: calls.append(loc) or slopes(loc)

    monkeypatch.setattr(peierls.landscape, "_slope_kernel", counted_kernel)
    points = find_critical_points(p, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    assert points.evaluations == len(calls) > points.seeds["tried"]
    # a seed outside the domain costs one slope call, the one that raises DomainError
    wide = g_one_params(q=1.5, w=-3.0)
    calls.clear()
    points = find_critical_points(wide, [(1.01 * domain_limit(wide) / (2.0 * math.sqrt(2.0)), 0.0)])
    assert points.seeds["skipped"] == 1 and points.evaluations == len(calls) == 1
