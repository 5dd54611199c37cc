"""Energy landscape: continuum density, gradients, grids, critical points."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import peierls.landscape
from peierls.algebra import xi
from peierls.config import load_config, reference_config_path
from peierls.landscape import (
    DomainError,
    _energy_densities,
    _slope_kernel,
    electronic_density_continuum,
    electronic_density_modesum,
    find_critical_points,
    landscape_grid,
    phonon_energy_total,
    total_density,
    total_gradient,
)
from peierls.model import CoherentAmplitude, ModelParams, effective_coupling


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


def test_phonon_energy_total():
    z = CoherentAmplitude(0.3, -0.2)
    assert phonon_energy_total(z, 5) == pytest.approx(10.0 * (4 * 0.09 + 0.04 + 0.75), rel=1e-15)


@given(st.floats(min_value=-0.6, max_value=0.6), st.floats(min_value=-0.6, max_value=0.6))
def test_continuum_density_even(re, im):
    p = ModelParams(t=0.2, zeta=0.8, kappa=0.3, big_l=8, q=1.3, w=-0.5)
    z = CoherentAmplitude(re, im)
    assert electronic_density_continuum(p, z) == pytest.approx(
        electronic_density_continuum(p, -z), abs=1e-13
    )


def test_undimerized_continuum_value():
    # at loc = 0: -(2/pi) g E(1) with xi = 1 (q = 1) ... m = 1, E(1) = 1
    p = g_one_params()
    assert electronic_density_continuum(p, CoherentAmplitude(0.0, 0.0)) == pytest.approx(
        -2.0 / math.pi, rel=1e-14
    )


def test_dimerization_lowers_electronic_energy():
    p = g_one_params()
    e0 = electronic_density_continuum(p, CoherentAmplitude(0.0, 0.0))
    e1 = electronic_density_continuum(p, amplitude(0.5))
    assert e1 < e0


def test_domain_limit_and_error():
    # xi <= 2: unrestricted
    assert domain_limit(g_one_params(q=1.5, w=-1.0)) == math.inf
    # xi > 2 for w pushing the normalization up
    p = g_one_params(q=1.5, w=-3.0)
    bound = domain_limit(p)
    assert math.isfinite(bound)
    electronic_density_continuum(p, amplitude(0.99 * bound))  # inside: fine
    with pytest.raises(DomainError):
        electronic_density_continuum(p, amplitude(1.01 * bound))


def test_analytic_d_loc_matches_finite_difference():
    p = g_one_params(q=1.5, w=-1.0)
    h = 1e-6
    for loc in (0.05, 0.3, 0.9, -0.4):
        fd = (
            electronic_density_continuum(p, amplitude(loc + h))
            - electronic_density_continuum(p, amplitude(loc - h))
        ) / (2.0 * h)
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


@pytest.mark.parametrize(
    "re, im", [(-0.02616900268718804, -0.02616900268718804), (-0.4050677150573715, -0.3190496689261719), (0.0, 0.0)]
)
def test_total_density_scalar_and_array_bitwise(re, im):
    # a scalar ** 2 calls C pow: 0.5025 ulp off for Re z = -0.02616900268718804 in
    # the phonon energy, and one ulp off numpy's square in tanh(loc)^2 at the second point
    _, p = double_well_params()
    columns = _energy_densities(p, CoherentAmplitude(np.array([re]), np.array([im])))
    assert total_density(p, CoherentAmplitude(re, im)).total == columns["e_total"][0]


@given(st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=-0.5, max_value=0.5))
def test_total_density_scalar_and_array_bitwise_hypothesis(re, im):
    _, p = double_well_params()
    columns = _energy_densities(p, CoherentAmplitude(np.array([re]), np.array([im])))
    breakdown = total_density(p, CoherentAmplitude(re, im))
    assert (breakdown.phonon, breakdown.electronic, breakdown.total) == (
        columns["e_phonon"][0], columns["e_electronic"][0], columns["e_total"][0]
    )


def test_total_gradient_matches_finite_difference():
    _, p = double_well_params()
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        re, im = rng.uniform(-0.08, 0.08, size=2)
        z = CoherentAmplitude(re, im)
        grad = total_gradient(p, z)
        fd = np.array(
            [
                (total_density(p, CoherentAmplitude(re + h, im)).total
                 - total_density(p, CoherentAmplitude(re - h, im)).total) / (2 * h),
                (total_density(p, CoherentAmplitude(re, im + h)).total
                 - total_density(p, CoherentAmplitude(re, im - h)).total) / (2 * h),
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
    assert total_gradient(params, z) == pytest.approx(expected, abs=tol)


@given(st.floats(min_value=-0.05, max_value=0.05), st.floats(min_value=-0.05, max_value=0.05))
def test_total_gradient_odd(re, im):
    params = load_config(reference_config_path("kink_dynamics")).model_params()
    z = CoherentAmplitude(re, im)
    assert total_gradient(params, -z) == pytest.approx(-total_gradient(params, z), abs=1e-10)


def test_modesum_approaches_continuum():
    p = g_one_params(big_l=4096)
    z = amplitude(0.4)
    ms = electronic_density_modesum(p, z)
    ct = electronic_density_continuum(p, z)
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
    bd = total_density(p, CoherentAmplitude(re, im))
    assert grid["e_total"][0] == pytest.approx(bd.total, rel=1e-15)
    assert grid["in_domain"][0]


def test_grid_matches_total_density_cell_by_cell():
    p = g_one_params(q=1.5, w=-3.0)  # xi > 2, finite domain
    grid = landscape_grid(p, (-0.4, 0.4), (-0.3, 0.3), 9)
    axis_re, axis_im = np.linspace(-0.4, 0.4, 9), np.linspace(-0.3, 0.3, 9)
    assert grid["re"].tolist() == np.repeat(axis_re, 9).tolist()  # re-major
    assert grid["im"].tolist() == np.tile(axis_im, 9).tolist()
    domain = 0
    for i, (re, im) in enumerate(zip(grid["re"].tolist(), grid["im"].tolist())):
        try:
            bd = total_density(p, CoherentAmplitude(re, im))
        except DomainError:
            domain += 1
            assert not grid["in_domain"][i]
            assert all(math.isnan(grid[c][i]) for c in ("e_phonon", "e_electronic", "e_total"))
            continue
        assert grid["in_domain"][i]
        assert grid["e_phonon"][i] == pytest.approx(bd.phonon, rel=1e-14)
        assert grid["e_electronic"][i] == pytest.approx(bd.electronic, rel=1e-14)
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
    e = [total_density(p, CoherentAmplitude(*m.location)).total for m in minima]
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
    monkeypatch.setattr(peierls.landscape, "total_gradient", None)
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
