"""Energy landscape: continuum density, gradients, grids, critical points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peierls.config import load_config, reference_config_path
from peierls.landscape import (
    DomainError,
    d_electronic_d_loc,
    domain_limit,
    electronic_density_continuum,
    electronic_density_modesum,
    find_critical_points,
    landscape_grid,
    phonon_energy_total,
    total_density,
    total_gradient,
)
from peierls.model import CoherentAmplitude, ModelParams


def g_one_params(big_l=64, q=1.0, w=0.0):
    return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l, q=q, w=w)


def amplitude(loc, zeta=1.0):
    return CoherentAmplitude(loc / (2.0 * math.sqrt(2.0) * zeta), 0.0)


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
        assert d_electronic_d_loc(p, loc) == pytest.approx(fd, rel=1e-6)


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


def test_reference_minima_vanish_at_q_one():
    cfg, p = double_well_params()
    p1 = ModelParams(t=p.t, zeta=p.zeta, kappa=p.kappa, big_l=p.big_l, q=1.0, w=p.w)
    points = find_critical_points(p1, cfg.seeds(), tol=cfg.newton_tol, max_step=cfg.max_step)
    assert all(c.kind != "minimum" for c in points)
