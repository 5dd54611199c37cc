"""Chain kinematics: staggered bonds, the chiral ring spectrum against a dense oracle and the mode closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peierls.algebra import mode_energies
from peierls.model import (
    CoherentAmplitude,
    ModelParams,
    effective_coupling,
    ring_spectrum,
    staggered_bonds,
    state_location,
)


def g_one_params(big_l=64):
    """Parameters with effective coupling exactly 1."""
    return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l)


def amplitude_for_location(params, loc):
    return CoherentAmplitude(loc / (2.0 * math.sqrt(2.0) * params.zeta), 0.0)


def mode_bands(params, z):
    """The ring's bands +-2 hypot(eps, delta) from the mode closed form, ascending."""
    m = mode_energies(params, z, np.arange(params.big_l))
    r = 2.0 * np.hypot(m.epsilon, m.delta)
    return np.sort(np.concatenate([-r, r]))


def single_particle_matrix(bonds):
    """Dense oracle for `ring_spectrum`: -A_j on the (j, j+1 mod n) off-diagonals, bond by bond."""
    n = len(bonds)
    h = np.zeros((n, n))
    for j, a in enumerate(bonds):
        k = (j + 1) % n
        h[j, k] -= a
        h[k, j] -= a
    return h


def assert_matches_dense_oracle(bonds):
    banded = ring_spectrum(bonds)
    dense = np.linalg.eigvalsh(single_particle_matrix(bonds))
    assert np.max(np.abs(banded - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(t=0.0)
    with pytest.raises(ValueError):
        ModelParams(q=-1.0)
    with pytest.raises(ValueError):
        ModelParams(big_l=0)


@pytest.mark.parametrize("fields", [
    {"zeta": 30.0}, {"zeta": 1e200}, {"kappa": -27.0}, {"t": 1e308, "zeta": 1.0}, {"t": 1e300, "zeta": 20.0},
])
def test_params_reject_a_coupling_that_overflows(fields):
    with pytest.raises(ValueError, match=r"effective coupling g = t exp\(zeta\^2 \+ kappa\^2\) is not finite at t="):
        ModelParams(**fields)


@pytest.mark.parametrize("q, w", [(1.5, 1e300), (1.5, -1e300), (1e-310, -1.0), (1e-310, 1.0), (1e300, 2.0)])
def test_params_reject_a_deformation_factor_that_overflows(q, w):
    with pytest.raises(ValueError, match=r"q\^w and q\^-w must be finite"):
        ModelParams(q=q, w=w)


def test_params_accept_the_largest_finite_coupling():
    # zeta^2 = 709 leaves g = exp(709) ~ 8.2e307 finite; q^+-w = 1 at w = 0 for any q > 0
    assert math.isfinite(effective_coupling(ModelParams(zeta=math.sqrt(709.0))))
    ModelParams(q=1e-310, w=0.0)
    ModelParams(q=1e300, w=1.0)


def test_effective_coupling_at_least_t():
    p = ModelParams(t=0.3, zeta=1.2, kappa=0.4)
    assert effective_coupling(p) == pytest.approx(0.3 * math.exp(1.2**2 + 0.4**2), rel=1e-15)
    assert effective_coupling(p) >= p.t


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_state_location_odd(re, im):
    p = ModelParams(t=1.0, zeta=0.7, kappa=0.3)
    z = CoherentAmplitude(re, im)
    assert state_location(p, -z) == pytest.approx(-state_location(p, z), abs=1e-12)


def test_undimerized_bonds_all_equal_g():
    p = ModelParams(t=0.5, zeta=1.0, kappa=0.5, big_l=8)
    bonds = staggered_bonds(p, CoherentAmplitude(0.0, 0.0))
    g = effective_coupling(p)
    assert bonds.shape == (16,)
    assert all(b == pytest.approx(g, rel=1e-15) for b in bonds)


def test_staggered_bonds_alternate():
    p = g_one_params(big_l=6)
    z = amplitude_for_location(p, 0.3)
    bonds = staggered_bonds(p, z)
    g = effective_coupling(p)
    for j, b in enumerate(bonds):
        expected = g * math.exp(-0.3 if j % 2 == 0 else 0.3)
        assert b == pytest.approx(expected, rel=1e-14)
    # geometric mean of adjacent bonds is g
    for j in range(len(bonds) - 1):
        assert bonds[j] * bonds[j + 1] == pytest.approx(g * g, rel=1e-13)


def test_single_particle_matrix_symmetric_periodic():
    p = g_one_params(big_l=4)
    h = single_particle_matrix(staggered_bonds(p, amplitude_for_location(p, 0.2)))
    assert h.shape == (8, 8)
    assert np.allclose(h, h.T)
    # corner wrap-around bond present
    assert h[0, 7] != 0.0


def test_spectrum_matches_analytic_ring_bands():
    p = g_one_params(big_l=64)
    z = amplitude_for_location(p, 0.4)
    real_space = ring_spectrum(staggered_bonds(p, z))
    analytic = mode_bands(p, z)
    assert np.max(np.abs(real_space - analytic)) < 1e-12


def test_spectrum_symmetric_about_zero():
    p = g_one_params(big_l=16)
    z = amplitude_for_location(p, 0.7)
    real_space = ring_spectrum(staggered_bonds(p, z))
    assert np.max(np.abs(real_space + real_space[::-1])) < 1e-12


@pytest.mark.parametrize("loc", [0.0, 0.4])  # gapless, with exact zero modes at even L; gapped
@pytest.mark.parametrize("big_l", [1, 2, 3, 64, 512])
def test_ring_spectrum_matches_dense_oracle(big_l, loc):
    p = g_one_params(big_l=big_l)
    assert_matches_dense_oracle(staggered_bonds(p, amplitude_for_location(p, loc)))


@given(st.integers(1, 40).flatmap(
    lambda half: st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2 * half, max_size=2 * half)))
def test_ring_spectrum_matches_dense_oracle_on_any_positive_bonds(bonds):
    assert_matches_dense_oracle(np.array(bonds))


@given(st.integers(1, 200).flatmap(
    lambda half: st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2 * half, max_size=2 * half)))
def test_ring_spectrum_is_exactly_symmetric(bonds):
    # chiral symmetry: the values are -s then s from one set of singular values, bit for bit
    spectrum = ring_spectrum(np.array(bonds))
    assert np.array_equal(spectrum, -spectrum[::-1])


@pytest.mark.parametrize("n", [3, 5, 129])
def test_ring_spectrum_rejects_an_odd_ring(n):
    with pytest.raises(ValueError, match="not bipartite"):
        ring_spectrum(np.ones(n))


def test_ring_spectrum_rejects_non_finite_bonds():
    with pytest.raises(ValueError, match="non-finite"):
        ring_spectrum(np.array([1.0, math.inf]))


def test_ring_spectrum_rejects_fewer_than_two_bonds():
    with pytest.raises(ValueError, match="at least 2 sites"):
        ring_spectrum(np.array([1.0]))


@given(st.floats(min_value=-0.8, max_value=0.8))
def test_ring_bands_even_in_location(loc):
    p = g_one_params(big_l=8)
    plus = mode_bands(p, amplitude_for_location(p, loc))
    minus = mode_bands(p, amplitude_for_location(p, -loc))
    assert np.max(np.abs(plus - minus)) < 1e-12


def test_gap_opens_with_location():
    p = g_one_params(big_l=32)
    gapless = mode_bands(p, CoherentAmplitude(0.0, 0.0))
    gapped = mode_bands(p, amplitude_for_location(p, 0.5))
    # smallest |eigenvalue| equals 2g|sinh(loc)| for even L
    assert np.min(np.abs(gapless)) < 1e-10
    assert np.min(np.abs(gapped)) == pytest.approx(2.0 * math.sinh(0.5), rel=1e-10)
