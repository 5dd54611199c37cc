"""Elliptic integrals against frozen quadrature oracles and identities."""

import math

import pytest
from hypothesis import given, strategies as st

from scipy.special import ellipe as elliptic_e, ellipk as elliptic_k

from peierls.special import _e_derivatives


def de_dm(m):
    """dE/dm from `_e_derivatives` at E(m), K(m)."""
    return _e_derivatives(m, 1.0 - m, elliptic_e(m), elliptic_k(m))[0]


# frozen values of the defining integrals, computed once by adaptive
# quadrature (scipy.integrate.quad, epsabs 1e-14)
E_ORACLE = {
    -1.0: 1.9100988945138557,
    -0.5: 1.7517712756948176,
    0.0: 1.5707963267948966,
    0.25: 1.4674622093394272,
    0.5: 1.3506438810476755,
    0.75: 1.2110560275684592,
    0.99: 1.015993545025224,
    # mpmath.ellipe at 40 digits (quad agrees to 1.5e-15); an AGM whose
    # stopping tolerance sits below half an ulp missed it by 1.8e-13
    0.9691: 1.0409253466298443,
}
K_ORACLE = {
    -1.0: 1.31102877714606,
    -0.5: 1.415737208425956,
    0.0: 1.5707963267948966,
    0.5: 1.854074677301372,
    0.9: 2.5780921133481725,
}


@pytest.mark.parametrize("m,expected", sorted(E_ORACLE.items()))
def test_elliptic_e_oracle(m, expected):
    assert elliptic_e(m) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("m,expected", sorted(K_ORACLE.items()))
def test_elliptic_k_oracle(m, expected):
    assert elliptic_k(m) == pytest.approx(expected, abs=1e-13)


def test_special_values():
    assert elliptic_e(1.0) == 1.0
    assert elliptic_e(0.0) == math.pi / 2.0
    assert elliptic_k(0.0) == math.pi / 2.0


@given(st.floats(min_value=-0.999, max_value=0.99))
def test_e_at_most_pi_half_scaled(m):
    # E decreases with m; for m <= 0 it exceeds pi/2, for m >= 0 it does not
    e = elliptic_e(m)
    if m >= 0.0:
        assert e <= math.pi / 2.0 + 1e-15
        assert e >= 1.0
    else:
        assert e >= math.pi / 2.0 - 1e-15


@given(st.floats(min_value=0.0, max_value=0.99))
def test_k_dominates_e_for_positive_m(m):
    assert elliptic_k(m) >= elliptic_e(m) - 1e-15


@given(st.floats(min_value=0.02, max_value=0.98))
def test_legendre_relation(m):
    lhs = (
        elliptic_e(m) * elliptic_k(1.0 - m)
        + elliptic_e(1.0 - m) * elliptic_k(m)
        - elliptic_k(m) * elliptic_k(1.0 - m)
    )
    assert lhs == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_de_dm_at_zero():
    assert de_dm(0.0) == pytest.approx(-math.pi / 8.0, rel=1e-15)


@pytest.mark.parametrize("m", [1e-4, -1e-4, 9.9e-5, -9.9e-5, 2.5e-3, -2.5e-3, 2.49e-3, -2.49e-3])
def test_de_dm_series_matches_quotient_at_branch(m):
    quotient = (elliptic_e(m) - elliptic_k(m)) / (2.0 * m)
    assert de_dm(m) == pytest.approx(quotient, rel=1e-8)


@given(st.floats(min_value=-0.9, max_value=0.9))
def test_de_dm_matches_central_difference(m):
    h = 1e-6
    fd = (elliptic_e(m + h) - elliptic_e(m - h)) / (2.0 * h)
    assert de_dm(m) == pytest.approx(fd, rel=1e-6, abs=1e-9)
