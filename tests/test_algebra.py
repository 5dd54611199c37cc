"""Deformed generators, per-mode matrices, and closed-form cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peierls.algebra import deformed_mode_matrix, mode_eigenvalues, mode_energies, xi
from peierls.landscape import electronic_density_modesum
from peierls.model import CoherentAmplitude, ModelParams
from peierls.validate import _lambda_discrepancy as lambda_discrepancy, _paper_lambda as paper_lambda


def params_at(q, w, big_l=16):
    return ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l, q=q, w=w)


def amplitude(loc):
    return CoherentAmplitude(loc / (2.0 * math.sqrt(2.0)), 0.0)


def test_xi_values():
    assert xi(1.0, 0.0) == 1.0
    assert xi(1.0, -1.0) == 1.0
    assert xi(1.5, 0.0) == pytest.approx(2.0 / (1.5 + 1.0 / 1.5), rel=1e-15)
    # the double-well window 1 < xi < 2 at q = 1.5, w = -1
    assert 1.0 < xi(1.5, -1.0) < 2.0


def test_mode_energies_endpoints():
    p = params_at(1.0, 0.0)
    z = amplitude(0.4)
    m0 = mode_energies(p, z, 0)
    assert m0.delta == 0.0
    assert m0.epsilon == pytest.approx(math.cosh(0.4), rel=1e-14)
    with pytest.raises(ValueError):
        mode_energies(p, z, p.big_l)


def test_mode_energies_rejects_index_array_out_of_range():
    p = params_at(1.5, -1.0)
    with pytest.raises(ValueError, match="mode index"):
        mode_energies(p, amplitude(0.4), np.array([0, 3, p.big_l]))


@pytest.mark.parametrize("q", [1.0, 1.5])
@pytest.mark.parametrize("w", [0.0, -1.0])
def test_modesum_array_path_matches_scalar_loop(q, w):
    p = params_at(q, w, big_l=64)
    z = amplitude(0.4)
    lower = [mode_eigenvalues(deformed_mode_matrix(p, mode_energies(p, z, k)))[0] for k in range(p.big_l)]
    reference = math.fsum(lower) / p.big_l
    assert electronic_density_modesum(p, z) == pytest.approx(reference, rel=1e-15, abs=0.0)


def test_undeformed_matrix_eigenvalues():
    p = params_at(1.0, 0.0)
    z = amplitude(0.4)
    for k in range(p.big_l):
        mode = mode_energies(p, z, k)
        lo, hi = mode_eigenvalues(deformed_mode_matrix(p, mode))
        r = math.hypot(mode.epsilon, mode.delta)
        assert lo == pytest.approx(-r, abs=1e-14)
        assert hi == pytest.approx(r, abs=1e-14)


def test_matrix_trace_identity():
    p = params_at(1.7, -0.8)
    z = amplitude(0.3)
    xq = xi(p.q, p.w)
    for k in (0, 3, 7):
        mode = mode_energies(p, z, k)
        h = deformed_mode_matrix(p, mode)
        expected = -mode.epsilon * (p.q - 1.0 / p.q) * p.q ** (2 * p.w) * xq
        assert np.trace(h) == pytest.approx(expected, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("q", [0.5, 1.2, 1.5, 2.0])
def test_printed_form_matches_matrix_at_w_zero(q):
    p = params_at(q, 0.0)
    z = amplitude(0.4)
    for k in range(p.big_l):
        assert lambda_discrepancy(p, mode_energies(p, z, k)) < 1e-12


def test_printed_form_deviates_at_nonzero_w():
    p = params_at(1.5, -1.0)
    z = amplitude(0.4)
    worst = max(lambda_discrepancy(p, mode_energies(p, z, k)) for k in range(p.big_l))
    assert worst > 1e-3  # transcription ambiguity, reported not hidden


def test_contraction_to_su2():
    z = amplitude(0.4)
    p1 = params_at(1.0, 0.0, big_l=64)
    p2 = params_at(1.0 + 1e-7, 0.0, big_l=64)
    worst = 0.0
    for k in range(64):
        a = mode_eigenvalues(deformed_mode_matrix(p1, mode_energies(p1, z, k)))
        b = mode_eigenvalues(deformed_mode_matrix(p2, mode_energies(p2, z, k)))
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    assert worst < 1e-6


def test_paper_lambda_ordering():
    p = params_at(1.5, 0.0)
    z = amplitude(0.4)
    for k in range(p.big_l):
        lo, hi = paper_lambda(p, mode_energies(p, z, k))
        assert lo <= hi


@given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=-0.6, max_value=0.6))
def test_matrix_symmetric(q, loc):
    p = params_at(q, -1.0)
    h = deformed_mode_matrix(p, mode_energies(p, amplitude(loc), 3))
    assert abs(h[0, 1] - h[1, 0]) < 1e-14
