"""Kink configurations, spectra, the difference operator, and propagation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peierls.config import ConfigError, load_config, reference_config_path
from peierls.kink import (
    KinkConfiguration,
    KinkTrajectory,
    _offdiagonal,
    kink_position,
    kink_spectrum,
    propagate_kink,
    sublattice_svd,
)
from peierls.landscape import phonon_density
from peierls.model import CoherentAmplitude, ModelParams, effective_coupling, staggered_bonds
from peierls.validate import _difference_block, _zero_subspace


def reference_config():
    return load_config(reference_config_path("kink_dynamics"))


def reference_params():
    return reference_config().model_params()


def z_min():
    cfg = reference_config()
    return CoherentAmplitude(cfg.z_re, cfg.z_im)


def bond_order(occupied):
    """Staggered bond order B_j = (-)^j Re <f+_{j+1} f_j> from occupied orbitals.

    `occupied` is an (n_sites, n_filled) matrix of orthonormal columns.  The link sum
    Re sum_m conj(phi_{j,m}) phi_{j+1,m} is the superdiagonal of the coherence matrix,
    read without forming it.  `propagate_kink` reads the same links from its coherence
    block; this helper reads them from orbitals, for the checks and the oracle below.
    """
    flat = np.ascontiguousarray(occupied)
    if np.iscomplexobj(flat):  # Re conj(x) y sums the products of the float parts
        flat = flat.view(np.float64)
    link = np.einsum("jm,jm->j", flat[:-1], flat[1:])
    return (-1.0) ** np.arange(len(link)) * link


def kink_matrix(p, cfg):
    """Dense single-particle matrix of the kink Hamiltonian: zero diagonal, `_offdiagonal` beside it."""
    off = _offdiagonal(p, cfg)
    return np.diag(off, 1) + np.diag(off, -1)


def kink_bonds(p, cfg):
    """Bonds A_j = -h[j, j+1] of the averaged kink chain."""
    return -np.diag(kink_matrix(p, cfg), 1)


def test_configuration_validation():
    z = CoherentAmplitude(0.1, 0.0)
    with pytest.raises(ValueError):
        KinkConfiguration(n=-1, z=z, n_sites=10)
    with pytest.raises(ValueError):
        KinkConfiguration(n=9, z=z, n_sites=10)


def test_amplitudes_wall_signature():
    z = CoherentAmplitude(0.1, 0.05)
    cfg = KinkConfiguration(n=4, z=z, n_sites=10)
    amps = cfg.staggering() * complex(0.1, 0.05)
    # sites n and n+1 carry equal amplitudes: the domain-wall signature
    assert amps[4] == amps[5]
    assert amps[0] == complex(0.1, 0.05)
    assert amps[1] == -complex(0.1, 0.05)


def test_zero_amplitude_bonds_uniform():
    p = reference_params()
    cfg = KinkConfiguration(n=5, z=CoherentAmplitude(0.0, 0.0), n_sites=12)
    bonds = kink_bonds(p, cfg)
    g = effective_coupling(p)
    assert len(bonds) == 11
    assert all(b == pytest.approx(g, rel=1e-15) for b in bonds)


def test_wall_bond_exactly_g():
    p = reference_params()
    cfg = KinkConfiguration(n=7, z=z_min(), n_sites=20)
    assert kink_bonds(p, cfg)[7] == pytest.approx(effective_coupling(p), rel=1e-15)


def test_bonds_match_staggering_on_both_sides():
    p = reference_params()
    z = z_min()
    n = 8
    cfg = KinkConfiguration(n=n, z=z, n_sites=24)
    kbonds = kink_bonds(p, cfg)
    ring = staggered_bonds(p, z)
    anti = staggered_bonds(p, -z)
    for j in range(n):
        assert kbonds[j] == pytest.approx(ring[j], rel=1e-14)
    for j in range(n + 1, len(kbonds)):
        assert kbonds[j] == pytest.approx(anti[j % len(anti)], rel=1e-14)


def test_spectrum_z_zero_open_chain_formula():
    p = reference_params()
    n_sites = 200
    cfg = KinkConfiguration(n=100, z=CoherentAmplitude(0.0, 0.0), n_sites=n_sites)
    evals, lowest, _ = kink_spectrum(p, cfg)
    g = effective_coupling(p)
    oracle = np.sort(-2.0 * g * np.cos(np.pi * np.arange(1, n_sites + 1) / (n_sites + 1)))
    assert np.max(np.abs(evals - oracle)) < 1e-10
    assert lowest == pytest.approx(oracle[0], abs=1e-12)


def test_spectrum_chiral_symmetry():
    p = reference_params()
    cfg = KinkConfiguration(n=50, z=z_min(), n_sites=101)
    evals, _, _ = kink_spectrum(p, cfg)
    assert np.max(np.abs(evals + evals[::-1])) < 1e-10


@pytest.mark.parametrize("n_sites", [60, 61, 200, 201])
def test_sublattice_svd_gives_the_spectrum(n_sites):
    # +-s, plus the zero mode of an odd chain, are the tridiagonal eigenvalues
    p = reference_params()
    cfg = KinkConfiguration(n=n_sites // 2, z=z_min(), n_sites=n_sites)
    h = kink_matrix(p, cfg)
    w, s, v = sublattice_svd(np.diag(h, 1))
    assert w.shape == ((n_sites + 1) // 2,) * 2 and v.shape == (n_sites // 2,) * 2
    # both run LAPACK's bidiagonal routines, so the oracle is numpy's dense eigensolver
    dense = np.linalg.eigvalsh(h)
    chiral = np.sort(np.concatenate([-s, s, np.zeros(n_sites % 2)]))
    assert np.max(np.abs(chiral - dense)) < 1e-13
    assert np.max(np.abs(kink_spectrum(p, cfg)[0] - dense)) < 1e-13
    # each singular triple is the eigenpair (+-s, (w, +-v) / sqrt 2) of h
    for k in (0, len(s) - 1):
        for sign in (1.0, -1.0):
            vec = np.zeros(n_sites)
            vec[0::2], vec[1::2] = w[:, k], sign * v[:, k]
            assert np.max(np.abs(h @ vec - sign * s[k] * vec)) < 1e-13
    if n_sites % 2:
        zero = np.zeros(n_sites)
        zero[0::2] = w[:, -1]
        assert np.max(np.abs(h @ zero)) < 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sublattice_svd_rejects_non_finite_bonds(bad):
    with pytest.raises(ValueError, match="finite"):
        sublattice_svd(np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("n_sites, n, target", [(1000, 500, 1.04e-29), (1000, 313, 3.45e-19), (600, 300, 1.86e-18)])
def test_wall_eigenvalue_to_high_relative_accuracy(n_sites, n, target):
    # C is square lower bidiagonal for even N, so prod s_k = |det C| = prod |C_ii| exactly
    p = reference_params()
    cfg = KinkConfiguration(n=n, z=z_min(), n_sites=n_sites)
    off = _offdiagonal(p, cfg)
    s = kink_spectrum(p, cfg)[0][n_sites // 2 :]  # ascending, s[0] the wall state
    wall = math.exp(np.sum(np.log(np.abs(off[0::2]))) - np.sum(np.log(s[1:])))
    assert s[0] == pytest.approx(wall, rel=1e-10, abs=0)
    assert s[0] == pytest.approx(target, rel=1e-2, abs=0)


@pytest.mark.parametrize("n_sites", [60, 61])
def test_sublattice_ground_state_is_the_filled_sea(n_sites):
    p = reference_params()
    cfg = KinkConfiguration(n=n_sites // 2, z=z_min(), n_sites=n_sites)
    h = kink_matrix(p, cfg)
    w, s, v = sublattice_svd(np.diag(h, 1))
    occ = np.zeros((n_sites, n_sites // 2))
    occ[0::2], occ[1::2] = w[:, : n_sites // 2] / math.sqrt(2.0), -v / math.sqrt(2.0)
    assert np.max(np.abs(occ.T @ occ - np.eye(n_sites // 2))) < 1e-13
    evals = kink_spectrum(p, cfg)[0]
    assert np.trace(occ.T @ h @ occ) == pytest.approx(np.sum(evals[: n_sites // 2]), rel=1e-13)


@pytest.mark.parametrize("n_sites, n", [(200, 100), (200, 101), (201, 100), (400, 150)])
def test_wall_state_decays_at_the_localization_rate(n_sites, n):
    # the E = 0 transfer matrix gives exp(-loc |j - n|) on the wall's sublattice
    from peierls.model import state_location
    from peierls.validate import _wall_decay

    p = reference_params()
    loc = state_location(p, z_min())
    left, right = _wall_decay(p, KinkConfiguration(n=n, z=z_min(), n_sites=n_sites))
    assert left == pytest.approx(loc, abs=1e-6)
    assert right == pytest.approx(loc, abs=1e-6)


def test_midgap_states_present():
    p = reference_params()
    cfg = KinkConfiguration(n=100, z=z_min(), n_sites=200)
    _, _, in_gap = kink_spectrum(p, cfg)
    assert in_gap.sum() >= 1


def test_energy_translation_invariance_in_bulk():
    p = reference_params()
    z = z_min()
    e1 = kink_spectrum(p, KinkConfiguration(n=90, z=z, n_sites=200))[1]
    e2 = kink_spectrum(p, KinkConfiguration(n=110, z=z, n_sites=200))[1]
    assert abs(e1 - e2) < 1e-3


def test_difference_block_eigenvalues_and_kernel():
    p = reference_params()
    cfg = KinkConfiguration(n=100, z=z_min(), n_sites=200)
    block = _difference_block(p, cfg)
    om = block[1, 2]
    eigs = np.sort(np.linalg.eigvalsh(block))
    expected = np.sort([-math.sqrt(2.0) * abs(om), 0.0, math.sqrt(2.0) * abs(om)])
    assert np.max(np.abs(eigs - expected)) < 1e-10
    dim, basis = _zero_subspace(block, effective_coupling(p))
    assert dim == 1
    assert abs(abs(basis[0] @ (np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)))) == pytest.approx(1.0, abs=1e-12)


def test_zero_subspace_degenerates_when_omega_vanishes():
    # omega_n = g - (c + (-)^n s) vanishes at z = 0 (c = g, s = 0)
    p = reference_params()
    cfg = KinkConfiguration(n=10, z=CoherentAmplitude(0.0, 0.0), n_sites=30)
    d = _difference_block(p, cfg)
    assert np.max(np.abs(d)) < 1e-14
    dim, basis = _zero_subspace(d, effective_coupling(p))
    assert dim == 3
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_literal_difference_support():
    p = reference_params()
    n = 12
    cfg = KinkConfiguration(n=n, z=z_min(), n_sites=30)
    up = KinkConfiguration(n=n + 1, z=z_min(), n_sites=30)
    d = kink_matrix(p, up) - kink_matrix(p, cfg)
    nz = np.argwhere(np.abs(d) > 1e-14)
    # moving the wall by one site only changes bonds touching site n+1
    for i, j in nz:
        assert {i, j} <= {n, n + 1, n + 2}


def test_bond_order_single_wall():
    p = reference_params()
    n_sites = 120
    cfg = KinkConfiguration(n=60, z=z_min(), n_sites=n_sites)
    _, vecs = np.linalg.eigh(kink_matrix(p, cfg))
    occ = vecs[:, : n_sites // 2]
    order = bond_order(occ)
    pos = kink_position(order)
    assert abs(pos - 60) < 0.5


def test_bond_order_matches_dense_coherence():
    # the link sum is the superdiagonal of C = conj(Phi) Phi^T
    rng = np.random.default_rng(7)
    occ, _ = np.linalg.qr(rng.normal(size=(40, 20)) + 1j * rng.normal(size=(40, 20)))
    coherence = occ.conj() @ occ.T
    expected = (-1.0) ** np.arange(39) * np.real(np.diag(coherence, k=1))
    assert np.max(np.abs(bond_order(occ) - expected)) < 1e-14


def test_kink_position_tracks_anchor():
    p = reference_params()
    n_sites = 200
    for n in (80, 100, 120):
        cfg = KinkConfiguration(n=n, z=z_min(), n_sites=n_sites)
        _, vecs = np.linalg.eigh(kink_matrix(p, cfg))
        order = bond_order(vecs[:, : n_sites // 2])
        assert abs(kink_position(order) - n) < 0.5


def test_propagation_stationary_state():
    p = reference_params()
    traj = propagate_kink(p, z_min(), 30, dt=0.5, steps=50, n_sites=60)
    energies = np.array(traj.energies)
    positions = np.array(traj.positions)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-6
    assert np.max(np.abs(positions - positions[0])) < 0.5


def test_propagation_mirror_symmetry():
    p = reference_params()
    n_sites = 61
    n0 = 30  # center of an odd chain: reflection maps the wall onto itself
    a = propagate_kink(p, z_min(), n0, dt=0.5, steps=30, n_sites=n_sites, initial_anchor_offset=-2)
    b = propagate_kink(p, z_min(), n0 - 1, dt=0.5, steps=30, n_sites=n_sites, initial_anchor_offset=2)
    bonds = n_sites - 1
    for pa, pb in zip(a.positions, b.positions):
        assert pa == pytest.approx((bonds - 1) - pb, abs=1e-6)


def test_initial_energy_is_filled_sea_plus_phonon():
    p = reference_params()
    z = z_min()
    n_sites = 60
    traj = propagate_kink(p, z, 30, dt=0.5, steps=3, n_sites=n_sites,
                          initial_anchor_offset=0)
    evals, _, _ = kink_spectrum(p, KinkConfiguration(n=30, z=z, n_sites=n_sites))
    phonon = n_sites * (4.0 * z.re**2 + z.im**2 + 0.75)
    expected = float(np.sum(evals[: n_sites // 2])) + phonon
    assert traj.energies[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("offset, steps, svds", [(0, 10, 1), (-4, 400, 2)], ids=["offset0", "offset-4"])
def test_offset_zero_reuses_the_anchor_decomposition(monkeypatch, offset, steps, svds):
    # the lattice wall never moves, so a run decomposes its chain once; with no anchor
    # offset the initial orbitals are that chain's own ground state, and a launch from
    # a displaced wall adds only the launch chain's decomposition
    import peierls.kink

    calls = []
    solve = peierls.kink.sublattice_svd
    monkeypatch.setattr(peierls.kink, "sublattice_svd", lambda *a, **k: calls.append(1) or solve(*a, **k))
    traj = propagate_kink(reference_params(), z_min(), 30, dt=0.5, steps=steps, n_sites=60,
                          initial_anchor_offset=offset)
    assert len(traj.times) == steps + 1
    assert len(calls) == svds


def test_z_motion_is_not_a_config_field():
    # z is frozen: driving it by the lowest eigenvalue did not conserve the
    # reported energy, so the option that selected that mode is gone
    with pytest.raises(ConfigError, match="unknown field 'z_motion'"):
        load_config(reference_config_path("kink_dynamics"), overrides={"z_motion": "lowest"})


def test_propagation_unitarity():
    p = reference_params()
    traj = propagate_kink(p, z_min(), 20, dt=0.5, steps=1000, n_sites=40)
    assert traj.orthonormality_error < 1e-10


def test_shipped_initial_condition_advances():
    cfg = reference_config()
    traj = propagate_kink(
        cfg.model_params(),
        CoherentAmplitude(cfg.z_re, cfg.z_im),
        cfg.kink_site,
        cfg.kink_dt,
        100,  # shortened run: the full shipped length is exercised in acceptance
        n_sites=cfg.n_sites,
        initial_anchor_offset=cfg.anchor_offset,
    )
    positions = np.array(traj.positions)
    assert np.max(np.abs(positions - positions[0])) >= 1.0


def orbital_stepping(params, z0, n0, dt, steps, n_sites=200, initial_anchor_offset=0):
    """Reference propagation that steps the orbitals themselves: the coefficients
    (a, b) = (W^T phi_A, V^T phi_B) on the n0 chain rotate by one step's cos(s dt) and
    -i sin(s dt), and phi_A = W a and phi_B = V b are formed at every step for
    `bond_order`.  4n^3 per step."""
    n_filled = n_sites // 2

    def factors(n_wall):
        off = _offdiagonal(params, KinkConfiguration(n=n_wall, z=z0, n_sites=n_sites))
        return (*sublattice_svd(off), 2.0 * (-1.0) ** np.arange(n_sites - 1) * off)

    w, s, v, weights = factors(n0)
    w0, _, v0, _ = factors(n0 + initial_anchor_offset)
    occupied = np.zeros((n_sites, n_filled), dtype=complex)
    flat = occupied.view(np.float64)
    flat[0::2, 0::2] = w0[:, :n_filled] / math.sqrt(2.0)
    flat[1::2, 0::2] = -v0 / math.sqrt(2.0)
    phonon = n_sites / 2 * phonon_density(z0.re, z0.im)
    traj = KinkTrajectory(times=[], positions=[], energies=[])

    def record(t):
        order = bond_order(occupied)
        traj.times.append(t)
        traj.positions.append(kink_position(order))
        traj.energies.append(float(weights @ order) + phonon)

    record(0.0)
    a = (w.T @ flat[0::2]).view(complex)
    b = (v.T @ flat[1::2]).view(complex)
    cos, rot = np.cos(s * dt)[:, None], -1j * np.sin(s * dt)[:, None]
    t = 0.0
    for _ in range(steps):
        a[:n_filled], b = cos * a[:n_filled] + rot * b, cos * b + rot * a[:n_filled]  # the zero mode stands
        np.matmul(w, a.view(np.float64), out=flat[0::2])
        np.matmul(v, b.view(np.float64), out=flat[1::2])
        t += dt
        record(t)
    gram = occupied.conj().T @ occupied
    traj.orthonormality_error = float(np.linalg.norm(gram - np.eye(n_filled)))
    return traj


@settings(max_examples=100, deadline=None)
@given(n_sites=st.integers(20, 80), data=st.data())
def test_coherence_stepping_matches_orbital_stepping(n_sites, data):
    # the wall starts, and is launched from, at least 6 sites from either end
    n0 = data.draw(st.integers(6, n_sites - 8), label="n0")
    offset = data.draw(st.integers(max(-4, 6 - n0), min(4, n_sites - 8 - n0)), label="offset")
    steps = data.draw(st.integers(0, 60), label="steps")
    args = (reference_params(), z_min(), n0, 0.5, steps)
    kwargs = {"n_sites": n_sites, "initial_anchor_offset": offset}
    oracle = orbital_stepping(*args, **kwargs)
    traj = propagate_kink(*args, **kwargs)
    assert traj.times == oracle.times
    assert np.max(np.abs(np.subtract(traj.positions, oracle.positions))) <= 1e-10
    energies = np.array(oracle.energies)
    assert np.max(np.abs(traj.energies - energies) / np.abs(energies)) <= 1e-12
    assert traj.orthonormality_error <= 1e-10
    # the factors' residual bounds the end-of-run gram's to first order; over every draw at steps=0
    # and a sweep at 1, 20 and 60 steps the ratio stayed within [0.44, 6.1]
    assert 0.1 <= traj.orthonormality_error / oracle.orthonormality_error <= 10.0


def test_orthonormality_error_sees_a_perturbed_factor(monkeypatch):
    # 1e-9 of noise on W breaks W^T W = I, and both residuals must report it
    import peierls.kink

    solve, rng = peierls.kink.sublattice_svd, np.random.default_rng(7)

    def noisy(off):
        w, s, v = solve(off)
        return w + 1e-9 * rng.standard_normal(w.shape), s, v

    monkeypatch.setattr(peierls.kink, "sublattice_svd", noisy)
    monkeypatch.setitem(globals(), "sublattice_svd", noisy)
    args = (reference_params(), z_min(), 30, 0.5, 10)
    kwargs = {"n_sites": 60, "initial_anchor_offset": -4}
    assert orbital_stepping(*args, **kwargs).orthonormality_error > 1e-10
    assert propagate_kink(*args, **kwargs).orthonormality_error > 1e-10


def test_orthonormality_error_does_not_depend_on_the_run_length():
    # each step rotates (a, b) by exact cos and sin, so the residual is the factors' and the launch's
    cfg = reference_config()
    errors = {propagate_kink(cfg.model_params(), z_min(), cfg.kink_site, cfg.kink_dt, steps, n_sites=cfg.n_sites,
                             initial_anchor_offset=cfg.anchor_offset).orthonormality_error for steps in (0, 25, 400)}
    assert len(errors) == 1


def test_each_step_conserves_the_energy_on_one_anchor():
    # the state evolves under the fixed chain whose energy it reports, so each step
    # changes E only by rounding
    cfg = reference_config()
    traj = propagate_kink(cfg.model_params(), z_min(), cfg.kink_site, cfg.kink_dt, cfg.kink_steps,
                          n_sites=cfg.n_sites, initial_anchor_offset=cfg.anchor_offset)
    energies = np.array(traj.energies)
    assert np.max(np.abs(np.diff(energies)) / np.abs(energies[1:])) <= 1e-12


@pytest.mark.parametrize("z", [CoherentAmplitude(0.0, 0.0), CoherentAmplitude(0.35e-2, -1.4e-2)])
def test_propagation_without_a_wall_is_rejected(z):
    # state location 0 makes every bond g: the chain has no wall, and its "position" would be rounding
    p = reference_params()
    assert np.ptp(_offdiagonal(p, KinkConfiguration(n=30, z=z, n_sites=60))) == 0.0
    with pytest.raises(ValueError, match="no wall.*z_re and z_im"):
        propagate_kink(p, z, 30, dt=0.5, steps=5, n_sites=60)
