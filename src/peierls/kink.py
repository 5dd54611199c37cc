"""Kink-staggered coherent states and soliton propagation.

A kink at site n flips the staggering phase: z_j = (-)^j z up to site n
and (-)^(j+1) z beyond.  Bond amplitudes follow from coherent-state
averaging of the exponential hopping, which makes the wall bond exactly g
and keeps the whole chain real.  The single-particle matrix is symmetric
and tridiagonal with a zero diagonal, so eigensolves work on its
off-diagonal vector and observables on nearest-neighbour links.  The
transcription of the averaged kink Hamiltonian that appears with the
omega_l = g - (c + (-)^l s) weights is retained as a flag-selectable
cross-check variant; it does not agree with the mechanical averaging and
is never the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .landscape import phonon_energy_total
from .model import (
    CoherentAmplitude,
    HoppingChain,
    ModelParams,
    effective_coupling,
    state_location,
)

__all__ = [
    "KinkConfiguration",
    "KinkObservables",
    "kink_bonds",
    "kink_matrix",
    "kink_spectrum",
    "kink_energy",
    "difference_operator",
    "difference_operator_literal",
    "zero_subspace",
    "bond_order",
    "kink_position",
    "propagate_kink",
    "KinkTrajectory",
]

KinkVariant = Literal["averaged", "printed"]


@dataclass(frozen=True)
class KinkConfiguration:
    """Kink at site n on an open chain of n_sites sites."""

    n: int
    z: CoherentAmplitude
    n_sites: int

    def __post_init__(self) -> None:
        if self.n_sites < 3:
            raise ValueError("kink chain needs at least 3 sites")
        if not 0 <= self.n <= self.n_sites - 2:
            raise ValueError(f"kink site {self.n} outside [0, {self.n_sites - 2}]")

    def amplitudes(self) -> np.ndarray:
        """Per-site complex amplitudes under the kink staggering."""
        j = np.arange(self.n_sites)
        # (-)^j up to the wall site n, (-)^(j+1) beyond it
        return (-1.0) ** (j + (j > self.n)) * complex(self.z.re, self.z.im)


@dataclass(frozen=True)
class KinkObservables:
    bond_order: np.ndarray
    kink_position: float
    energy: float


def _omega(params: ModelParams, loc: float, ell: int | np.ndarray) -> float | np.ndarray:
    g = effective_coupling(params)
    c, s = g * math.cosh(loc), g * math.sinh(loc)
    return g - (c + (-1.0) ** ell * s)


def _offdiagonal(params: ModelParams, config: KinkConfiguration, variant: KinkVariant = "averaged") -> np.ndarray:
    """Off-diagonal h[j, j+1] = h[j+1, j] of the kink matrix (its diagonal is zero).

    "averaged": -A_j, with A_j = g exp(sqrt(2) Re[(zeta - i kappa)(z_{j+1} - z_j)])
    the coherent-state average of the exponential hopping.
    "printed": the omega-weighted transcription, kept for comparison only.
    """
    if variant == "averaged":
        dz = np.diff(config.amplitudes())
        exponent = math.sqrt(2.0) * (params.zeta * dz.real + params.kappa * dz.imag)
        return -effective_coupling(params) * np.exp(exponent)
    loc = state_location(params, config.z)
    j = np.arange(config.n_sites - 1)
    off = _omega(params, loc, j)
    off[config.n] += _omega(params, loc, config.n)
    s = effective_coupling(params) * math.sinh(loc)
    off[config.n + 1 :] -= 2.0 * s * (-1.0) ** j[config.n + 1 :]
    return off


def kink_bonds(params: ModelParams, config: KinkConfiguration) -> HoppingChain:
    """Open chain of N-1 bonds A_j from direct averaging; the wall bond is g."""
    return HoppingChain(bonds=tuple((-_offdiagonal(params, config)).tolist()), boundary="open")


def kink_matrix(params: ModelParams, config: KinkConfiguration, variant: KinkVariant = "averaged") -> np.ndarray:
    """Dense single-particle matrix of the kink Hamiltonian (see `_offdiagonal`)."""
    off = _offdiagonal(params, config, variant)
    return np.diag(off, 1) + np.diag(off, -1)


def kink_spectrum(
    params: ModelParams, config: KinkConfiguration, variant: KinkVariant = "averaged"
) -> tuple[np.ndarray, float, np.ndarray]:
    """(sorted eigenvalues, lowest eigenvalue, in-gap flags).

    The gap diagnostic marks eigenvalues inside the bulk dimerization gap
    (-2g|sinh loc|, 2g|sinh loc|) of the corresponding uniform chain.
    """
    evals = eigvalsh_tridiagonal(np.zeros(config.n_sites), _offdiagonal(params, config, variant))
    loc = state_location(params, config.z)
    gap_edge = 2.0 * effective_coupling(params) * abs(math.sinh(loc))
    in_gap = np.abs(evals) < gap_edge - 1e-12
    return evals, float(evals[0]), in_gap


def kink_energy(params: ModelParams, z: CoherentAmplitude, n: int, n_sites: int) -> float:
    """Lowest eigenvalue of the kink Hamiltonian as a function of (z, n)."""
    return kink_spectrum(params, KinkConfiguration(n=n, z=z, n_sites=n_sites))[1]


def difference_operator(params: ModelParams, config: KinkConfiguration) -> np.ndarray:
    """The printed difference operator: omega_n on bonds (n+1, n+2) and
    -(omega_n) on (n, n+1); supported on sites {n, n+1, n+2}."""
    if config.n > config.n_sites - 3:
        raise ValueError("need n <= N - 3 for the difference operator")
    loc = state_location(params, config.z)
    om = _omega(params, loc, config.n)
    n = config.n
    d = np.zeros((config.n_sites, config.n_sites))
    d[n + 1, n + 2] = d[n + 2, n + 1] = om
    d[n, n + 1] = d[n + 1, n] = -om
    return d


def difference_operator_literal(params: ModelParams, config: KinkConfiguration) -> np.ndarray:
    """Literal matrix difference H'_{n+1} - H'_n from direct averaging."""
    if config.n > config.n_sites - 3:
        raise ValueError("need n <= N - 3 for the difference operator")
    up = KinkConfiguration(n=config.n + 1, z=config.z, n_sites=config.n_sites)
    return kink_matrix(params, up) - kink_matrix(params, config)


def zero_subspace(
    params: ModelParams, config: KinkConfiguration, tol: float = 1e-10
) -> tuple[int, np.ndarray]:
    """Kernel of the difference operator restricted to sites {n, n+1, n+2}.

    Returns (dimension, orthonormal basis rows in the 3-site coordinates).
    """
    n = config.n
    block = difference_operator(params, config)[n : n + 3, n : n + 3]
    u, sv, _ = np.linalg.svd(block)
    scale = max(1.0, float(sv[0]))
    null_mask = sv < tol * scale
    basis = u[:, null_mask].T
    return int(null_mask.sum()), basis


def bond_order(occupied: np.ndarray) -> np.ndarray:
    """Staggered bond order B_j = (-)^j Re <f+_{j+1} f_j> from occupied orbitals.

    `occupied` is an (n_sites, n_filled) matrix of orthonormal columns.  The
    link sum Re sum_m conj(phi_{j,m}) phi_{j+1,m} is the superdiagonal of the
    coherence matrix, read without forming it.
    """
    link = np.einsum("jm,jm->j", occupied[:-1].conj(), occupied[1:]).real
    return (-1.0) ** np.arange(len(link)) * link


def kink_position(order: np.ndarray, window: int = 4) -> float:
    """Interpolated location of the dimerization-envelope sign change.

    The staggered bond order carries an alternating background from the
    uniform part of the coherence; an even-width moving average cancels it
    exactly (period-2 sum is zero) and leaves the dimerization envelope,
    which flips sign at the wall.  If boundary oscillations produce
    several crossings, the one with the largest left/right contrast wins;
    the returned coordinate is the interpolated bond index at the window
    center.
    """
    order = np.asarray(order, dtype=float)
    if window % 2 or window < 2:
        raise ValueError("window must be a positive even integer")
    if len(order) < window + 1:
        raise ValueError("bond-order profile shorter than the smoothing window")
    kernel = np.full(window, 1.0 / window)
    envelope = np.convolve(order, kernel, mode="valid")
    offset = 0.5 * (window - 1)
    crossings = np.flatnonzero(envelope[:-1] * envelope[1:] < 0.0)
    if not crossings.size:
        zero = np.argmin(np.abs(envelope))
        return float(zero) + offset
    def contrast(j: int) -> float:
        left = envelope[max(0, j - 4) : j + 1]
        right = envelope[j + 1 : j + 6]
        return abs(float(np.mean(right)) - float(np.mean(left)))
    best = max(crossings, key=contrast)
    frac = envelope[best] / (envelope[best] - envelope[best + 1])
    return float(best + frac + offset)


@dataclass
class KinkTrajectory:
    times: list[float]
    z_values: list[CoherentAmplitude]
    positions: list[float]
    energies: list[float]
    anchors: list[int]
    termination: str = "completed"
    orthonormality_error: float = 0.0


def propagate_kink(
    params: ModelParams,
    z0: CoherentAmplitude,
    n0: int,
    dt: float,
    steps: int,
    n_sites: int = 200,
    initial_anchor_offset: int = 0,
    z_functional: Literal["lowest", "frozen"] = "lowest",
    hysteresis: float = 0.25,
) -> KinkTrajectory:
    """Operator-splitting evolution of the kink state.

    Per step: (a) one canonical-flow step of z under the lowest kink
    eigenvalue (finite-difference gradient, energy-conserving convention),
    or no z motion with z_functional="frozen"; (b) exact single-particle
    evolution of the occupied orbitals under the current kink Hamiltonian
    by its step propagator, built from the tridiagonal eigendecomposition
    and cached under (n, z); (c) observables from the nearest-neighbour
    links; (d) re-anchoring of n when the bond-order wall crosses
    n +- (1 + hysteresis).

    The initial orbitals are the half-filled ground state of the kink
    Hamiltonian anchored at n0 + initial_anchor_offset, which lets a
    deliberately displaced wall evolve under the n0 chain.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if z_functional not in ("lowest", "frozen"):
        raise ValueError(f"z_functional must be 'lowest' or 'frozen', got {z_functional!r}")
    n = n0
    z = z0
    n_filled = n_sites // 2
    zeros = np.zeros(n_sites)

    # step propagator U exp(-i eps dt) U^T of the anchored Hamiltonian, its eigenvectors
    # U and its staggered off-diagonal 2 (-)^j h[j, j+1], cached under (n, z)
    cache_key: tuple[int, float, float] | None = None
    propagator = energy_weights = vectors = None

    def anchored(n_anchor: int, zc: CoherentAmplitude):
        nonlocal cache_key, propagator, energy_weights, vectors
        key = (n_anchor, zc.re, zc.im)
        if key != cache_key:
            off = _offdiagonal(params, KinkConfiguration(n=n_anchor, z=zc, n_sites=n_sites))
            ev, vectors = eigh_tridiagonal(zeros, off)
            propagator = (vectors * np.exp(-1j * ev * dt)) @ vectors.T
            energy_weights = 2.0 * (-1.0) ** np.arange(n_sites - 1) * off
            cache_key = key
        return propagator, energy_weights

    anchored(n, z)  # checks n0 as given, before the anchor offset is added
    vecs = vectors
    if initial_anchor_offset:
        init_cfg = KinkConfiguration(n=n0 + initial_anchor_offset, z=z, n_sites=n_sites)
        _, vecs = eigh_tridiagonal(zeros, _offdiagonal(params, init_cfg))
    occupied = vecs[:, :n_filled].astype(complex)

    def observables(zc: CoherentAmplitude) -> KinkObservables:
        order = bond_order(occupied)
        # E_el = 2 sum_j h[j, j+1] Re<f+_{j+1} f_j>, and that link is (-)^j B_j
        _, weights = anchored(n, zc)
        electronic = float(weights @ order)
        return KinkObservables(
            bond_order=order,
            kink_position=kink_position(order),
            energy=electronic + phonon_energy_total(zc, n_sites / 2),  # n_sites / 2 cells
        )

    traj = KinkTrajectory(times=[], z_values=[], positions=[], energies=[], anchors=[])
    t = 0.0
    obs = observables(z)
    traj.times.append(t)
    traj.z_values.append(z)
    traj.positions.append(obs.kink_position)
    traj.energies.append(obs.energy)
    traj.anchors.append(n)

    fd = 1e-6

    def z_velocity(zc: CoherentAmplitude) -> complex:
        gre = (kink_energy(params, CoherentAmplitude(zc.re + fd, zc.im), n, n_sites)
               - kink_energy(params, CoherentAmplitude(zc.re - fd, zc.im), n, n_sites)) / (2 * fd)
        gim = (kink_energy(params, CoherentAmplitude(zc.re, zc.im + fd), n, n_sites)
               - kink_energy(params, CoherentAmplitude(zc.re, zc.im - fd), n, n_sites)) / (2 * fd)
        return -1j * 0.5 * complex(gre, gim)

    for _ in range(steps):
        if z_functional == "lowest":
            vel = z_velocity(z)
            z = CoherentAmplitude(z.re + dt * vel.real, z.im + dt * vel.imag)
            if not (math.isfinite(z.re) and math.isfinite(z.im)):
                traj.termination = "non-finite"
                break
        step, _ = anchored(n, z)
        occupied = step @ occupied
        t += dt
        obs = observables(z)
        if obs.kink_position >= n + 1 + hysteresis and n < n_sites - 2:
            n += 1
        elif obs.kink_position <= n - hysteresis and n > 0:
            n -= 1
        traj.times.append(t)
        traj.z_values.append(z)
        traj.positions.append(obs.kink_position)
        traj.energies.append(obs.energy)
        traj.anchors.append(n)
    gram = occupied.conj().T @ occupied
    traj.orthonormality_error = float(np.linalg.norm(gram - np.eye(n_filled)))
    return traj
