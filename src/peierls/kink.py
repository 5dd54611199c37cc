"""Kink-staggered coherent states and soliton propagation.

A kink at site n flips the staggering phase: z_j = (-)^j z up to site n
and (-)^(j+1) z beyond.  Bond amplitudes follow from coherent-state
averaging of the exponential hopping, which makes the wall bond exactly g
and keeps the whole chain real.  The single-particle matrix is symmetric
and tridiagonal with a zero diagonal, so spectra come from its
off-diagonal vector and observables from nearest-neighbour links.  Its
bonds join even sites to odd ones only (chiral, or sublattice, symmetry),
so every eigenpair is +-s from the SVD of the even-odd block, which is
lower bidiagonal: LAPACK's dqds gives the spectrum to high relative
accuracy, its bidiagonal divide and conquer gives the vectors, and
propagation rotates the orbitals' coefficients in that basis.  This is
the SSH chain (Su, Schrieffer & Heeger, PRL 42, 1698, 1979).  The
printed three-site difference operator, with weights
omega_l = g - (c + (-)^l s), is a cross-check that lives in `validate`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .landscape import phonon_density
from .model import (
    CoherentAmplitude,
    ModelParams,
    _dqds,
    _lapack,
    effective_coupling,
    state_location,
)

__all__ = [
    "KinkConfiguration",
    "kink_spectrum",
    "sublattice_svd",
    "bond_order",
    "kink_position",
    "propagate_kink",
    "KinkTrajectory",
]


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

    def staggering(self) -> np.ndarray:
        """Per-site sign of the amplitude z_j: (-)^j up to the wall site n, (-)^(j+1) beyond it."""
        j = np.arange(self.n_sites)
        return (-1.0) ** (j + (j > self.n))


def _offdiagonal(params: ModelParams, config: KinkConfiguration) -> np.ndarray:
    """Off-diagonal h[j, j+1] = h[j+1, j] of the kink matrix (its diagonal is zero):
    -A_j, with A_j = g exp(sqrt(2) Re[(zeta - i kappa)(z_{j+1} - z_j)]) the
    coherent-state average of the exponential hopping.  z_{j+1} - z_j is z times a
    step of the staggering, so the exponent is +-loc in the bulk and 0 across the
    wall; z is never differenced, and a loc whose bonds would overflow is rejected.
    """
    g = effective_coupling(params)
    loc = state_location(params, config.z)
    if not abs(loc) < math.log(sys.float_info.max / max(g, 1.0)):  # NaN fails too
        raise ValueError(f"kink bonds g exp(+-loc) overflow at state location {loc}")
    return -g * np.exp(0.5 * np.diff(config.staggering()) * loc)


def kink_spectrum(params: ModelParams, config: KinkConfiguration) -> tuple[np.ndarray, float, np.ndarray]:
    """(sorted eigenvalues, lowest eigenvalue, in-gap flags).

    The eigenvalues are -s ascending, 0 for odd N, then s, from the singular values
    of the even-odd block, so the spectrum is exactly +- symmetric.  The gap
    diagnostic marks eigenvalues inside the bulk dimerization gap
    (-2g|sinh loc|, 2g|sinh loc|) of the corresponding uniform chain.
    """
    s = _bidiagonal(_offdiagonal(params, config), vectors=False)
    evals = np.concatenate([-s, np.zeros(config.n_sites % 2), s[::-1]])
    loc = state_location(params, config.z)
    gap_edge = 2.0 * effective_coupling(params) * abs(math.sinh(loc))
    in_gap = np.abs(evals) < gap_edge - 1e-12
    return evals, float(evals[0]), in_gap


def sublattice_svd(off: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, s, V) with C = W diag(s) V^T for the zero-diagonal tridiagonal h with off-diagonal `off`.

    With even sites A and odd sites B, h = [[0, C], [C^T, 0]], where C is the
    ceil(N/2) x floor(N/2) lower-bidiagonal block C[i, i] = off[2i], C[i+1, i] = off[2i+1],
    decomposed by LAPACK's bidiagonal divide and conquer (`dbdsdc`).
    Each triple gives the eigenpairs (+-s_k, (w_k, +-v_k) / sqrt 2); for odd N the
    last column of the square W is the zero mode (w, 0).  The (w_k, -v_k) / sqrt 2
    are the filled sea.
    """
    return _bidiagonal(off, vectors=True)


def _bidiagonal(off: np.ndarray, vectors: bool) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values s (descending) of the even-odd block C of the chain with off-diagonal
    `off`, and with `vectors` the (W, s, V) of `sublattice_svd`.

    C is made square and lower bidiagonal, diagonal off[0::2] and subdiagonal off[1::2];
    odd N pads a zero column, whose zero singular value comes last and is dropped.
    Values come from dqds (`model._dqds`), which keeps high relative accuracy down to the
    exponentially small wall state; vectors from `dbdsdc`.
    """
    off = np.asarray(off, dtype=float)
    if not np.isfinite(off).all():
        raise ValueError("kink chain bonds must be finite")
    n, n_filled = len(off) // 2 + 1, (len(off) + 1) // 2  # ceil(N/2) rows, floor(N/2) columns of C
    d, e = np.zeros((2, n))
    d[:n_filled], e[: n - 1] = off[0::2], off[1::2]
    if not vectors:
        return _dqds(d, e)[:n_filled]
    size, info = np.array([n], dtype=np.intc), np.zeros(1, dtype=np.intc)
    # LAPACK writes column-major, so the C-order u receives U^T and the C-order v receives V;
    # q and iq (the 10th and 11th arguments) are not read with compq = 'I'
    u, v = np.empty((2, n, n))
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.intc)
    _lapack("dbdsdc", 14)(b"L", b"I", size, d, e, u, size, v, size, work, iwork, work, iwork, info)
    if info[0]:
        raise np.linalg.LinAlgError(f"bidiagonal SVD of the kink chain failed (LAPACK info {info[0]})")
    return u.T, d[:n_filled], v[:n_filled, :n_filled]


def bond_order(occupied: np.ndarray) -> np.ndarray:
    """Staggered bond order B_j = (-)^j Re <f+_{j+1} f_j> from occupied orbitals.

    `occupied` is an (n_sites, n_filled) matrix of orthonormal columns.  The
    link sum Re sum_m conj(phi_{j,m}) phi_{j+1,m} is the superdiagonal of the
    coherence matrix, read without forming it.
    """
    flat = np.ascontiguousarray(occupied)
    if np.iscomplexobj(flat):  # Re conj(x) y sums the products of the float parts
        flat = flat.view(np.float64)
    link = np.einsum("jm,jm->j", flat[:-1], flat[1:])
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
    positions: list[float]
    energies: list[float]
    anchors: list[int]
    orthonormality_error: float = 0.0


def propagate_kink(
    params: ModelParams,
    z0: CoherentAmplitude,
    n0: int,
    dt: float,
    steps: int,
    n_sites: int = 200,
    initial_anchor_offset: int = 0,
    hysteresis: float = 0.25,
) -> KinkTrajectory:
    """Exact evolution of the occupied orbitals under the kink chain anchored at n.

    z stays at z0.  Per anchor, one `sublattice_svd` C = W diag(s) V^T
    diagonalises the chain, and the orbitals are kept as the coefficients
    (a, b) = (W^T phi_A, V^T phi_B) of their even and odd sites.  A step
    rotates each pair, a <- cos(s dt) a - i sin(s dt) b and
    b <- cos(s dt) b - i sin(s dt) a (the zero-mode row of a, odd N, stays),
    and phi_A = W a, phi_B = V b are two real products over the float view.
    n re-anchors when the bond-order wall crosses n +- (1 + hysteresis), and
    the coefficients are projected onto the new anchor's factors.

    The initial orbitals are the half-filled ground state (w_k, -v_k)/sqrt 2
    of the chain anchored at n0 + initial_anchor_offset, which lets a
    deliberately displaced wall evolve under the n0 chain.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = n0
    n_filled = n_sites // 2  # = floor(N/2), the rows of V
    # orbitals in site order: even rows phi_A, odd rows phi_B
    occupied = np.zeros((n_sites, n_filled), dtype=complex)
    flat = occupied.view(np.float64)

    def factors(n_anchor: int):
        off = _offdiagonal(params, KinkConfiguration(n=n_anchor, z=z0, n_sites=n_sites))
        # E_el = 2 sum_j h[j, j+1] Re<f+_{j+1} f_j>, and that link is (-)^j B_j
        return (*sublattice_svd(off), 2.0 * (-1.0) ** np.arange(n_sites - 1) * off)

    w, s, v, weights = factors(n)  # checks n0 as given, before the anchor offset is added
    w0, _, v0, _ = factors(n + initial_anchor_offset) if initial_anchor_offset else (w, s, v, weights)
    flat[0::2, 0::2] = w0[:, :n_filled] / math.sqrt(2.0)  # real parts
    flat[1::2, 0::2] = -v0 / math.sqrt(2.0)
    if not math.isfinite(phonon := n_sites / 2 * phonon_density(z0.re, z0.im)):
        raise ValueError(f"phonon energy of z = ({z0.re}, {z0.im}) is not finite")

    traj = KinkTrajectory(times=[], positions=[], energies=[], anchors=[])

    def record(t: float) -> float:
        order = bond_order(occupied)
        traj.times.append(t)
        traj.positions.append(kink_position(order))
        traj.energies.append(float(weights @ order) + phonon)
        return traj.positions[-1]

    record(0.0)
    traj.anchors.append(n)
    t = 0.0
    anchor = None
    mix = np.empty((2, n_filled, n_filled), dtype=complex)
    for _ in range(steps):
        if anchor != n:  # first step, or the wall hopped: project onto this anchor
            if anchor is not None:
                w, s, v, weights = factors(n)
            anchor = n
            a = (w.T @ flat[0::2]).view(complex)
            b = (v.T @ flat[1::2]).view(complex)
            paired = a[:n_filled]  # the zero-mode row of an odd chain stands still
            cos, rot = np.cos(s * dt)[:, None], -1j * np.sin(s * dt)[:, None]
        # (a, b) <- (cos a + rot b, cos b + rot a), in place
        np.multiply(rot, b, out=mix[0])
        np.multiply(rot, paired, out=mix[1])
        paired *= cos
        paired += mix[0]
        b *= cos
        b += mix[1]
        np.matmul(w, a.view(np.float64), out=flat[0::2])
        np.matmul(v, b.view(np.float64), out=flat[1::2])
        t += dt
        position = record(t)
        if position >= n + 1 + hysteresis and n < n_sites - 2:
            n += 1
        elif position <= n - hysteresis and n > 0:
            n -= 1
        traj.anchors.append(n)
    gram = occupied.conj().T @ occupied
    traj.orthonormality_error = float(np.linalg.norm(gram - np.eye(n_filled)))
    return traj
