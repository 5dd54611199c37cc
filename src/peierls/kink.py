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
propagation steps the even-odd coherence block in that basis.  z is
frozen, so the lattice wall is fixed, and a launched electronic wall
relaxes onto it at conserved energy.  This is the SSH chain (Su, Schrieffer & Heeger, PRL 42, 1698, 1979).  The
printed three-site difference operator, with weights
omega_l = g - (c + (-)^l s), is a cross-check that lives in `validate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .landscape import phonon_density
from .model import (
    CoherentAmplitude,
    ModelParams,
    _bonds,
    _dqds,
    _lapack,
    effective_coupling,
    state_location,
)

__all__ = [
    "KinkConfiguration",
    "kink_spectrum",
    "sublattice_svd",
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
    wall; z is never differenced, and `_bonds` rejects a loc whose bonds overflow.
    """
    return -_bonds(params, config.z, np.diff(config.staggering()).astype(int) // 2)


def kink_spectrum(params: ModelParams, config: KinkConfiguration) -> tuple[np.ndarray, float, np.ndarray]:
    """(sorted eigenvalues, lowest eigenvalue, in-gap flags).

    The eigenvalues are -s ascending, 0 for odd N, then s, from the singular values
    of the even-odd block, so the spectrum is exactly +- symmetric.  The gap
    diagnostic marks eigenvalues inside the bulk dimerization gap
    (-2g|sinh loc|, 2g|sinh loc|) of the corresponding uniform chain.
    """
    d, e, n_filled = _bidiagonal(_offdiagonal(params, config))
    s = _dqds(d, e)[:n_filled]
    evals = np.concatenate([-s, np.zeros(config.n_sites % 2), s[::-1]])
    loc = state_location(params, config.z)
    gap_edge = 2.0 * effective_coupling(params) * abs(math.sinh(loc))
    in_gap = np.abs(evals) < gap_edge * (1.0 - 1e-12)  # a relative margin: the edge scales with g
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
    d, e, n_filled = _bidiagonal(off)
    n = len(d)
    size, info = np.array([n], dtype=np.intc), np.zeros(1, dtype=np.intc)
    # LAPACK writes column-major, so the C-order u receives U^T and the C-order v receives V;
    # q and iq (the 10th and 11th arguments) are not read with compq = 'I'
    u, v = np.empty((2, n, n))
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.intc)
    _lapack("dbdsdc", 14)(b"L", b"I", size, d, e, u, size, v, size, work, iwork, work, iwork, info)
    if info[0]:
        raise np.linalg.LinAlgError(f"bidiagonal SVD of the kink chain failed (LAPACK info {info[0]})")
    return u.T, d[:n_filled], v[:n_filled, :n_filled]


def _bidiagonal(off: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(d, e, n_filled): the even-odd block C of the chain with off-diagonal `off` as a square
    lower bidiagonal, diagonal d = off[0::2] and subdiagonal e = off[1::2], and its floor(N/2)
    columns.  Odd N pads a zero column, whose zero singular value comes last.  dqds on (d, e)
    keeps high relative accuracy down to the exponentially small wall state."""
    off = np.asarray(off, dtype=float)
    if not np.isfinite(off).all():
        raise ValueError("kink chain bonds must be finite")
    n, n_filled = len(off) // 2 + 1, (len(off) + 1) // 2  # ceil(N/2) rows, floor(N/2) columns of C
    d, e = np.zeros((2, n))
    d[:n_filled], e[: n - 1] = off[0::2], off[1::2]
    return d, e, n_filled


_WINDOW = 4  # bonds in kink_position's moving average; even, so the period-2 background cancels


def kink_position(order: np.ndarray) -> float:
    """Interpolated location of the dimerization-envelope sign change.

    The staggered bond order carries an alternating background from the
    uniform part of the coherence; a moving average over _WINDOW = 4 bonds
    cancels it exactly (period-2 sum is zero) and leaves the dimerization
    envelope, which flips sign at the wall.  If boundary oscillations
    produce several crossings, the one with the largest left/right contrast
    wins; the returned coordinate is the interpolated bond index at the
    window center.  A profile needs at least _WINDOW + 1 bonds.
    """
    order = np.asarray(order, dtype=float)
    if len(order) < _WINDOW + 1:
        raise ValueError("bond-order profile shorter than the smoothing window")
    envelope = np.convolve(order, np.full(_WINDOW, 1.0 / _WINDOW), mode="valid")
    offset = 0.5 * (_WINDOW - 1)
    crossings = np.flatnonzero(envelope[:-1] * envelope[1:] < 0.0)
    if not crossings.size:
        return float(np.argmin(np.abs(envelope))) + offset
    def contrast(j: int) -> float:
        left = envelope[max(0, j - 4) : j + 1]
        right = envelope[j + 1 : j + 6]
        return abs(float(np.mean(right)) - float(np.mean(left)))
    best = max(crossings, key=contrast) if crossings.size > 1 else crossings[0]
    frac = envelope[best] / (envelope[best] - envelope[best + 1])
    return float(best + frac + offset)


@dataclass
class KinkTrajectory:
    times: list[float]
    positions: list[float]
    energies: list[float]
    orthonormality_error: float = 0.0


def propagate_kink(
    params: ModelParams,
    z0: CoherentAmplitude,
    n0: int,
    dt: float,
    steps: int,
    n_sites: int = 200,
    initial_anchor_offset: int = 0,
) -> KinkTrajectory:
    """Exact evolution of the occupied orbitals under the kink chain with its wall at n0.

    z stays at z0, so the lattice wall stays at n0: one `sublattice_svd` C = W diag(s) V^T
    diagonalises the chain for the whole run, and the orbitals are the coefficients
    (a, b) = (W^T phi_A, V^T phi_B) of their even and odd sites.  k steps on,
    a_k = c a - i sigma b and b_k = c b - i sigma a, with c = cos(s k dt) and
    sigma = sin(s k dt) (c = 1, sigma = 0 on the zero-mode row of a, odd N).  A free-fermion
    state is fixed by its coherence: the bond order's links are the diagonal and subdiagonal
    of Re(phi_A phi_B^+) = W R V^T.  The launch state is real, so R = Re(a_k b_k^+) =
    c X c + sigma X^T sigma comes elementwise from X = a b^T, and a step is one product W R.
    The orbitals are never formed: `orthonormality_error` is ||W^T W - I|| + ||V^T V - I|| +
    ||a^T a + b^T b - I|| (Frobenius), of the factors and the launch, so it does not depend on `steps`.

    The initial orbitals are the half-filled ground state (w_k, -v_k)/sqrt 2 of the chain
    with its wall at n0 + initial_anchor_offset, which lets a deliberately displaced
    electronic wall relax under the n0 chain.  A z that makes every bond equal leaves no
    wall: ValueError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_sites < _WINDOW + 2:  # kink_position's window needs _WINDOW + 1 links
        raise ValueError(f"n_sites: propagating a kink needs at least {_WINDOW + 2} sites, got {n_sites}")
    n_filled = n_sites // 2  # floor(N/2), the rows of V

    def factors(n_wall: int):
        off = _offdiagonal(params, KinkConfiguration(n=n_wall, z=z0, n_sites=n_sites))
        return sublattice_svd(off), off

    (w, s, v), off = factors(n0)  # checks n0 as given, before the anchor offset is added
    if not math.isfinite(phonon := n_sites / 2 * phonon_density(z0.re, z0.im)):
        raise ValueError(f"phonon energy of z = ({z0.re}, {z0.im}) is not finite")
    if (off == off[0]).all():
        raise ValueError(f"z = ({z0.re}, {z0.im}) makes every bond of the kink chain equal, so it has no "
                         "wall to propagate; set z_re and z_im to a dimerized amplitude")
    w0, _, v0 = factors(n0 + initial_anchor_offset)[0] if initial_anchor_offset else (w, s, v)

    traj = KinkTrajectory(times=[], positions=[], energies=[])
    link, sign = np.empty(n_sites - 1), (-1.0) ** np.arange(n_sites - 1)

    def record(t: float, rows_a: np.ndarray, rows_b: np.ndarray) -> None:
        """Record the state whose Re(phi_A phi_B^+) is rows_a rows_b^T."""
        # link 2i = Re<f+_{2i+1} f_2i> joins A row i to B row i; link 2i+1 joins B row i to A row i+1
        np.einsum("ij,ij->i", rows_a[:n_filled], rows_b, out=link[0::2])
        np.einsum("ij,ij->i", rows_a[1:], rows_b[: len(rows_a) - 1], out=link[1::2])
        traj.times.append(t)
        traj.positions.append(kink_position(sign * link))
        traj.energies.append(float((2.0 * off) @ link) + phonon)  # E_el = 2 sum_j h[j, j+1] link_j

    record(0.0, w0[:, :n_filled] / math.sqrt(2.0), -v0 / math.sqrt(2.0))
    a, b = w.T @ w0[:, :n_filled] / math.sqrt(2.0), -(v.T @ v0) / math.sqrt(2.0)
    n_a = len(a)
    phase = np.zeros((2, n_a))  # (c, sigma) per row of a; the zero-mode row of an odd chain stands still
    phase[0] = 1.0
    block = np.zeros((2, n_a, n_filled))  # X, and X^T on the rotating rows: R = c block[0] c + sigma block[1] sigma
    np.matmul(a, b.T, out=block[0])
    block[1, :n_filled] = block[0, :n_filled].T
    r, t = np.empty_like(block), 0.0
    for k in range(1, steps + 1):
        phase[0, :n_filled], phase[1, :n_filled] = np.cos(s * (k * dt)), np.sin(s * (k * dt))
        np.multiply(block, phase[:, None, :n_filled], out=r)
        r *= phase[:, :, None]
        r[0] += r[1]
        t += dt
        record(t, w @ r[0], v)
    del block, r, w0, v0  # so the residual's products, one at a time, stay below the loop's peak
    eye = np.eye(n_filled)  # a step rotates (a, b) exactly, so a_k^+ a_k + b_k^+ b_k = a^T a + b^T b
    traj.orthonormality_error = float(np.linalg.norm(w.T @ w - np.eye(n_a)) + np.linalg.norm(v.T @ v - eye)
                                      + np.linalg.norm(a.T @ a + b.T @ b - eye))
    return traj
