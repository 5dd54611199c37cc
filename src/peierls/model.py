"""Physical parameters, coherent-state kinematics, and the staggered ring.

The chain has 2L sites.  A phonon coherent amplitude z per site (staggered
as z_j = (-)^j z) turns the exponential electron-phonon hopping into real
bond amplitudes g * exp(-(-)^j zeta_loc), where zeta_loc is the "state
location" 2*sqrt(2)*(zeta*Re z + kappa*Im z) and g = t*exp(zeta^2+kappa^2)
is the effective coupling.  The time-reversal phase of the bare hopping is
folded in analytically, so every averaged amplitude is real.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "CoherentAmplitude",
    "state_location",
    "effective_coupling",
    "staggered_bonds",
    "ring_spectrum",
    "staggered_ring_bands",
]


@dataclass(frozen=True)
class ModelParams:
    """Model constants: bare hopping t, couplings zeta/kappa, chain half
    length big_l (2L sites), deformation parameter q > 0 and exponent w.
    The effective coupling g = t exp(zeta^2 + kappa^2) and the deformation
    factors q^w and q^-w must be finite; anything else raises ValueError."""

    t: float = 1.0
    zeta: float = 0.0
    kappa: float = 0.0
    big_l: int = 16
    q: float = 1.0
    w: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "zeta", "kappa", "q", "w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.big_l < 1:
            raise ValueError(f"big_l must be >= 1, got {self.big_l}")
        if not math.isfinite(_finite_or_inf(effective_coupling, self)):
            raise ValueError(f"effective coupling g = t exp(zeta^2 + kappa^2) is not finite at "
                             f"t={self.t}, zeta={self.zeta}, kappa={self.kappa}")
        if not all(math.isfinite(_finite_or_inf(pow, self.q, sign * self.w)) for sign in (1.0, -1.0)):
            raise ValueError(f"q^w and q^-w must be finite, got q={self.q}, w={self.w}")


def _finite_or_inf(f, *args) -> float:
    """f(*args), with an OverflowError read as inf."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CoherentAmplitude:
    """Staggering amplitude z; re ~ expected displacement, im ~ momentum (scalars, or arrays of one shape)."""

    re: float | np.ndarray = 0.0
    im: float | np.ndarray = 0.0

    def __neg__(self) -> "CoherentAmplitude":
        return CoherentAmplitude(-self.re, -self.im)


def state_location(params: ModelParams, z: CoherentAmplitude) -> float | np.ndarray:
    """2*sqrt(2)*(zeta*Re z + kappa*Im z); odd under z -> -z."""
    return 2.0 * math.sqrt(2.0) * (params.zeta * z.re + params.kappa * z.im)


def effective_coupling(params: ModelParams) -> float:
    """g = t * exp(zeta^2 + kappa^2) >= t."""
    return params.t * math.exp(params.zeta**2 + params.kappa**2)


def _bonds(params: ModelParams, z: CoherentAmplitude, step: np.ndarray) -> np.ndarray:
    """Bonds g*exp(step_j loc), step_j in {-1, 0, 1}: +-1 in a staggered bulk, 0 across a kink's
    wall.  A loc whose bulk bonds would overflow raises ValueError (`ModelParams` keeps g finite)."""
    g, loc = effective_coupling(params), state_location(params, z)
    if not abs(loc) < math.log(sys.float_info.max / max(g, 1.0)):  # NaN fails too
        raise ValueError(f"bonds g exp(+-loc) overflow at state location {loc}")
    return np.array([g * math.exp(-loc), g, g * math.exp(loc)])[step + 1]


def staggered_bonds(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """The 2L bonds g*(cosh - (-)^j sinh) = g*exp(-(-)^j loc) of the periodic chain."""
    return _bonds(params, z, np.tile([-1, 1], params.big_l))


def ring_spectrum(bonds: np.ndarray) -> np.ndarray:
    """Eigenvalues, non-decreasing, of the ring's single-particle matrix: -A_j on (j, j+1 mod n),
    where bond j = A_j joins sites j and (j + 1) mod n.

    Every bond joins an even site to an odd one (chiral symmetry), so for n = 2m the
    matrix is [[0, C], [C^T, 0]] and its eigenvalues are +-s for the singular values s
    of the m x m cyclic lower bidiagonal C[i, i] = -A_2i, C[(i+1) mod m, i] = -A_2i+1
    (at m = 1 both bonds add into the one entry).  With the even and the odd sites each
    numbered in the ring's folded order 0, n-1, 1, n-2, ..., C is a band with one sub-
    and one superdiagonal.  LAPACK's `dgbbrd` reduces that band to bidiagonal form and
    dqds (`dlasq1`) gives its singular values, in O(n^2) time and O(n) memory.  The
    result (-s ascending, then s) is exactly +- symmetric.  An odd ring is not
    bipartite and raises ValueError.
    """
    bonds = np.asarray(bonds, dtype=float)
    if not np.all(np.isfinite(bonds)):
        raise ValueError("matrix has non-finite entries")
    n = len(bonds)
    if n < 2:
        raise ValueError("need at least 2 sites")
    if n % 2:
        raise ValueError(f"a ring of {n} sites is not bipartite: need an even number of bonds")
    m = n // 2
    cell = np.arange(m)
    even = np.where(cell < (m + 1) // 2, 2 * cell, 2 * (m - 1 - cell) + 1)  # row of site 2i
    odd = even[::-1]  # column of site 2i + 1: the ring's folded order visits m-1, 0, m-2, 1, ...
    rows, cols = np.concatenate([even, np.roll(even, -1)]), np.concatenate([odd, odd])
    band = np.zeros((m, 3))  # band[j, 1 + i - j] is entry (i, j): LAPACK's column-major band storage
    # added, not set: at m = 1 both bonds join sites 0 and 1
    np.add.at(band, (cols, 1 + rows - cols), -np.concatenate([bonds[0::2], bonds[1::2]]))
    d, e = np.zeros((2, m))
    size, zero, one, three = (np.array([k], dtype=np.intc) for k in (m, 0, 1, 3))
    unused, info = np.zeros(1), np.zeros(1, dtype=np.intc)  # Q, P^T and C are not read with vect = 'N'
    _lapack("dgbbrd", 18)(b"N", size, size, zero, one, one, band, three, d, e,
                          unused, one, unused, one, unused, one, np.empty(2 * m), info)
    if info[0]:
        raise np.linalg.LinAlgError(f"band bidiagonalization of the ring failed (LAPACK info {info[0]})")
    s = _dqds(d, e)
    return np.concatenate([-s, s[::-1]])


@functools.cache  # loads scipy.linalg at the first solve, not with every command
def _lapack(name: str, n_args: int):
    """LAPACK routine `name` through the function pointer scipy.linalg.cython_lapack exports.

    Every argument is passed by address, as in Fortran; arrays go as their data pointers.
    """
    import ctypes

    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    api = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    capsule = capsules[name]
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(pointer(capsule, capsule_name(capsule)))
    return lambda *args: routine(*(a.ctypes.data if isinstance(a, np.ndarray) else a for a in args))


def _dqds(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Singular values, descending, of the bidiagonal matrix with diagonal d and off-diagonal e
    (both float arrays of length len(d), overwritten), from LAPACK's dqds (`dlasq1`), which keeps
    high relative accuracy (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873, 1990).

    A nonzero LAPACK info (no convergence) raises np.linalg.LinAlgError.
    """
    info = np.zeros(1, dtype=np.intc)
    _lapack("dlasq1", 5)(np.array([len(d)], dtype=np.intc), d, e, np.empty(4 * len(d)), info)
    if info[0]:
        raise np.linalg.LinAlgError(f"bidiagonal SVD failed (LAPACK info {info[0]})")
    return d


def staggered_ring_bands(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """Analytic spectrum of the staggered ring: +-2g*sqrt(sinh^2 + cos^2(pi m/L)).

    Independent of any eigensolver; used as an oracle for `ring_spectrum`.
    """
    g = effective_coupling(params)
    loc = state_location(params, z)
    m = np.arange(params.big_l)
    root = 2.0 * g * np.sqrt(math.sinh(loc) ** 2 + np.cos(np.pi * m / params.big_l) ** 2)
    return np.sort(np.concatenate([-root, root]))
