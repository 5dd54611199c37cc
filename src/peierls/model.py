"""Physical parameters, coherent-state kinematics, and hopping chains.

The chain has 2L sites.  A phonon coherent amplitude z per site (staggered
as z_j = (-)^j z) turns the exponential electron-phonon hopping into real
bond amplitudes g * exp(-(-)^j zeta_loc), where zeta_loc is the "state
location" 2*sqrt(2)*(zeta*Re z + kappa*Im z) and g = t*exp(zeta^2+kappa^2)
is the effective coupling.  The time-reversal phase of the bare hopping is
folded in analytically, so every averaged amplitude is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "ModelParams",
    "CoherentAmplitude",
    "HoppingChain",
    "state_location",
    "effective_coupling",
    "staggered_bonds",
    "single_particle_matrix",
    "spectrum",
    "staggered_ring_bands",
]


@dataclass(frozen=True)
class ModelParams:
    """Model constants: bare hopping t, couplings zeta/kappa, chain half
    length big_l (2L sites), deformation parameter q > 0 and exponent w."""

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

    @property
    def g(self) -> float:
        return effective_coupling(self)

    @property
    def xi_q(self) -> float:
        from .algebra import xi

        return xi(self.q, self.w)


@dataclass(frozen=True)
class CoherentAmplitude:
    """Staggering amplitude z; re ~ expected displacement, im ~ momentum."""

    re: float = 0.0
    im: float = 0.0

    def __neg__(self) -> "CoherentAmplitude":
        return CoherentAmplitude(-self.re, -self.im)

    @property
    def x(self) -> float:
        return 2.0 * self.re

    @property
    def p(self) -> float:
        return 2.0 * self.im


@dataclass(frozen=True)
class HoppingChain:
    """Ordered real bond amplitudes plus the boundary convention."""

    bonds: tuple[float, ...]
    boundary: Literal["periodic", "open"]

    @property
    def n_sites(self) -> int:
        n = len(self.bonds)
        return n if self.boundary == "periodic" else n + 1


def state_location(params: ModelParams, z: CoherentAmplitude) -> float:
    """2*sqrt(2)*(zeta*Re z + kappa*Im z); odd under z -> -z."""
    return 2.0 * math.sqrt(2.0) * (params.zeta * z.re + params.kappa * z.im)


def effective_coupling(params: ModelParams) -> float:
    """g = t * exp(zeta^2 + kappa^2) >= t."""
    return params.t * math.exp(params.zeta**2 + params.kappa**2)


def staggered_bonds(params: ModelParams, z: CoherentAmplitude) -> HoppingChain:
    """Periodic chain of 2L bonds g*(cosh - (-)^j sinh) = g*exp(-(-)^j loc)."""
    g = effective_coupling(params)
    loc = state_location(params, z)
    lo, hi = g * math.exp(-loc), g * math.exp(loc)
    bonds = tuple(lo if j % 2 == 0 else hi for j in range(2 * params.big_l))
    return HoppingChain(bonds=bonds, boundary="periodic")


def single_particle_matrix(chain: HoppingChain) -> np.ndarray:
    """First-quantized matrix: -A_j on the (j, j+1) off-diagonals."""
    n = chain.n_sites
    if n < 2:
        raise ValueError("need at least 2 sites")
    h = np.zeros((n, n))
    for j, a in enumerate(chain.bonds):
        k = (j + 1) % n
        h[j, k] -= a
        h[k, j] -= a
    return h


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix in non-decreasing order."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.eigvalsh(matrix)


def staggered_ring_bands(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """Analytic spectrum of the staggered ring: +-2g*sqrt(sinh^2 + cos^2(pi m/L)).

    Independent of the dense eigensolver; used as an oracle for `spectrum`.
    """
    g = effective_coupling(params)
    loc = state_location(params, z)
    m = np.arange(params.big_l)
    root = 2.0 * g * np.sqrt(math.sinh(loc) ** 2 + np.cos(np.pi * m / params.big_l) ** 2)
    return np.sort(np.concatenate([-root, root]))
