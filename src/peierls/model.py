"""Physical parameters, coherent-state kinematics, and the staggered ring.

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


def staggered_bonds(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """The 2L bonds g*(cosh - (-)^j sinh) = g*exp(-(-)^j loc) of the periodic chain."""
    g = effective_coupling(params)
    loc = state_location(params, z)
    return np.where(np.arange(2 * params.big_l) % 2 == 0, g * math.exp(-loc), g * math.exp(loc))


def ring_spectrum(bonds: np.ndarray) -> np.ndarray:
    """Eigenvalues, non-decreasing, of the ring's single-particle matrix: -A_j on (j, j+1 mod n),
    where bond j = A_j joins sites j and (j + 1) mod n.

    In the folded site order 0, n-1, 1, n-2, 2, ... every bond joins sites at most two
    apart, so LAPACK's banded symmetric solver takes O(n^2) time and O(n) memory.
    """
    from scipy.linalg import eigvals_banded  # loaded at the first solve, not by every command

    bonds = np.asarray(bonds, dtype=float)
    if not np.all(np.isfinite(bonds)):
        raise ValueError("matrix has non-finite entries")
    n = len(bonds)
    if n < 2:
        raise ValueError("need at least 2 sites")
    site = np.arange(n)
    folded = np.where(site < (n + 1) // 2, 2 * site, 2 * (n - 1 - site) + 1)
    here, there = folded, np.roll(folded, -1)  # the two ends of each bond
    band = np.zeros((3, n))  # band[d, i] is entry (i + d, i)
    # added, not set: at n = 2 both bonds join sites 0 and 1
    np.add.at(band, (np.abs(here - there), np.minimum(here, there)), -bonds)
    return eigvals_banded(band, lower=True, check_finite=False)


def staggered_ring_bands(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """Analytic spectrum of the staggered ring: +-2g*sqrt(sinh^2 + cos^2(pi m/L)).

    Independent of any eigensolver; used as an oracle for `ring_spectrum`.
    """
    g = effective_coupling(params)
    loc = state_location(params, z)
    m = np.arange(params.big_l)
    root = 2.0 * g * np.sqrt(math.sinh(loc) ** 2 + np.cos(np.pi * m / params.big_l) ** 2)
    return np.sort(np.concatenate([-root, root]))
