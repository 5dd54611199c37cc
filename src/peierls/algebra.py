"""Deformed su(2) generators in the spin-1/2 representation and the
per-mode 2x2 Hamiltonians.

This module is the one implementation of the per-mode physics.  Every
mode function takes a mode index k or an array of indices: the 2x2
matrices then stack as shape (..., 2, 2) and the eigenvalues come back
elementwise, so callers evaluate all modes at once.

Ground truth is the explicit 2x2 matrix built from the deformed
generators.  The printed closed-form eigenvalues are a cross-check that
lives in `peierls.validate`; they differ from the matrix's by a q^(2w)
factor on the delta^2 term under the square root whenever w != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoherentAmplitude, ModelParams, effective_coupling, state_location

__all__ = [
    "xi",
    "ModeEnergies",
    "mode_energies",
    "deformed_mode_matrix",
    "mode_eigenvalues",
]

# spin-1/2 generators of the undeformed algebra
_K3 = np.diag([0.5, -0.5])
_KP = np.array([[0.0, 1.0], [0.0, 0.0]])
_KM = _KP.T


def xi(q: float, w: float) -> float:
    """Normalization xi_q = 2 q^-w / (q + q^-1); equals 1 at q = 1."""
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    return 2.0 * q**-w / (q + 1.0 / q)


@dataclass(frozen=True)
class ModeEnergies:
    """Mode-k energies eps = g cosh(loc) cos(pi k/L), delta = g sinh(loc) sin(pi k/L).

    Each field is a scalar or an array shaped like the index k.
    """

    epsilon: float | np.ndarray
    delta: float | np.ndarray


def mode_energies(params: ModelParams, z: CoherentAmplitude, k: int | np.ndarray) -> ModeEnergies:
    if np.any((np.asarray(k) < 0) | (np.asarray(k) >= params.big_l)):
        raise ValueError(f"mode index {k} outside [0, {params.big_l - 1}]")
    g = effective_coupling(params)
    loc = state_location(params, z)
    theta = np.pi * k / params.big_l
    return ModeEnergies(
        epsilon=g * math.cosh(loc) * np.cos(theta),
        delta=g * math.sinh(loc) * np.sin(theta),
    )


def _deformed_generators(q: float, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_+, J_-, J_3 of the deformed algebra in the spin-1/2 representation."""
    xq = xi(q, w)
    pref = q**w * math.sqrt(xq)
    jp = pref * np.diag([q ** (-0.5 + 0.5), q ** (0.5 + 0.5)]) @ _KP
    jm = pref * np.diag([q ** (-0.5 - 0.5), q ** (0.5 - 0.5)]) @ _KM
    j3 = q ** (2 * w) * (xq / 2.0) * (q * _KP @ _KM - (1.0 / q) * _KM @ _KP)
    return jp, jm, j3


def deformed_mode_matrix(params: ModelParams, mode: ModeEnergies) -> np.ndarray:
    """H_k = -2 eps J_3 - delta (J_+ + J_-), real symmetric, shape (..., 2, 2)."""
    jp, jm, j3 = _deformed_generators(params.q, params.w)
    eps = np.asarray(mode.epsilon)[..., None, None]
    delta = np.asarray(mode.delta)[..., None, None]
    return -2.0 * eps * j3 - delta * (jp + jm)


def mode_eigenvalues(matrix: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(lambda_plus, lambda_minus) with lambda_plus <= lambda_minus, over the
    leading axes of a (..., 2, 2) stack.

    lambda_plus is the filled lower branch.  Computed from the 2x2 matrix,
    not from the printed closed form.
    """
    a, d = matrix[..., 0, 0], matrix[..., 1, 1]
    b = matrix[..., 0, 1]
    half_tr = 0.5 * (a + d)
    root = np.hypot(0.5 * (a - d), b)
    return half_tr - root, half_tr + root

