"""The per-mode 2x2 Hamiltonians of the q-deformed su(2) algebra and their eigenvalues.

This module is the one implementation of the per-mode physics.  Every
mode function takes a mode index k or an array of indices, and the
eigenvalues come back elementwise, so callers evaluate all modes at once.

Ground truth is the entries of H_k = -2 eps J_3 - delta (J_+ + J_-) that
`mode_eigenvalues` writes out; the tests build H_k from the deformed
generators by matrix products and pin its eigenvalues to them bitwise.
The printed closed-form eigenvalues are a cross-check that lives in
`peierls.validate`; they differ from the block's by a q^(2w) factor on the
delta^2 term under the square root whenever w != 0.
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
    "mode_eigenvalues",
]


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


def mode_eigenvalues(params: ModelParams, mode: ModeEnergies) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(lambda_plus, lambda_minus), lambda_plus <= lambda_minus, of H_k over the shape of the mode's fields.

    In the spin-1/2 representation J_+ + J_- = q^w sqrt(xi_q) sigma_x and
    J_3 = q^(2w) (xi_q / 2) diag(q, -1/q).  lambda_plus is the filled lower branch.
    Computed from these entries, not from the printed closed form.
    """
    q, w = params.q, params.w
    xq = xi(q, w)
    j3 = q ** (2 * w) * (xq / 2.0)
    a = (-2.0 * mode.epsilon) * (j3 * q)
    d = (-2.0 * mode.epsilon) * (j3 * -(1.0 / q))
    b = mode.delta * (q**w * math.sqrt(xq))  # the sign of the off-diagonal is lost in the hypot
    half_tr = 0.5 * (a + d)
    root = np.hypot(0.5 * (a - d), b)
    return half_tr - root, half_tr + root
