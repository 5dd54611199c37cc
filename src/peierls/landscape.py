"""Ground-state energy density over the (Re z, Im z) plane.

The electronic part is evaluated either in closed form (elliptic integral
of the continuum limit) or as the finite-L sum of per-mode lower
eigenvalues.  Critical points of the total density are located by damped
Newton iteration on the analytic gradient and classified by a
central-difference Hessian; the off-origin double minimum together with
the saddle at the origin is the numerical Peierls check.  Grids are
evaluated as numpy arrays in one process; the ``workers`` config field and
``--workers`` flag are accepted and have no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy.special import ellipe

from .algebra import deformed_mode_matrix, mode_eigenvalues, mode_energies, xi
from .model import CoherentAmplitude, ModelParams, effective_coupling, state_location
from .special import de_dm, elliptic_e

__all__ = [
    "DomainError",
    "EnergyBreakdown",
    "CriticalPoint",
    "PhononNorm",
    "phonon_energy_total",
    "electronic_density_continuum",
    "electronic_prefactor",
    "elliptic_parameter",
    "d_electronic_d_loc",
    "total_gradient",
    "electronic_density_modesum",
    "domain_limit",
    "total_density",
    "landscape_grid",
    "find_critical_points",
]

PhononNorm = Literal["per-cell", "per-site"]


class DomainError(ValueError):
    """Raised when the elliptic parameter leaves [-1, 1]."""


@dataclass(frozen=True)
class EnergyBreakdown:
    phonon: float
    electronic: float

    @property
    def total(self) -> float:
        return self.phonon + self.electronic


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, float]
    gradient_norm: float
    hessian_eigs: tuple[float, float]
    kind: Literal["minimum", "saddle", "maximum", "marginal"]


def phonon_energy_total(z: CoherentAmplitude, big_l: int) -> float:
    """Coherent-state phonon energy 2L(4 Re(z)^2 + Im(z)^2 + 3/4)."""
    return 2.0 * big_l * (4.0 * z.re**2 + z.im**2 + 0.75)


def electronic_prefactor(params: ModelParams, loc: float | np.ndarray) -> float | np.ndarray:
    """p_q = (2/pi) g q^w cosh(loc), elementwise over an array of locations."""
    g = effective_coupling(params)
    return (2.0 / math.pi) * g * params.q**params.w * np.cosh(loc)


def elliptic_parameter(params: ModelParams, loc: float | np.ndarray) -> float | np.ndarray:
    """m_q = 1 - xi_q tanh(loc)^2, elementwise over an array of locations."""
    return 1.0 - xi(params.q, params.w) * np.tanh(loc) ** 2


def _check_domain(m: float) -> float:
    if abs(m) > 1.0:
        raise DomainError(f"elliptic parameter m={m} outside [-1, 1]; state location beyond convergence bound")
    return m


def electronic_density_continuum(params: ModelParams, z: CoherentAmplitude) -> float:
    """Large-L electronic density -p_q(z) E(m_q); even in z."""
    loc = state_location(params, z)
    m = _check_domain(float(elliptic_parameter(params, loc)))
    return -float(electronic_prefactor(params, loc)) * elliptic_e(m)


def d_electronic_d_loc(params: ModelParams, loc: float) -> float:
    """Analytic d/d(loc) of the continuum electronic density.

    Chain rule through E(m_q) with dE/dm = (E - K)/(2m); the combination
    is evaluated by series near m = 0 (see `special.de_dm`).
    """
    if loc == 0.0:
        return 0.0
    xq = xi(params.q, params.w)
    m = _check_domain(1.0 - xq * math.tanh(loc) ** 2)
    g = effective_coupling(params)
    pref = (2.0 / math.pi) * g * params.q**params.w
    th, ch = math.tanh(loc), math.cosh(loc)
    if m == 1.0:
        # loc so small that m rounds to 1; the dE/dm correction carries a
        # vanishing tanh factor against a log divergence and drops out
        return -pref * math.sinh(loc)
    dm_dloc = -2.0 * xq * th / ch**2
    return -pref * (math.sinh(loc) * elliptic_e(m) + ch * de_dm(m) * dm_dloc)


def total_gradient(
    params: ModelParams,
    z: CoherentAmplitude,
    phonon_norm: PhononNorm = "per-cell",
) -> np.ndarray:
    """Analytic gradient of the total density w.r.t. (Re z, Im z)."""
    scale = 1.0 if phonon_norm == "per-cell" else 0.5
    grad_ph = scale * np.array([16.0 * z.re, 4.0 * z.im])
    de = d_electronic_d_loc(params, state_location(params, z))
    grad_el = de * 2.0 * math.sqrt(2.0) * np.array([params.zeta, params.kappa])
    return grad_ph + grad_el


def electronic_density_modesum(params: ModelParams, z: CoherentAmplitude) -> float:
    """(1/L) sum over modes of the lower eigenvalue of the deformed 2x2,
    all L modes evaluated at once through `peierls.algebra`.

    The finite-L error against the continuum is exponentially small at
    q = 1, where the lower eigenvalue is a smooth pi-periodic function of
    theta.  At q != 1 the trace term is proportional to cos(theta) and
    sum_{k<L} cos(pi k / L) = 1, so the sum minus the continuum is exactly
    -C / L, C = g cosh(loc) (q - 1/q) q^(2w) xi_q / 2, plus exponentially
    small terms.
    """
    modes = mode_energies(params, z, np.arange(params.big_l))
    return float(np.mean(mode_eigenvalues(deformed_mode_matrix(params, modes))[0]))


def domain_limit(params: ModelParams) -> float:
    """State-location bound where |m_q| reaches 1; inf when xi_q <= 2."""
    xq = xi(params.q, params.w)
    if xq <= 2.0:
        return math.inf
    return math.atanh(math.sqrt(2.0 / xq))


def _phonon_density(params: ModelParams, z: CoherentAmplitude, phonon_norm: PhononNorm) -> float:
    scale = 1.0 if phonon_norm == "per-cell" else 0.5
    return scale * phonon_energy_total(z, params.big_l) / params.big_l


def total_density(
    params: ModelParams,
    z: CoherentAmplitude,
    phonon_norm: PhononNorm = "per-cell",
) -> EnergyBreakdown:
    """Phonon plus electronic density; phonon normalized per unit cell by default."""
    return EnergyBreakdown(
        phonon=_phonon_density(params, z, phonon_norm),
        electronic=electronic_density_continuum(params, z),
    )


def _energy_densities(params: ModelParams, z: CoherentAmplitude, phonon_norm: PhononNorm) -> dict[str, np.ndarray]:
    """`total_density` over arrays of z, as columns ``e_phonon``, ``e_electronic``,
    ``e_total`` and ``in_domain``; ``in_domain`` is False where the elliptic
    parameter leaves [-1, 1], and those cells have NaN energies."""
    loc = state_location(params, z)
    m = elliptic_parameter(params, loc)
    in_domain = np.abs(m) <= 1.0
    e_phonon = np.where(in_domain, _phonon_density(params, z, phonon_norm), np.nan)
    e_electronic = np.full(in_domain.shape, np.nan)
    e_electronic[in_domain] = -electronic_prefactor(params, loc[in_domain]) * ellipe(m[in_domain])
    return {
        "e_phonon": e_phonon,
        "e_electronic": e_electronic,
        "e_total": e_phonon + e_electronic,
        "in_domain": in_domain,
    }


def landscape_grid(
    params: ModelParams,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    resolution: int,
    phonon_norm: PhononNorm = "per-cell",
) -> dict[str, np.ndarray]:
    """Energy breakdowns over a resolution x resolution grid, as flat columns.

    Columns ``re`` and ``im`` run over the cells in re-major order (re
    outer, im inner); the energy columns and ``in_domain`` are those of
    `_energy_densities`, matching `total_density` cell by cell.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    res = np.linspace(re_range[0], re_range[1], resolution) if resolution > 1 else [0.5 * sum(re_range)]
    ims = np.linspace(im_range[0], im_range[1], resolution) if resolution > 1 else [0.5 * sum(im_range)]
    re, im = (axis.ravel() for axis in np.meshgrid(res, ims, indexing="ij"))
    return {"re": re, "im": im, **_energy_densities(params, CoherentAmplitude(re, im), phonon_norm)}  # type: ignore[arg-type]


def _fd_hessian(params: ModelParams, z: np.ndarray, phonon_norm: PhononNorm) -> np.ndarray:
    hess = np.empty((2, 2))
    for i in range(2):
        step = 1e-4 * (1.0 + abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        gp = total_gradient(params, CoherentAmplitude(*zp), phonon_norm)
        gm = total_gradient(params, CoherentAmplitude(*zm), phonon_norm)
        hess[i] = (gp - gm) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def _classify(eigs: np.ndarray) -> str:
    if np.any(np.abs(eigs) < 1e-8):
        return "marginal"
    if np.all(eigs > 0):
        return "minimum"
    if np.all(eigs < 0):
        return "maximum"
    return "saddle"


def find_critical_points(
    params: ModelParams,
    seeds: Iterable[tuple[float, float]] | Sequence[CoherentAmplitude],
    tol: float = 1e-10,
    max_iter: int = 200,
    phonon_norm: PhononNorm = "per-cell",
    max_step: float | None = None,
) -> list[CriticalPoint]:
    """Damped Newton descent on the gradient from each seed.

    Converged points are deduplicated within 1e-6 and classified by the
    sign pattern of the central-difference Hessian.  Seeds that fail to
    converge are skipped (reported by the CLI layer, not fatal).
    `max_step` caps the Newton step length (trust radius), keeping each
    seed attached to its local basin instead of jumping to far saddles.
    """
    found: list[CriticalPoint] = []
    for seed in seeds:
        if isinstance(seed, CoherentAmplitude):
            pt = np.array([seed.re, seed.im])
        else:
            pt = np.array(seed, dtype=float)
        converged = False
        try:
            grad = total_gradient(params, CoherentAmplitude(*pt), phonon_norm)
            for _ in range(max_iter):
                gnorm = float(np.linalg.norm(grad))
                if gnorm < tol:
                    converged = True
                    break
                hess = _fd_hessian(params, pt, phonon_norm)
                try:
                    step = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    step = -grad
                if max_step is not None:
                    slen = float(np.linalg.norm(step))
                    if slen > max_step:
                        step *= max_step / slen
                # backtracking damping on the gradient norm
                lam = 1.0
                for _ in range(40):
                    trial = pt + lam * step
                    try:
                        gt = total_gradient(params, CoherentAmplitude(*trial), phonon_norm)
                    except DomainError:
                        lam *= 0.5
                        continue
                    if np.linalg.norm(gt) < gnorm:
                        pt, grad = trial, gt
                        break
                    lam *= 0.5
                else:
                    break
        except DomainError:
            continue
        if not converged:
            continue
        if any(np.hypot(pt[0] - c.location[0], pt[1] - c.location[1]) < 1e-6 for c in found):
            continue
        eigs = np.linalg.eigvalsh(_fd_hessian(params, pt, phonon_norm))
        found.append(
            CriticalPoint(
                location=(float(pt[0]), float(pt[1])),
                gradient_norm=float(np.linalg.norm(grad)),
                hessian_eigs=(float(eigs[0]), float(eigs[1])),
                kind=_classify(eigs),  # type: ignore[arg-type]
            )
        )
    return found
