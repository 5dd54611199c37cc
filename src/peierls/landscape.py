"""Ground-state energy density over the (Re z, Im z) plane.

The electronic part is evaluated either in closed form (elliptic integral
of the continuum limit) or as the finite-L sum of per-mode lower
eigenvalues.  Critical points of the total density are located by damped
Newton iteration on the analytic gradient and Hessian and classified by
the Hessian's eigenvalues; the off-origin double minimum together with
the saddle at the origin is the numerical Peierls check.  Grids are
evaluated as numpy arrays in one process; the ``workers`` config field and
``--workers`` flag are accepted and have no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy.special import ellipe, ellipkm1

from .algebra import deformed_mode_matrix, mode_eigenvalues, mode_energies, xi
from .model import CoherentAmplitude, ModelParams, effective_coupling, state_location
from .special import _check_finite, _e_derivatives, elliptic_e

__all__ = [
    "DomainError",
    "EnergyBreakdown",
    "CriticalPoint",
    "CriticalPoints",
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
    return 2.0 * big_l * (4.0 * z.re * z.re + z.im * z.im + 0.75)


def electronic_prefactor(params: ModelParams, loc: float | np.ndarray) -> float | np.ndarray:
    """p_q = (2/pi) g q^w cosh(loc), elementwise over an array of locations."""
    g = effective_coupling(params)
    return (2.0 / math.pi) * g * params.q**params.w * np.cosh(loc)


def elliptic_parameter(params: ModelParams, loc: float | np.ndarray) -> float | np.ndarray:
    """m_q = 1 - xi_q tanh(loc)^2, elementwise over an array of locations."""
    th = np.tanh(loc)  # th * th: a scalar ** calls C pow, which can miss numpy's array square by an ulp
    return 1.0 - xi(params.q, params.w) * (th * th)


def _check_domain(m: float) -> float:
    if abs(m) > 1.0:
        raise DomainError(f"elliptic parameter m={m} outside [-1, 1]; state location beyond convergence bound")
    return m


def electronic_density_continuum(params: ModelParams, z: CoherentAmplitude) -> float:
    """Large-L electronic density -p_q(z) E(m_q); even in z."""
    loc = state_location(params, z)
    m = _check_domain(float(elliptic_parameter(params, loc)))
    return -float(electronic_prefactor(params, loc)) * elliptic_e(m)


def _electronic_slopes(params: ModelParams, loc: float) -> tuple[float, float]:
    """dE_el/d(loc) = -p_q sinh (E - 2 xi_q E_m / cosh^2) and d2E_el/d(loc)2 =
    -p_q (cosh E - 2 xi_q (E_m - 2 p E_mm) / cosh^3) from one E, K pair, with E_m = dE/dm,
    p_q = (2/pi) g q^w and p = 1 - m = xi_q tanh(loc)^2 formed directly (K = ellipkm1(p)), so
    m -> 1 neither cancels nor divides by p.  At p = 0 (loc = 0) they are 0 and -inf, the
    Delta^2 ln Delta cusp of the Peierls energy."""
    xq = xi(params.q, params.w)
    th = math.tanh(loc)
    p = xq * th * th
    if p == 0.0:
        return 0.0, -math.inf
    m = _check_domain(_check_finite(1.0 - p))
    e = float(ellipe(m))
    e_m, p_e_mm = _e_derivatives(m, p, e, float(ellipkm1(p)))
    ch = math.cosh(loc)
    pref = (2.0 / math.pi) * effective_coupling(params) * params.q**params.w
    d2 = -pref * (ch * e - 2.0 * xq * (e_m - 2.0 * p_e_mm) / (ch * ch * ch))
    return -pref * math.sinh(loc) * (e - 2.0 * xq * e_m / (ch * ch)), d2


def d_electronic_d_loc(params: ModelParams, loc: float) -> float:
    """Analytic d/d(loc) of the continuum electronic density (see `_electronic_slopes`)."""
    return _electronic_slopes(params, loc)[0]


def _gradient_and_hessian(
    params: ModelParams, z: CoherentAmplitude, phonon_norm: PhononNorm
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the total density w.r.t. (Re z, Im z) from one `_electronic_slopes`
    call: the phonon diagonal plus 8 d2E_el/d(loc)2 (zeta, kappa)^T (zeta, kappa)."""
    scale, zeta, kappa = (1.0 if phonon_norm == "per-cell" else 0.5), params.zeta, params.kappa
    d1, d2 = _electronic_slopes(params, state_location(params, z))
    g = d1 * 2.0 * math.sqrt(2.0)
    c = 8.0 * d2 if zeta or kappa else 0.0  # with both 0, loc = 0 (d2 = -inf) at every z and drops out
    grad = np.array([16.0 * scale * z.re + g * zeta, 4.0 * scale * z.im + g * kappa])
    hess = [[16.0 * scale + c * zeta * zeta, c * zeta * kappa], [c * zeta * kappa, 4.0 * scale + c * kappa * kappa]]
    return grad, np.array(hess)


def total_gradient(
    params: ModelParams,
    z: CoherentAmplitude,
    phonon_norm: PhononNorm = "per-cell",
) -> np.ndarray:
    """Analytic gradient of the total density w.r.t. (Re z, Im z)."""
    return _gradient_and_hessian(params, z, phonon_norm)[0]


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


def _classify(eigs: np.ndarray) -> str:
    if np.any(np.abs(eigs) < 1e-8):
        return "marginal"
    if np.all(eigs > 0):
        return "minimum"
    if np.all(eigs < 0):
        return "maximum"
    return "saddle"


class CriticalPoints(list):
    """`find_critical_points` result; `seeds` counts the seeds tried, converged,
    skipped (no convergence, or out of domain) and deduplicated."""

    seeds: dict[str, int]


def find_critical_points(
    params: ModelParams,
    seeds: Iterable[tuple[float, float]] | Sequence[CoherentAmplitude],
    tol: float = 1e-10,
    max_iter: int = 200,
    phonon_norm: PhononNorm = "per-cell",
    max_step: float | None = None,
) -> CriticalPoints:
    """Damped Newton descent on the gradient from each seed.

    Gradient and analytic Hessian come from one evaluation per iterate; the
    step is -grad where the Hessian is singular or, at loc = 0, not finite.
    Converged points are deduplicated within 1e-6 and classified by the
    sign pattern of the Hessian eigenvalues.  Seeds that fail to converge
    are skipped (counted in the result's `seeds`, not fatal).
    `max_step` caps the Newton step length (trust radius), keeping each
    seed attached to its local basin instead of jumping to far saddles.
    """
    found = CriticalPoints()
    found.seeds = dict.fromkeys(("tried", "converged", "skipped", "deduplicated"), 0)
    for seed in seeds:
        found.seeds["tried"] += 1
        if isinstance(seed, CoherentAmplitude):
            pt = np.array([seed.re, seed.im])
        else:
            pt = np.array(seed, dtype=float)
        converged = False
        try:
            grad, hess = _gradient_and_hessian(params, CoherentAmplitude(*pt), phonon_norm)
            for _ in range(max_iter):
                gnorm = float(np.linalg.norm(grad))
                if gnorm < tol:
                    converged = True
                    break
                try:
                    step = np.linalg.solve(hess, -grad) if np.isfinite(hess).all() else -grad
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
                        gt, ht = _gradient_and_hessian(params, CoherentAmplitude(*trial), phonon_norm)
                    except DomainError:
                        lam *= 0.5
                        continue
                    if np.linalg.norm(gt) < gnorm:
                        pt, grad, hess = trial, gt, ht
                        break
                    lam *= 0.5
                else:
                    break
        except DomainError:
            pass
        if not converged:
            found.seeds["skipped"] += 1
            continue
        found.seeds["converged"] += 1
        if any(np.hypot(pt[0] - c.location[0], pt[1] - c.location[1]) < 1e-6 for c in found):
            found.seeds["deduplicated"] += 1
            continue
        if np.isfinite(hess).all():
            eigs = np.linalg.eigvalsh(hess)
        else:  # loc = 0: -inf along (zeta, kappa), and across it only the phonons curve
            zeta2, kappa2 = params.zeta**2, params.kappa**2
            across = (16.0 * kappa2 + 4.0 * zeta2) / (zeta2 + kappa2) * (1.0 if phonon_norm == "per-cell" else 0.5)
            eigs = np.array([-math.inf, across])
        found.append(
            CriticalPoint(
                location=(float(pt[0]), float(pt[1])),
                gradient_norm=float(np.linalg.norm(grad)),
                hessian_eigs=(float(eigs[0]), float(eigs[1])),
                kind=_classify(eigs),  # type: ignore[arg-type]
            )
        )
    return found
