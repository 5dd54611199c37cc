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
from typing import Callable, Iterable, Literal, Sequence

import numpy as np
from scipy.special import cython_special, ellipe

from .algebra import deformed_mode_matrix, mode_eigenvalues, mode_energies, xi
from .model import CoherentAmplitude, ModelParams, effective_coupling, state_location
from .special import _check_finite, _e_derivatives

__all__ = [
    "DomainError",
    "EnergyBreakdown",
    "CriticalPoint",
    "CriticalPoints",
    "phonon_energy_total",
    "electronic_density_continuum",
    "total_gradient",
    "electronic_density_modesum",
    "total_density",
    "landscape_grid",
    "find_critical_points",
]


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


# d2/d(Re z)2 and d2/d(Im z)2 of the phonon density per unit cell, 2(4 Re^2 z + Im^2 z + 3/4)
_PHONON_CURVATURES = (16.0, 4.0)


def electronic_density_continuum(params: ModelParams, z: CoherentAmplitude) -> float:
    """Large-L electronic density -p_q(z) E(m_q); even in z."""
    return total_density(params, z).electronic


def _slope_kernel(params: ModelParams) -> Callable[[float], tuple[float, float]]:
    """`slopes(loc)` -> (dE_el/d(loc), d2E_el/d(loc)2) = -p_q (sinh (E - 2 xi_q E_m / cosh^2), cosh E
    - 2 xi_q (E_m - 2 p E_mm) / cosh^3), E_m = dE/dm, xi_q and p_q = (2/pi) g q^w computed once, E(m) and
    K = ellipkm1(p) from ``cython_special`` (no ufunc dispatch), p = 1 - m = xi_q tanh(loc)^2 formed directly so
    m -> 1 neither cancels nor divides by p.  At p = 0 (loc = 0) they are 0 and -inf, the Delta^2 ln Delta cusp."""
    xq = xi(params.q, params.w)
    pref = (2.0 / math.pi) * effective_coupling(params) * params.q**params.w

    def slopes(loc: float) -> tuple[float, float]:
        th = math.tanh(loc)
        p = xq * th * th
        if p == 0.0:
            return 0.0, -math.inf
        m = _check_finite(1.0 - p)
        if abs(m) > 1.0:
            raise DomainError(f"elliptic parameter m={m} outside [-1, 1]; state location beyond convergence bound")
        e = cython_special.ellipe(m)
        e_m, p_e_mm = _e_derivatives(m, p, e, cython_special.ellipkm1(p))
        ch = math.cosh(loc)
        d2 = -pref * (ch * e - 2.0 * xq * (e_m - 2.0 * p_e_mm) / (ch * ch * ch))
        return -pref * math.sinh(loc) * (e - 2.0 * xq * e_m / (ch * ch)), d2

    return slopes


def _gradient_and_hessian(params: ModelParams, slopes: Callable, z: CoherentAmplitude) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the total density w.r.t. (Re z, Im z) from one `slopes` call
    (a `_slope_kernel` of `params`): the phonon diagonal plus 8 d2E_el/d(loc)2 (zeta, kappa)^T (zeta, kappa)."""
    (c_re, c_im), zeta, kappa = _PHONON_CURVATURES, params.zeta, params.kappa
    d1, d2 = slopes(state_location(params, z))
    g = d1 * 2.0 * math.sqrt(2.0)
    c = 8.0 * d2 if zeta * zeta + kappa * kappa else 0.0  # both ~0: loc = 0 (d2 = -inf) at every z, drops out
    grad = np.array([c_re * z.re + g * zeta, c_im * z.im + g * kappa])
    hess = [[c_re + c * zeta * zeta, c * zeta * kappa], [c * zeta * kappa, c_im + c * kappa * kappa]]
    return grad, np.array(hess)


def total_gradient(params: ModelParams, z: CoherentAmplitude) -> np.ndarray:
    """Analytic gradient of the total density w.r.t. (Re z, Im z)."""
    return _gradient_and_hessian(params, _slope_kernel(params), z)[0]


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


def total_density(params: ModelParams, z: CoherentAmplitude) -> EnergyBreakdown:
    """`_energy_densities` at one z; raises `DomainError` outside the elliptic domain."""
    columns = _energy_densities(params, CoherentAmplitude(np.array([z.re]), np.array([z.im])))  # type: ignore[arg-type]
    if not columns["in_domain"][0]:
        raise DomainError(f"elliptic parameter at z = ({z.re}, {z.im}) outside [-1, 1]; "
                          "state location beyond convergence bound")
    return EnergyBreakdown(phonon=float(columns["e_phonon"][0]), electronic=float(columns["e_electronic"][0]))


def _energy_densities(params: ModelParams, z: CoherentAmplitude) -> dict[str, np.ndarray]:
    """The continuum density over arrays of z, as columns ``e_phonon``, ``e_electronic``,
    ``e_total`` and ``in_domain``.  The phonon density is per unit cell,
    `phonon_energy_total` / L; the electronic one is -p_q E(m_q) with
    p_q = (2/pi) g q^w cosh(loc) and m_q = 1 - xi_q tanh(loc)^2.  ``in_domain``
    is False where m_q leaves [-1, 1], and those cells have NaN energies."""
    loc = state_location(params, z)
    th = np.tanh(loc)
    m = 1.0 - xi(params.q, params.w) * (th * th)
    in_domain = np.abs(m) <= 1.0
    e_phonon = np.where(in_domain, phonon_energy_total(z, params.big_l) / params.big_l, np.nan)
    e_electronic = np.full(in_domain.shape, np.nan)
    p_q = (2.0 / math.pi) * effective_coupling(params) * params.q**params.w * np.cosh(loc[in_domain])
    e_electronic[in_domain] = -p_q * ellipe(m[in_domain])
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
    return {"re": re, "im": im, **_energy_densities(params, CoherentAmplitude(re, im))}  # type: ignore[arg-type]


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


@np.errstate(over="ignore")  # at large zeta far seeds' gradient norms overflow to inf, which still orders as a norm
def find_critical_points(
    params: ModelParams,
    seeds: Iterable[tuple[float, float]] | Sequence[CoherentAmplitude],
    tol: float = 1e-10,
    max_iter: int = 200,
    max_step: float | None = None,
) -> CriticalPoints:
    """Damped Newton descent on the gradient from each seed.

    Gradient and analytic Hessian come from one evaluation per iterate; the
    step is -grad where the Hessian is singular or, at loc = 0, not finite.
    A seed whose iterate comes within 1e-6 of a point already found stops
    there and counts as converged and deduplicated; new points are
    classified by the sign pattern of the Hessian eigenvalues.  Seeds that
    fail to converge are skipped (counted in the result's `seeds`, not fatal).
    `max_step` caps the Newton step length (trust radius), keeping each
    seed attached to its local basin instead of jumping to far saddles.
    """
    slopes = _slope_kernel(params)
    found = CriticalPoints()
    found.seeds = dict.fromkeys(("tried", "converged", "skipped", "deduplicated"), 0)

    def known(pt: np.ndarray) -> bool:
        return any(np.hypot(pt[0] - c.location[0], pt[1] - c.location[1]) < 1e-6 for c in found)

    for seed in seeds:
        found.seeds["tried"] += 1
        if isinstance(seed, CoherentAmplitude):
            pt = np.array([seed.re, seed.im])
        else:
            pt = np.array(seed, dtype=float)
        converged = False
        try:
            grad, hess = _gradient_and_hessian(params, slopes, CoherentAmplitude(*pt))
            for _ in range(max_iter):
                gnorm = float(np.linalg.norm(grad))
                if gnorm < tol or known(pt):
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
                        gt, ht = _gradient_and_hessian(params, slopes, CoherentAmplitude(*trial))
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
        if known(pt):
            found.seeds["deduplicated"] += 1
            continue
        if np.isfinite(hess).all():
            eigs = np.linalg.eigvalsh(hess)
        else:  # loc = 0: -inf along (zeta, kappa), and across it only the phonons curve
            (c_re, c_im), zeta2, kappa2 = _PHONON_CURVATURES, params.zeta**2, params.kappa**2
            across = (c_re * kappa2 + c_im * zeta2) / (zeta2 + kappa2)
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
