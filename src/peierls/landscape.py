"""Ground-state energy density over the (Re z, Im z) plane.

The electronic part is evaluated either in closed form (elliptic integral
of the continuum limit) or as the finite-L sum of per-mode lower
eigenvalues.  Critical points of the total density are located by damped
Newton iteration on the analytic gradient and Hessian and classified by
the Hessian's eigenvalues; the off-origin double minimum together with
the saddle at the origin is the numerical Peierls check.  Grids are
evaluated as numpy arrays in one process.  E and K come from
``scipy.special``, which only the two functions that evaluate them,
`_slope_kernel` and `energy_densities`, import: importing this module
loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .algebra import mode_eigenvalues, mode_energies, xi
from .model import CoherentAmplitude, ModelParams, effective_coupling, state_location
from .special import _e_derivatives

__all__ = [
    "DomainError",
    "CriticalPoint",
    "CriticalPoints",
    "phonon_density",
    "energy_densities",
    "electronic_density_modesum",
    "landscape_grid",
    "find_critical_points",
]


class DomainError(ValueError):
    """Raised when the elliptic parameter leaves [-1, 1]."""


Kind = Literal["minimum", "saddle", "marginal"]


@dataclass(frozen=True)
class CriticalPoint:
    location: tuple[float, float]
    gradient_norm: float
    hessian_eigs: tuple[float, float]
    kind: Kind


def phonon_density(re: float | np.ndarray, im: float | np.ndarray) -> float | np.ndarray:
    """Coherent-state phonon energy per unit cell, 2(4 Re^2 z + Im^2 z + 3/4)."""
    return 2.0 * (4.0 * re * re + im * im + 0.75)


# d2/d(Re z)2 and d2/d(Im z)2 of `phonon_density`
_PHONON_CURVATURES = (16.0, 4.0)


def _slope_kernel(params: ModelParams) -> Callable[[float], tuple[float, float]]:
    """`slopes(loc)` -> (dE_el/d(loc), d2E_el/d(loc)2) = -p_q (sinh (E - 2 xi_q E_m / cosh^2), cosh E
    - 2 xi_q (E_m - 2 p E_mm) / cosh^3), E_m = dE/dm, xi_q and p_q = (2/pi) g q^w computed once, E(m) and
    K = ellipkm1(p) from ``cython_special`` (no ufunc dispatch), p = 1 - m = xi_q tanh(loc)^2 formed directly so
    m -> 1 neither cancels nor divides by p.  At p = 0 (loc = 0) they are 0 and -inf, the Delta^2 ln Delta cusp."""
    from scipy.special import cython_special  # loaded by the first kernel build, not with every command

    xq = xi(params.q, params.w)
    pref = (2.0 / math.pi) * effective_coupling(params) * params.q**params.w
    tanh, cosh, sinh, ellipe, ellipkm1 = math.tanh, math.cosh, math.sinh, cython_special.ellipe, cython_special.ellipkm1

    def slopes(loc: float) -> tuple[float, float]:
        th = tanh(loc)
        p = xq * th * th
        if p == 0.0:
            return 0.0, -math.inf
        m = 1.0 - p
        if not abs(m) <= 1.0:  # one comparison on the hot path; NaN lands here too
            if not math.isfinite(m):
                raise ValueError(f"elliptic parameter must be finite, got {m!r}")
            raise DomainError(f"elliptic parameter m={m} outside [-1, 1]; state location beyond convergence bound")
        e = ellipe(m)
        e_m, p_e_mm = _e_derivatives(m, p, e, ellipkm1(p))
        ch = cosh(loc)
        d2 = -pref * (ch * e - 2.0 * xq * (e_m - 2.0 * p_e_mm) / (ch * ch * ch))
        return -pref * sinh(loc) * (e - 2.0 * xq * e_m / (ch * ch)), d2

    return slopes


def _gradient_and_hessian(
    params: ModelParams, slopes: Callable, re: float, im: float
) -> tuple[float, float, float, float, float]:
    """Gradient and Hessian of the total density w.r.t. (Re z, Im z) from one `slopes` call
    (a `_slope_kernel` of `params`), as floats (g_re, g_im, h_rr, h_ri, h_ii): the phonon
    diagonal plus 8 d2E_el/d(loc)2 (zeta, kappa)^T (zeta, kappa)."""
    (c_re, c_im), zeta, kappa = _PHONON_CURVATURES, params.zeta, params.kappa
    d1, d2 = slopes(state_location(params, CoherentAmplitude(re, im)))
    g = d1 * 2.0 * math.sqrt(2.0)
    c = 8.0 * d2 if zeta * zeta + kappa * kappa else 0.0  # both ~0: loc = 0 (d2 = -inf) at every z, drops out
    return c_re * re + g * zeta, c_im * im + g * kappa, c_re + c * zeta * zeta, c * zeta * kappa, c_im + c * kappa * kappa


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
    return float(np.mean(mode_eigenvalues(params, modes)[0]))


def energy_densities(params: ModelParams, re: float | np.ndarray, im: float | np.ndarray) -> dict[str, np.ndarray]:
    """The continuum density at z = re + i im, elementwise over arrays of any shape (0-d for
    one point), as columns ``e_phonon``, ``e_electronic``, ``e_total`` and ``in_domain``.
    The phonon density is `phonon_density`; the electronic one is -p_q E(m_q) with
    p_q = (2/pi) g q^w cosh(loc) and m_q = 1 - xi_q tanh(loc)^2, even in z.  ``in_domain``
    is False where m_q leaves [-1, 1], and those cells have NaN energies."""
    from scipy.special import ellipe  # loaded by the first evaluation, as in `_slope_kernel`

    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    loc = state_location(params, CoherentAmplitude(re, im))
    th = np.tanh(loc)
    m = 1.0 - xi(params.q, params.w) * (th * th)
    in_domain = np.abs(m) <= 1.0
    e_phonon = np.where(in_domain, phonon_density(re, im), np.nan)
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
    """`energy_densities` over a resolution x resolution grid, as flat columns.

    Columns ``re`` and ``im`` run over the cells in re-major order (re
    outer, im inner); the energy columns and ``in_domain`` are those of
    `energy_densities` at those cells.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    res = np.linspace(re_range[0], re_range[1], resolution) if resolution > 1 else [0.5 * sum(re_range)]
    ims = np.linspace(im_range[0], im_range[1], resolution) if resolution > 1 else [0.5 * sum(im_range)]
    re, im = (axis.ravel() for axis in np.meshgrid(res, ims, indexing="ij"))
    return {"re": re, "im": im, **energy_densities(params, re, im)}


def _classify(eigs: np.ndarray) -> Kind:
    """Kind from the smaller of the ascending Hessian eigenvalues: the Hessian is diag(16, 4) plus
    8 d2E_el/d(loc)2 (zeta, kappa)^T (zeta, kappa), and E_el is concave, so the larger is in [4, 16]."""
    low = float(eigs[0])
    if abs(low) < 1e-8:
        return "marginal"
    return "minimum" if low > 0 else "saddle"


def _norm(x: float, y: float) -> float:
    """sqrt(x^2 + y^2), which overflows to inf as `np.linalg.norm` does: at large zeta far seeds'
    gradient norms are inf, which still orders as a norm and lets the first finite trial through."""
    return math.sqrt(x * x + y * y)


class CriticalPoints(list):
    """`find_critical_points` result; `seeds` counts the seeds tried, converged,
    skipped (no convergence, or out of domain) and deduplicated, and
    `evaluations` the slope-kernel calls the search made."""

    seeds: dict[str, int]
    evaluations: int


def find_critical_points(
    params: ModelParams,
    seeds: Iterable[tuple[float, float]],
    tol: float = 1e-10,
    max_iter: int = 200,
    max_step: float | None = None,
) -> CriticalPoints:
    """Damped Newton descent on the gradient from each seed.

    The iterate, gradient and Hessian are plain floats, and gradient and
    analytic Hessian come from one slope-kernel evaluation per iterate.  The
    step solves the 2x2 Newton system in closed form; it is -grad where the
    determinant is 0 or not finite (a Hessian entry is, at loc = 0).
    A seed whose iterate comes within 1e-6 of a point already found stops
    there and counts as converged and deduplicated; new points are
    classified by the sign of the smaller Hessian eigenvalue.  Seeds that
    fail to converge, or whose evaluation leaves the domain or overflows, are
    skipped (counted in the result's `seeds`, not fatal).
    `max_step` caps the Newton step length (trust radius), keeping each
    seed attached to its local basin instead of jumping to far saddles.
    The result's `evaluations` counts every slope-kernel call, trial points
    out of the domain included; the CLI writes it as `newton_evaluations`,
    next to `max_gradient_norm`, the largest `gradient_norm` of the points.
    """
    slopes = _slope_kernel(params)
    found = CriticalPoints()
    found.seeds = dict.fromkeys(("tried", "converged", "skipped", "deduplicated"), 0)
    found.evaluations = 0

    def evaluate(re: float, im: float) -> tuple[float, float, float, float, float]:
        found.evaluations += 1
        return _gradient_and_hessian(params, slopes, re, im)

    def known(re: float, im: float) -> bool:
        return any(math.hypot(re - c.location[0], im - c.location[1]) < 1e-6 for c in found)

    for seed in seeds:
        found.seeds["tried"] += 1
        re, im = map(float, seed)
        converged = False
        try:
            g_re, g_im, h_rr, h_ri, h_ii = evaluate(re, im)
            for _ in range(max_iter):
                gnorm = _norm(g_re, g_im)
                if gnorm < tol or known(re, im):
                    converged = True
                    break
                det = h_rr * h_ii - h_ri * h_ri  # non-finite when an entry is
                if det and math.isfinite(det):
                    s_re, s_im = (h_ri * g_im - h_ii * g_re) / det, (h_ri * g_re - h_rr * g_im) / det
                else:
                    s_re, s_im = -g_re, -g_im
                if max_step is not None:
                    slen = _norm(s_re, s_im)
                    if slen > max_step:
                        scale = max_step / slen
                        s_re, s_im = s_re * scale, s_im * scale
                # backtracking damping on the gradient norm
                lam = 1.0
                for _ in range(40):
                    t_re, t_im = re + lam * s_re, im + lam * s_im
                    try:
                        trial = evaluate(t_re, t_im)
                    except (DomainError, OverflowError):  # cosh(loc) overflows past loc ~ 710
                        lam *= 0.5
                        continue
                    if _norm(trial[0], trial[1]) < gnorm:
                        re, im = t_re, t_im
                        g_re, g_im, h_rr, h_ri, h_ii = trial
                        break
                    lam *= 0.5
                else:
                    break
        except (DomainError, OverflowError):
            pass
        if not converged:
            found.seeds["skipped"] += 1
            continue
        found.seeds["converged"] += 1
        if known(re, im):
            found.seeds["deduplicated"] += 1
            continue
        hess = np.array([[h_rr, h_ri], [h_ri, h_ii]])
        if np.isfinite(hess).all():
            eigs = np.linalg.eigvalsh(hess)
        else:  # loc = 0: -inf along (zeta, kappa), and across it only the phonons curve
            (c_re, c_im), zeta2, kappa2 = _PHONON_CURVATURES, params.zeta**2, params.kappa**2
            across = (c_re * kappa2 + c_im * zeta2) / (zeta2 + kappa2)
            eigs = np.array([-math.inf, across])
        found.append(
            CriticalPoint(
                location=(re, im),
                gradient_norm=_norm(g_re, g_im),
                hessian_eigs=(float(eigs[0]), float(eigs[1])),
                kind=_classify(eigs),
            )
        )
    return found
