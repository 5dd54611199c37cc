"""Cross-module validation suite.

Each check measures a deviation against an independent oracle (the periodic
trapezoid rule, an AGM, dense eigensolver, closed forms) and compares it to a
fixed threshold.  The suite also measures and reports, without asserting:
the mode-sum convergence order at q = 1.5, where the finite-L error is
C / L, so the order reads 1 (the value of C itself is gated); and the
printed-vs-matrix eigenvalue discrepancy at nonzero w.  The real-space/mode
proportionality constant is both reported and gated at 2.  Per-mode
quantities come from `peierls.algebra`, evaluated over all modes at once.
The paper's printed eigenvalues and three-site difference operator exist
only here, as private helpers that cross-check the model's implementation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np
from scipy.special import ellipe, ellipk
from scipy.special.cython_special import ellipkm1  # the slope kernel's K

from .algebra import ModeEnergies, mode_eigenvalues, mode_energies, xi
from .kink import KinkConfiguration, kink_spectrum, sublattice_svd, _offdiagonal
from .landscape import _density_derivatives, _slope_kernel, electronic_density_modesum, energy_densities
from .model import (
    CoherentAmplitude,
    ModelParams,
    effective_coupling,
    ring_spectrum,
    staggered_bonds,
    state_location,
)

__all__ = ["ValidationCheck", "ValidationReport", "run_validation"]


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, measured: float, threshold: float, detail: str = "") -> None:
        self.checks.append(ValidationCheck(name, bool(measured <= threshold), float(measured), threshold, detail))

    def as_dict(self) -> dict[str, Any]:
        """The report as strict-JSON data: a non-finite `measured` becomes None."""
        data = {"passed": self.passed, **asdict(self)}
        for check in data["checks"]:
            if not math.isfinite(check["measured"]):
                check["measured"] = None
        return data


def _trapezoid(m: float, power: float) -> float:
    """(pi/2) times the mean of (1 - m sin^2 theta)^power on 1024 equispaced theta in [0, 2 pi):
    E(m) for power 1/2, K(m) for -1/2.  The integrand is analytic and periodic, so this
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 385, 2014)."""
    theta = np.arange(1024) * (2.0 * math.pi / 1024)
    return math.pi / 2.0 * float(np.mean((1.0 - m * np.sin(theta) ** 2) ** power))


def _agm_k(p: float) -> float:
    """K(1 - p) = pi / (2 AGM(1, sqrt p)), free of cancellation as p -> 0.  A fixed step
    count, since the last ulp can cycle; p = 1e-300 converges in 12."""
    a, b = 1.0, math.sqrt(p)
    for _ in range(20):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _check_special(report: ValidationReport) -> None:
    ms_e = np.arange(-1.0, 0.991, 0.25).tolist() + [0.99]
    err_e = max(abs(ellipe(m) - _trapezoid(m, 0.5)) for m in ms_e)
    report.add("elliptic-e-quadrature", err_e, 1e-10, "max |E - E_quad| on m in [-1, 0.99]")
    ms_k = np.arange(-1.0, 0.951, 0.25).tolist() + [0.95]
    err_k = max(abs(ellipk(m) - _trapezoid(m, -0.5)) for m in ms_k)
    report.add("elliptic-k-quadrature", err_k, 1e-10, "max |K - K_quad| on m in [-1, 0.95]")
    ps = np.geomspace(1e-300, 2.0, 120).tolist()
    err_km1 = max(abs(ellipkm1(p) / _agm_k(p) - 1.0) for p in ps)
    report.add("elliptic-km1-agm", err_km1, 1e-14, "max |ellipkm1(p) / K_agm - 1|, 120 p in [1e-300, 2]")
    # Legendre relation E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2
    worst = 0.0
    for m in np.linspace(0.04, 0.96, 20):
        lhs = (
            ellipe(m) * ellipk(1.0 - m)
            + ellipe(1.0 - m) * ellipk(m)
            - ellipk(m) * ellipk(1.0 - m)
        )
        worst = max(worst, abs(lhs - math.pi / 2.0))
    report.add("legendre-relation", worst, 1e-10, "20 interior points")


def _reference_state(loc: float = 0.4, big_l: int = 64, q: float = 1.0, w: float = 0.0):
    """Parameters with g = 1 and an amplitude giving the requested location."""
    params = ModelParams(t=math.exp(-1.0), zeta=1.0, kappa=0.0, big_l=big_l, q=q, w=w)
    z = CoherentAmplitude(loc / (2.0 * math.sqrt(2.0)), 0.0)
    return params, z


def _all_modes(params: ModelParams, z: CoherentAmplitude):
    return mode_energies(params, z, np.arange(params.big_l))


def _check_contraction(report: ValidationReport) -> None:
    p1, z = _reference_state(q=1.0)
    p2, _ = _reference_state(q=1.0 + 1e-7)
    a, b = (np.array(mode_eigenvalues(p, _all_modes(p, z))) for p in (p1, p2))
    report.add("q-to-1-contraction", float(np.max(np.abs(a - b))), 1e-6, "max eigenvalue shift under q = 1 + 1e-7")


def _paper_lambda(params: ModelParams, mode: ModeEnergies) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The printed closed-form eigenvalues, transcribed verbatim."""
    q, w = params.q, params.w
    xq = xi(q, w)
    shift = -0.5 * mode.epsilon * (q - 1.0 / q) * q ** (2 * w) * xq
    root = np.sqrt(q ** (2 * w) * mode.epsilon**2 + xq * mode.delta**2)
    return shift - root, shift + root


def _lambda_discrepancy(params: ModelParams, mode: ModeEnergies) -> float | np.ndarray:
    """Abs difference between matrix and closed-form eigenvalues, the larger
    of the two branches, per mode."""
    lm = mode_eigenvalues(params, mode)
    lp = _paper_lambda(params, mode)
    return np.maximum(np.abs(lm[0] - lp[0]), np.abs(lm[1] - lp[1]))


def _check_lambda_forms(report: ValidationReport) -> None:
    params, z = _reference_state(q=1.5, w=0.0)
    worst = np.max(_lambda_discrepancy(params, _all_modes(params, z)))
    report.add("lambda-printed-vs-matrix", worst, 1e-12, "w = 0, q = 1.5; forms must coincide")
    # at w != 0 the printed closed form and the matrix disagree on the
    # delta^2 weight under the root; measured and reported, not asserted
    pw, zw = _reference_state(q=1.5, w=-1.0)
    report.info["lambda-discrepancy-w=-1"] = float(np.max(_lambda_discrepancy(pw, _all_modes(pw, zw))))


def _check_modesum(report: ValidationReport) -> None:
    # the order is measured at q = 1.5, where the error is C / L; at q = 1
    # it is exponentially small and already at roundoff by L = 64
    ls = [64, 128, 256, 512]
    shortfalls = []
    for big_l in ls:
        params, z = _reference_state(big_l=big_l, q=1.5)
        continuum = float(energy_densities(params, [z.re], [z.im])["e_electronic"][0])
        shortfalls.append(continuum - electronic_density_modesum(params, z))
    errs = [abs(s) for s in shortfalls]
    order = -float(np.polyfit(np.log(ls), np.log(errs), 1)[0])
    report.info["modesum-errors"] = dict(zip(map(str, ls), errs))
    report.info["modesum-fitted-slope"] = order
    # the deformed trace term makes the sum fall short of the continuum by
    # exactly C / L, C = g cosh(loc) (q - 1/q) q^(2w) xi_q / 2 (g = 1 here)
    loc = state_location(params, z)
    c = 0.5 * math.cosh(loc) * (params.q - 1.0 / params.q) * params.q ** (2 * params.w) * xi(params.q, params.w)
    report.add(
        "modesum-trace-shift",
        abs(ls[-1] * shortfalls[-1] / c - 1.0),
        1e-9,
        "|L * (continuum - modesum) / C - 1| at q = 1.5, w = 0, L = 512",
    )
    params, z = _reference_state(big_l=4096)
    ms = electronic_density_modesum(params, z)
    ct = float(energy_densities(params, [z.re], [z.im])["e_electronic"][0])
    report.add("modesum-continuum-L4096", abs(ms - ct) / abs(ct), 1e-12, "relative agreement at L = 4096")


def _landscape_errors(params: ModelParams, points: np.ndarray) -> tuple[float, float]:
    """The parity error and the worst relative error of the analytic gradient against a central
    difference, over the (re, im) rows of `points`.  Each point's z-step is 1e-6, cut so that it
    moves loc by at most 1e-2 |loc|: next to the Delta^2 ln Delta cusp at loc = 0 a fixed step
    straddles the density's bend (at loc = 0 itself the density is even in loc and any step does)."""
    re, im = points.T
    loc = state_location(params, CoherentAmplitude(re, im))
    speed = 2.0 * math.sqrt(2.0) * max(abs(params.zeta), abs(params.kappa))  # loc moved per unit step in z
    h = np.full(len(points), 1e-6)
    cut = (speed * h > 1e-2 * np.abs(loc)) & (loc != 0.0)
    h[cut] = 1e-2 * np.abs(loc[cut]) / speed
    # z, -z and the four central-difference neighbours of z in one array pass
    e = energy_densities(params, np.concatenate([re, -re, re + h, re - h, re, re]),
                         np.concatenate([im, -im, im, im, im + h, im - h]))["e_total"].reshape(6, len(points))
    parity = float(np.max(np.abs(e[0] - e[1])))
    fd = np.column_stack(((e[2] - e[3]) / (2 * h), (e[4] - e[5]) / (2 * h)))
    derivatives = _density_derivatives(params)
    grads = [np.array(derivatives(*z)[:2]) for z in points.tolist()]
    # hypot cannot overflow at large t; np.max keeps a NaN (a neighbour outside the domain),
    # so the check fails instead of skipping it
    return parity, float(np.max([math.hypot(*(g - d)) / max(1.0, math.hypot(*d)) for g, d in zip(grads, fd)]))


def _check_landscape(report: ValidationReport, params: ModelParams) -> None:
    # the first 50 of 1,024 uniform draws (one (re, im) pair each) in the domain, which is even in z
    draws = np.random.default_rng(20260823).uniform(-0.08, 0.08, size=(1024, 2))
    points = draws[energy_densities(params, *draws.T)["in_domain"]][:50]
    parity = grad_err = math.nan  # stays NaN, which fails both checks, when no draw is in the domain
    if len(points):
        parity, grad_err = _landscape_errors(params, points)
    report.add("landscape-parity", parity, 1e-12, "total density even under z -> -z")
    report.add("landscape-gradient", grad_err, 1e-6, f"analytic vs central-difference gradient, {len(points)} points")


def _check_curvature(report: ValidationReport) -> None:
    params, _ = _reference_state(q=1.5, w=-1.0)  # xi_q = 1.385: m < 0 beyond |loc| = 1.2554
    slopes = _slope_kernel(params)
    worst = 0.0
    for loc in (1e-9, 1e-6, 1e-3, 0.05, -0.4, 1.0, 1.25, 1.26, 1.6, -3.0):
        h = 1e-4 * min(abs(loc), 1.0)
        fd = (slopes(loc + h)[0] - slopes(loc - h)[0]) / (2.0 * h)
        worst = max(worst, abs(slopes(loc)[1] / fd - 1.0))
    report.add("landscape-curvature", worst, 1e-6, "analytic d2E_el/dloc2 vs central difference of dE_el/dloc")


def _wall_decay(params: ModelParams, config: KinkConfiguration, span: int = 40) -> tuple[float, float]:
    """Fitted decay per site of the wall state left and right of the wall bond (n, n+1).

    The smallest singular pair (w, v) of the even-odd block holds the wall state on one
    sublattice, where the E = 0 transfer matrix gives psi_{j+2} = -(A_w / A_s) psi_j,
    a decay of exp(-loc) per site.  Each side is a log-linear fit over 1 < |j - n - 1/2| <= span.
    """
    w, s, v = sublattice_svd(_offdiagonal(params, config))
    psi = np.zeros(config.n_sites)
    psi[0::2], psi[1::2] = w[:, len(s) - 1], v[:, -1]
    n = config.n
    wall = n if abs(psi[n]) > abs(psi[n + 1]) else n + 1
    j = np.arange(wall % 2, config.n_sites, 2)
    dist = np.abs(j - n - 0.5)
    decays = []
    for side in (j < n, j > n + 1):
        fit = side & (dist > 1) & (dist <= span)
        decays.append(-float(np.polyfit(dist[fit], np.log(np.abs(psi[j[fit]])), 1)[0]))
    return decays[0], decays[1]


def _difference_block(params: ModelParams, config: KinkConfiguration) -> np.ndarray:
    """The printed difference operator on sites {n, n+1, n+2}: -omega_n on the bond
    (n, n+1) and omega_n on (n+1, n+2), omega_n = g - (g cosh loc + (-)^n g sinh loc)."""
    g = effective_coupling(params)
    loc = state_location(params, config.z)
    c, s = g * math.cosh(loc), g * math.sinh(loc)
    omega = g - (c + (-1.0) ** config.n * s)
    return omega * np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _zero_subspace(block: np.ndarray, g: float) -> tuple[int, np.ndarray]:
    """(dimension, orthonormal basis rows) of the kernel of `block`, by SVD: singular values
    below 1e-10 of the larger of the chain's coupling g and the largest one count as zero."""
    u, sv, _ = np.linalg.svd(block)
    null = sv < 1e-10 * max(g, float(sv[0]))
    return int(null.sum()), u[:, null].T


def _check_kink(report: ValidationReport, params: ModelParams) -> None:
    n_sites = 200
    cfg0 = KinkConfiguration(n=n_sites // 2, z=CoherentAmplitude(0.0, 0.0), n_sites=n_sites)
    evals, _, _ = kink_spectrum(params, cfg0)
    g = effective_coupling(params)
    oracle = np.sort(-2.0 * g * np.cos(np.pi * np.arange(1, n_sites + 1) / (n_sites + 1)))
    # both kink spectra scale with g: their errors are relative wherever the scale exceeds 1
    report.add("kink-z0-spectrum", float(np.max(np.abs(evals - oracle))) / max(1.0, 2.0 * g), 1e-10,
               "open-chain closed form, N = 200")
    z = CoherentAmplitude(0.026169004324320, 0.026169004324320)
    cfg = KinkConfiguration(n=n_sites // 2, z=z, n_sites=n_sites)
    loc = state_location(params, z)
    block = _difference_block(params, cfg)
    om = block[1, 2]
    eigs = np.sort(np.linalg.eigvalsh(block))
    target = np.sort([-math.sqrt(2.0) * abs(om), 0.0, math.sqrt(2.0) * abs(om)])
    report.add("kink-difference-block-eigs", float(np.max(np.abs(eigs - target))) / max(1.0, target[-1]), 1e-10,
               "{0, +-sqrt(2) |omega_n|}: an identity of the 3x3 block for every omega_n != 0, so it tests its builder")
    dim, basis = _zero_subspace(block, g)
    kernel_err = 1.0
    if dim == 1:
        overlap = abs(float(basis[0] @ (np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))))
        kernel_err = abs(1.0 - overlap)
    report.add("kink-zero-subspace", kernel_err, 1e-10,
               "kernel (1, 0, 1)/sqrt(2): an identity of the 3x3 block for every omega_n != 0, so it tests its builder")
    decay_err = max(abs(d - loc) for d in _wall_decay(params, cfg))
    report.add("kink-wall-decay", decay_err, 1e-6, "wall state decays as exp(-loc |j - n|), N = 200")


def _check_proportionality(report: ValidationReport) -> None:
    params, z = _reference_state()
    real_space = ring_spectrum(staggered_bonds(params, z))
    modes = _all_modes(params, z)
    mode_vals = np.hypot(modes.epsilon, modes.delta)
    positive = np.sort(real_space[real_space > 0.0])
    mode_sorted = np.sort(mode_vals)[-len(positive):]
    ratios = positive / mode_sorted
    const = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - const)) / abs(const))
    report.info["real-space-to-mode-constant"] = const
    report.add("proportionality-constant-uniform", spread, 1e-9, "ratio constant across modes")
    report.add("real-space-to-mode-constant", abs(const - 2.0), 1e-12,
               "|c - 2|, c the mean ratio of ring eigenvalues to mode energies")


def run_validation(params: ModelParams) -> ValidationReport:
    """Execute the full cross-module suite; the landscape and kink checks use `params`, and
    every other check its own fixed parameters."""
    report = ValidationReport()
    _check_special(report)
    _check_contraction(report)
    _check_lambda_forms(report)
    _check_modesum(report)
    _check_landscape(report, params)
    _check_curvature(report)
    _check_kink(report, params)
    _check_proportionality(report)
    return report
