"""Complete elliptic integrals, evaluated by ``scipy.special``.

Parameter convention: the argument is the *parameter* m = k^2, not the
modulus k.  Two normalizations are exposed:

* ``elliptic_e`` / ``elliptic_k`` -- the bare integrals over [0, pi/2];
* ``hyp_e`` / ``hyp_f`` -- the Gauss-hypergeometric normalization
  2F1(1/2, -1/2; 1; m) and 2F1(1/2, 1/2; 1; m), i.e. (2/pi) times the
  bare integrals.

``scipy.special.ellipe`` / ``ellipk`` cover negative parameters (the
imaginary-modulus transformation, Abramowitz & Stegun 17.4.17-18) and give
E(0) = K(0) = pi/2 and E(1) = 1 exactly.  They also take arrays, which is
how the landscape grid calls ``ellipe``; the scalar functions here add
range and finiteness checks and return Python floats.
"""

from __future__ import annotations

import math

from scipy.special import ellipe, ellipk

__all__ = [
    "elliptic_e",
    "elliptic_k",
    "hyp_e",
    "hyp_f",
    "de_dm",
]


def _check_finite(m: float) -> float:
    m = float(m)
    if not math.isfinite(m):
        raise ValueError(f"elliptic parameter must be finite, got {m!r}")
    return m


def elliptic_k(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter m < 1."""
    m = _check_finite(m)
    if m >= 1.0:
        raise ValueError(f"elliptic_k requires m < 1, got {m}")
    return float(ellipk(m))


def elliptic_e(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter m <= 1."""
    m = _check_finite(m)
    if m > 1.0:
        raise ValueError(f"elliptic_e requires m <= 1, got {m}")
    return float(ellipe(m))


def hyp_e(m: float) -> float:
    """2F1(1/2, -1/2; 1; m) = (2/pi) E(m)."""
    return (2.0 / math.pi) * elliptic_e(m)


def hyp_f(m: float) -> float:
    """2F1(1/2, 1/2; 1; m) = (2/pi) K(m)."""
    return (2.0 / math.pi) * elliptic_k(m)


# Maclaurin coefficients of dE/dm = (E - K)/(2m) = -(pi/8) sum c_n m^n
_DE_DM_SERIES = (1.0, 3.0 / 8.0, 15.0 / 64.0, 175.0 / 1024.0, 2205.0 / 16384.0)


def de_dm(m: float) -> float:
    """dE/dm = (E(m) - K(m)) / (2m), series-evaluated near m = 0 (see `_e_derivatives`)."""
    m = _check_finite(m)
    return _e_derivatives(m, 1.0 - m, elliptic_e(m), elliptic_k(m))[0]


def _e_derivatives(m: float, p: float, e: float, k: float) -> tuple[float, float]:
    """dE/dm = (E - K)/(2m) and (1 - m) d2E/dm2 = -((1 + p) E - 2 p K)/(4 m^2)
    at m = 1 - p from E(m), K(m) (DLMF 19.4.1): no 1/(1 - m), so both stay
    finite as m -> 1.  The quotients lose eps/m and eps/m^2 near m = 0, so
    |m| < 2.5e-3 takes the series and its derivative, where the two errors meet."""
    if abs(m) < 2.5e-3:
        acc = dacc = 0.0
        for c in reversed(_DE_DM_SERIES):
            dacc = dacc * m + acc
            acc = acc * m + c
        return -(math.pi / 8.0) * acc, -(math.pi / 8.0) * p * dacc
    return (e - k) / (2.0 * m), -((1.0 + p) * e - 2.0 * p * k) / (4.0 * m * m)
