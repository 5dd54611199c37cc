"""`_e_derivatives`, the landscape slope kernel's one elliptic-derivative routine: dE/dm and
(1 - m) d2E/dm2 from E and K of the *parameter* m = k^2 (not the modulus k), which the kernel
takes from ``scipy.special``.  The module has no public names.
"""

from __future__ import annotations

import math

__all__: list[str] = []


# Maclaurin coefficients of dE/dm = (E - K)/(2m) = -(pi/8) sum c_n m^n
_DE_DM_SERIES = (1.0, 3.0 / 8.0, 15.0 / 64.0, 175.0 / 1024.0, 2205.0 / 16384.0)


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
