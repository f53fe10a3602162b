"""Complete elliptic integrals and Jacobi elliptic functions.

Evaluated by the arithmetic-geometric mean and the descending Landen
transformation; absolute accuracy around 1e-14 for parameter m in [0, 1).
The parameter convention is m = k^2 throughout.
"""

from __future__ import annotations

import numpy as np

_MAX_SWEEPS = 64


def _agm_sequences(m: float):
    a, b, c = 1.0, np.sqrt(1.0 - m), np.sqrt(m)
    a_seq, c_seq = [a], [c]
    for _ in range(_MAX_SWEEPS):
        a_new = 0.5 * (a + b)
        b = np.sqrt(a * b)
        c = c * c / (4.0 * a_new)        # stable form of (a - b)/2
        a = a_new
        a_seq.append(a)
        c_seq.append(c)
        if abs(c) < 1e-17 * a:
            break
    return a_seq, c_seq


def _check_m(m: float) -> float:
    m = float(m)
    if not (0.0 <= m < 1.0):
        raise ValueError(f"elliptic parameter m must lie in [0, 1), got {m}")
    return m


def elliptic_complete(m: float) -> tuple[float, float]:
    """Complete integrals (K(m), E(m)) of the first and second kind."""
    m = _check_m(m)
    a_seq, c_seq = _agm_sequences(m)
    K = np.pi / (2.0 * a_seq[-1])
    s = sum(2.0 ** (n - 1) * c**2 for n, c in enumerate(c_seq))
    return K, K * (1.0 - s)


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic functions (sn, cn, dn)(u | m) for real u."""
    m = _check_m(m)
    u = np.asarray(u, dtype=float)
    a_seq, c_seq = _agm_sequences(m)
    n = len(a_seq) - 1
    phi = 2.0**n * a_seq[-1] * u
    for k in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c_seq[k] / a_seq[k] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(np.maximum(1.0 - m * sn * sn, 0.0))
    return sn, cn, dn
