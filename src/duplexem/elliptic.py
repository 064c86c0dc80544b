"""Complete elliptic integrals of the first and second kind.

Both functions take the *modulus* k (not the parameter m = k**2):

    K(k) = integral_0^{pi/2} dy / sqrt(1 - k^2 sin^2 y)
    E(k) = integral_0^{pi/2} sqrt(1 - k^2 sin^2 y) dy

Evaluation is by the arithmetic-geometric mean iteration, which converges
quadratically and reaches double precision in a handful of steps.
"""

import math

import numpy as np

_MAX_ITER = 64


def elliptic_K(k: float) -> float:
    """First-kind complete elliptic integral, modulus convention.

    Valid for 0 <= k < 1; diverges logarithmically as k -> 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_K needs 0 <= k < 1, got {k!r}")
    return _agm_K(math.sqrt((1.0 - k) * (1.0 + k)))


def _agm_K(kc: float) -> float:
    """K from the complementary modulus kc = sqrt(1 - k^2), 0 < kc <= 1.

    A caller that knows kc exactly passes it here: recomputing it from k
    near 1 cancels digits that K, log-divergent in kc, cannot recover.
    """
    a, b = 1.0, kc
    for _ in range(_MAX_ITER):
        if abs(a - b) <= 4.0 * math.ulp(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def elliptic_E(k: float) -> float:
    """Second-kind complete elliptic integral, modulus convention.

    Valid for 0 <= k <= 1, with E(0) = pi/2 and E(1) = 1 exactly.
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"elliptic_E needs 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        return 1.0
    return _agm_E(k, math.sqrt((1.0 - k) * (1.0 + k)))


def _agm_E(k: float, kc: float) -> float:
    """E from the moduli k and kc = sqrt(1 - k^2), 0 <= k < 1 (see `_agm_K`)."""
    a, b = 1.0, kc
    c = k
    csum = 0.5 * c * c  # 2^{n-1} c_n^2 running sum, n = 0 term
    power = 1.0
    for _ in range(_MAX_ITER):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        csum += power * c * c
        power *= 2.0
        if abs(c) <= 2.0 * math.ulp(a):
            break
    return (math.pi / (2.0 * a)) * (1.0 - csum)


def _agm_array(k, kc):
    """K(k) and E(k) on arrays, from the moduli k and kc = sqrt(1 - k^2).

    Every element runs the loops of `_agm_K` and `_agm_E` and freezes at
    the step where each scalar loop stops (|a - b| <= 4 ulp(a) for K,
    |c| <= 2 ulp(a) for E), so each result equals the scalar one bit for
    bit.  Needs 0 <= k < 1 elementwise.
    """
    a, b = np.ones_like(kc), kc
    csum = 0.5 * k * k
    power = 1.0
    a_k, a_e = np.empty_like(a), np.empty_like(a)
    k_open = np.ones(a.shape, dtype=bool)
    e_open = k_open.copy()
    for _ in range(_MAX_ITER):
        done = k_open & (np.abs(a - b) <= 4.0 * np.spacing(a))
        a_k[done] = a[done]
        k_open &= ~done
        if not (k_open.any() or e_open.any()):
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        csum = np.where(e_open, csum + power * c * c, csum)
        power *= 2.0
        done = e_open & (np.abs(c) <= 2.0 * np.spacing(a))
        a_e[done] = a[done]
        e_open &= ~done
    a_k[k_open] = a[k_open]
    a_e[e_open] = a[e_open]
    return np.pi / (2.0 * a_k), (np.pi / (2.0 * a_e)) * (1.0 - csum)
