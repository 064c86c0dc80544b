"""Complete elliptic integrals of the first and second kind.

Both functions take the *modulus* k (not the parameter m = k**2):

    K(k) = integral_0^{pi/2} dy / sqrt(1 - k^2 sin^2 y)
    E(k) = integral_0^{pi/2} sqrt(1 - k^2 sin^2 y) dy

Evaluation is by the arithmetic-geometric mean iteration, which converges
quadratically and reaches double precision in a handful of steps.
"""

import math

_MAX_ITER = 64


def elliptic_K(k: float) -> float:
    """First-kind complete elliptic integral, modulus convention.

    Valid for 0 <= k < 1; diverges logarithmically as k -> 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_K needs 0 <= k < 1, got {k!r}")
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
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
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
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
