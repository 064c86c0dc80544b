"""Write kernel_table.csv: the gap kernels I(zeta) and J(zeta) to 40 digits.

    I(zeta) = int_0^{pi/2} sin^2 y / sqrt(cos^2 y + zeta^2 sin^2 y) dy
    J(zeta) = int_0^{pi/2} (zeta^2 sin^2 y - cos^2 y) / sqrt(cos^2 y + zeta^2 sin^2 y) dy

With the parameter m = 1 - zeta^2 (any m < 1, so one form covers both
sides of zeta = 1) these are I = (K(m) - E(m)) / m and
J = (1 + zeta^2) I - K(m), evaluated by mpmath's ellipk/ellipe at a
working precision wide enough that m keeps every digit of zeta^2 and the
cancellations near zeta = 1 and zeta = 0 leave 40 digits.  Every value is
checked against mpmath's Carlson R_D (DLMF 19.25.1) and, for every tenth
moderate zeta, against mpmath quadrature of the defining integrals.

Run from the repository root (needs mpmath; the tests only read the CSV):

    python tests/make_kernel_table.py
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np

DIGITS = 40
OUT = Path(__file__).with_name("kernel_table.csv")


def zetas():
    """Every tested zeta >= 0 (the kernels are even): grids away from 1 and a
    window around it, the Carlson edges 1e-150 and 1e150 with their float
    neighbours, and the extremes of the float range."""
    one = [1.0 + s * e for e in (2.0**-52, 1e-12, 1e-8, 1e-5, 2e-5, 1e-3) for s in (-1, 1)]
    edges = [float(x) for edge in (1e-150, 1e150)
             for x in (edge * (1 - 1e-6), np.nextafter(edge, 0.0), edge,
                       np.nextafter(edge, math.inf), edge * (1 + 1e-6))]
    values = np.concatenate([
        [0.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e-160, 1e-12, 1e-10, 1.01e-5, 1e-4, 1e-3,
         0.5, 1.0, 2.0, 1e4, 1e9, 1e154, 1e200, 1e300, 1.7e308],
        np.geomspace(1e-9, 0.99, 300), np.geomspace(1.1, 1e4, 300),   # away from 1
        np.linspace(0.99, 1.1, 111), one,                                # around 1
        np.geomspace(1e8, 1.7e308, 61), edges,                           # large, edges
    ])
    return sorted(set(float(z) for z in values))


def kernels(z, check_quad=False):
    """(I, J) at zeta = z as mpf, I = inf at 0."""
    if z == 0:
        return mp.inf, mp.mpf(-1)
    scale = abs(math.log10(z))
    with mp.workdps(2 * DIGITS + 3 * int(scale)):
        z = mp.mpf(z)
        m = 1 - z * z
        if m == 0:
            big_i = mp.pi / 4
            big_j = mp.mpf(0)
        else:
            big_k = mp.ellipk(m)
            big_i = (big_k - mp.ellipe(m)) / m
            big_j = (1 + z * z) * big_i - big_k
        # independent check: I = R_D(0, z^2, 1) / 3, J = z^2 (R_D(0, z^2, 1) - R_D(0, 1, z^2)) / 3
        rd = mp.elliprd(0, z * z, 1)
        for value, check in ((big_i, rd / 3), (big_j, z * z * (rd - mp.elliprd(0, 1, z * z)) / 3)):
            assert abs(value - check) <= mp.mpf(10) ** -(DIGITS + 2) * max(1, abs(value)), z
        if check_quad:
            def denominator(y):
                return mp.sqrt(mp.cos(y) ** 2 + z * z * mp.sin(y) ** 2)
            quad_i = mp.quad(lambda y: mp.sin(y) ** 2 / denominator(y), [0, mp.pi / 2])
            quad_j = mp.quad(lambda y: (z * z * mp.sin(y) ** 2 - mp.cos(y) ** 2) / denominator(y),
                             [0, mp.pi / 2])
            assert abs(quad_i - big_i) <= 1e-30 * abs(big_i), z
            assert abs(quad_j - big_j) <= 1e-30 * max(1, abs(big_j)), z
        return +big_i, +big_j


def main():
    lines = ["zeta,I,J"]
    for i, z in enumerate(zetas()):
        big_i, big_j = kernels(z, check_quad=1e-3 <= z <= 1e3 and i % 10 == 0)
        lines.append(f"{z!r},{mp.nstr(big_i, DIGITS)},{mp.nstr(big_j, DIGITS)}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {OUT}")


if __name__ == "__main__":
    main()
