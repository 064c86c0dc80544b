"""Reference values for the gap solver, computed apart from the program.

The continuum kernels of `sshliquid` are evaluated with mpmath at 40
significant digits, in the parameter convention m = 1 - zeta^2:

    I(zeta) = int_0^{pi/2} sin^2 y / sqrt(1 - m sin^2 y) dy = (K(m) - E(m)) / m
    J(zeta) = int_0^{pi/2} (zeta^2 sin^2 y - cos^2 y) / sqrt(1 - m sin^2 y) dy
            = (1 + zeta^2) I(zeta) - K(m)

Both closed forms hold for every m < 1, so one formula covers zeta < 1 and
zeta > 1.  Near zeta = 1 the division by m cancels at most ~12 of the 40
digits for any zeta a float can hold.  `ground_energy_array` evaluates the
same forms with scipy.special (ellipkm1 for zeta < 1), which loses ~5
digits within 1e-5 of zeta = 1, so mpmath takes over within NEAR_ONE of it.
`self_test` checks every form against mpmath quadrature of the defining
integrals.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special

DPS = 40
NEAR_ONE = 1e-3


def _kernel_I(z):
    m = 1 - z * z
    if m == 0:
        return mp.pi / 4
    return (mp.ellipk(m) - mp.ellipe(m)) / m


def _kernel_J(z):
    if z == 0:
        return mp.mpf(-1)
    m = 1 - z * z
    if m == 0:
        return mp.mpf(0)
    return (1 + z * z) * _kernel_I(z) - mp.ellipk(m)


def kernel_I(zeta: float) -> float:
    """I(zeta); +inf at zeta = 0."""
    if zeta == 0:
        return float("inf")
    with mp.workdps(DPS):
        return float(_kernel_I(mp.mpf(zeta)))


def kernel_J(zeta: float) -> float:
    """J(zeta); J(0) = -1."""
    with mp.workdps(DPS):
        return float(_kernel_J(mp.mpf(zeta)))


def ground_energy(p: dict, q: float, u: float) -> float:
    """E0(u) = -(4 N t0 / pi) J(zeta) + 2 N K u^2 at fixed Q, zeta = 2 alpha1 u Q / t0.

    `p` holds the CLI config keys t0, alpha1, K_spring and N.
    """
    with mp.workdps(DPS):
        t0, u = mp.mpf(p["t0"]), mp.mpf(u)
        zeta = 2 * mp.mpf(p["alpha1"]) * u * mp.mpf(q) / t0
        n = p["N"]
        return float(-(4 * n * t0 / mp.pi) * _kernel_J(zeta)
                     + 2 * n * mp.mpf(p["K_spring"]) * u * u)


def _kernel_J_scipy(zeta: np.ndarray) -> np.ndarray:
    p2 = zeta * zeta
    m = 1.0 - p2
    inside = zeta < 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(inside, special.ellipkm1(np.where(inside, p2, 0.5)), special.ellipk(m))
        e = special.ellipe(m)
        j = (1.0 + p2) * (k - e) / m - k
    return np.where(zeta == 0.0, -1.0, j)


def ground_energy_array(p: dict, q: float, u) -> np.ndarray:
    """`ground_energy` at every u of an array; mpmath within NEAR_ONE of zeta = 1."""
    u = np.asarray(u, dtype=float)
    zeta = np.abs(2.0 * p["alpha1"] * u * q / p["t0"])
    j = _kernel_J_scipy(zeta)
    near = np.abs(zeta - 1.0) < NEAR_ONE
    j[near] = [kernel_J(z) for z in zeta[near]]
    return -(4.0 * p["N"] * p["t0"] / math.pi) * j + 2.0 * p["N"] * p["K_spring"] * u * u


def _quad(integrand, zeta):
    # both integrands peak at y = pi/2 with width ~min(zeta, 1/zeta): split there
    width = min(zeta, 1 / zeta)
    cuts, x = [], width / 10
    while x < 1:
        cuts.append(x)
        x *= 10
    half = mp.pi / 2
    return mp.quad(integrand, [mp.mpf(0)] + [half - c for c in reversed(cuts)] + [half])


def _rel(value, ref):
    err = abs(value - ref)
    return float(err / abs(ref)) if abs(ref) > 1e-30 else float(err)


def self_test(zetas=(1e-12, 1e-5, 1e-3, 0.5, 1 - 1e-5, 1.0, 1 + 1e-5, 3.0, 1e4)):
    """Relative gaps between the closed forms and direct quadrature.

    Returns (form, zeta, error, tolerance) rows: the mpmath forms must agree
    to the last bit or two of a float, the scipy form of J (used away from
    zeta = 1) to 1e-13.
    """
    rows = []
    with mp.workdps(DPS):
        for zeta in zetas:
            z = mp.mpf(zeta)
            m = 1 - z * z
            quad_i = _quad(lambda y: mp.sin(y) ** 2 / mp.sqrt(1 - m * mp.sin(y) ** 2), zeta)
            quad_j = _quad(lambda y: (z * z * mp.sin(y) ** 2 - mp.cos(y) ** 2)
                           / mp.sqrt(1 - m * mp.sin(y) ** 2), zeta)
            rows.append(("I", zeta, _rel(kernel_I(zeta), quad_i), 1e-15))
            rows.append(("J", zeta, _rel(kernel_J(zeta), quad_j), 1e-15))
            if abs(zeta - 1.0) >= NEAR_ONE:
                j_scipy = float(_kernel_J_scipy(np.array([zeta]))[0])
                rows.append(("J scipy", zeta, _rel(j_scipy, quad_j), 1e-13))
    return rows
