"""Ferroelectric spin-wave-resonance observables.

Linearized chain dynamics give closed forms for the standing-mode
amplitudes (odd modes only, 1/n envelope, Lorentzian line shape) and a
quadratic dispersion law nu_n = nu0 - A n^2.  Field and coupling units are
deliberately left open; only ratios and shapes are physical here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ResonanceParams:
    gamma_e: float          # optical gyro-ratio analogue
    spin: float
    tau: float              # relaxation time
    e1: float               # driving field amplitude (arbitrary units)
    nu0: float              # zero-mode frequency
    a_param: float          # dispersion curvature, > 0

    def __post_init__(self):
        if self.a_param <= 0:
            raise ValueError("dispersion parameter must be positive")


def mode_amplitude(p: ResonanceParams, n: int, omega: float) -> complex:
    """Amplitude of mode n driven at omega; even modes are dark.

    a_n = -i gamma S tau^2 E1/(pi n) * [(w_n - w) - i/tau] / [1 + (w_n - w)^2 tau^2]

    The real part tracks absorption, the imaginary part dispersion.  At
    resonance the amplitude is purely real, -gamma S tau E1 / (pi n).
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if n % 2 == 0:
        return 0j
    omega_n = 2.0 * math.pi * dispersion(p, n)
    detune = omega_n - omega
    pref = -1j * p.gamma_e * p.spin * p.tau**2 * p.e1 / (math.pi * n)
    return pref * (detune - 1j / p.tau) / (1.0 + detune**2 * p.tau**2)


def dispersion(p: ResonanceParams, n: int) -> float:
    """Mode frequency nu_n = nu0 - A n^2."""
    if n < 0:
        raise ValueError("mode index must be >= 0")
    return p.nu0 - p.a_param * n * n


def fit_dispersion(ns, nus):
    """Least-squares fit of (nu0, a_param) from tabulated mode frequencies.

    Linear regression of nu_n on n^2.  Returns (nu0, a_param, residuals).
    """
    ns = np.asarray(ns, dtype=float)
    nus = np.asarray(nus, dtype=float)
    if ns.size < 2:
        raise ValueError("need at least two modes to fit")
    design = np.stack([np.ones_like(ns), -ns**2], axis=1)
    coef, *_ = np.linalg.lstsq(design, nus, rcond=None)
    nu0, a_param = float(coef[0]), float(coef[1])
    residuals = nus - (nu0 - a_param * ns**2)
    return nu0, a_param, residuals
