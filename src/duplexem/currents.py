"""Noether charges, 4-current densities and spirality for the cavity field.

The fourth coordinate is x4 = i c t throughout, so d/dx4 = (1/ic) d/dt.
The classical current keeps the overall charge normalization (the factor
e/hbar c in front of every density) as a configurable ``coupling`` constant;
the operator-valued one has it at 1.

Mode sets use the constant-dropping convention of :mod:`duplexem.cavity`
(q'' = -q, q' = -dq/dt / w), under which all mode-pair combinations below
are exact solutions and the continuity law holds identically, and their
time basis has the two entries exp(i w t) and exp(-i w t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cavity import (CavityModel, FirstSolution, ModeState, _check_sampling, _d_dt, _d_dz,
                     _expand, _inside, _time_sum)
from .fockquant import anticommutator, make_ladder, safe_block


@lru_cache(maxsize=8)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


N_QUAD = 96   # Gauss-Legendre nodes over [0, L] in the charge and spirality integrals


def _gauss_legendre(a, b, n):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


class ClassicalFourCurrent:
    """Evaluated 4-current components of a Maxwellian two-sector cavity field.

    Components are labeled by family: family 1 is the gauge (phase) part,
    family 2 the scaling part of the two-parameter gauge group.  For mode
    amplitudes q = C1 e^{iwt} + C2 e^{-iwt}:

        j3^(1) = 0 identically,
        j3^(2) = -i kappa sum_a m w^3 sin(2 k z) (C1 C2* e^{2iwt} + c.c.),
        j4^(1) =  i kappa sum_a m w^3 (|C1|^2 - |C2|^2)    (z, t independent),
        j4^(2) =  i kappa sum_a m w^3 cos(2 k z) (C1 C2* e^{2iwt} - c.c.),

    with kappa = 8 * coupling / (c V).
    """

    def __init__(self, model: CavityModel, state: ModeState, coupling: float = 1.0):
        if state.n_modes != model.n_modes:
            raise ValueError("state and model disagree on the number of modes")
        self.model = model
        self.state = state
        self.coupling = coupling
        self.c = model.constants.c
        self.kappa = 8.0 * coupling / (self.c * model.volume)
        self.max_alpha = model.n_modes
        self.length = model.length

    def _cross(self, t, conj_sign):
        """C1 C2* e^{2iwt} + conj_sign * C1* C2 e^{-2iwt}, per mode."""
        t = np.asarray(t, dtype=float)
        om = _expand(self.model.omegas, t.ndim)
        c1 = _expand(self.state.c1, t.ndim)
        c2 = _expand(self.state.c2, t.ndim)
        return (c1 * np.conj(c2) * np.exp(2j * om * t)
                + conj_sign * np.conj(c1) * c2 * np.exp(-2j * om * t))

    def _weights(self, zfunc, z):
        z = np.asarray(z, dtype=float)
        m = _expand(self.model.masses, z.ndim)
        om = _expand(self.model.omegas, z.ndim)
        k = _expand(self.model.wavenumbers, z.ndim)
        return m * om**3 * zfunc(2.0 * k * z)

    def j3(self, z, t, family: int):
        if family == 1:
            return np.zeros(np.shape(z) + np.shape(t), dtype=complex)
        w = self._weights(np.sin, z)
        return -1j * self.kappa * np.tensordot(w, self._cross(t, +1), axes=(0, 0))

    def j4(self, z, t, family: int):
        if family == 1:
            mw = self.model.masses * self.model.omegas**3
            val = 1j * self.kappa * np.sum(
                mw * (np.abs(self.state.c1) ** 2 - np.abs(self.state.c2) ** 2))
            return np.full(np.shape(z) + np.shape(t), val, dtype=complex)
        w = self._weights(np.cos, z)
        return 1j * self.kappa * np.tensordot(w, self._cross(t, -1), axes=(0, 0))

    def dj3_dz(self, z, t, family: int):
        if family == 1:
            return np.zeros(np.shape(z) + np.shape(t), dtype=complex)
        z = np.asarray(z, dtype=float)
        k = _expand(self.model.wavenumbers, z.ndim)
        w = self._weights(np.cos, z) * 2.0 * k
        return -1j * self.kappa * np.tensordot(w, self._cross(t, +1), axes=(0, 0))

    def dj4_dt(self, z, t, family: int):
        if family == 1:
            return np.zeros(np.shape(z) + np.shape(t), dtype=complex)
        t = np.asarray(t, dtype=float)
        om = _expand(self.model.omegas, t.ndim)
        w = self._weights(np.cos, z)
        dcross = 2j * om * self._cross(t, +1)
        return 1j * self.kappa * np.tensordot(w, dcross, axes=(0, 0))


def continuity_residual(current, z, t) -> float:
    """max |d j3/dz + (1/ic) d j4/dt| over the grid, worst family."""
    if getattr(current, "max_alpha", None):
        # current densities oscillate at 2 k_alpha; need 4 points per half wavelength
        _check_sampling(z, current.length / current.max_alpha, "z")
    worst = 0.0
    for family in (1, 2):
        res = current.dj3_dz(z, t, family) \
            + current.dj4_dt(z, t, family) / (1j * current.c)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


class FieldFunctionSet:
    """Mode pairs (u1, u2) entering the Lagrangian-based charges.

    u1 collects the sine-profile (electric-type) parts, u2 the cosine-profile
    (magnetic-type) parts.  The set is one complex array
    ``coeffs[sector, profile, basis, mode]`` (sector 0: u1, 1: u2; profile
    and time basis exp(+-i w t) as in :mod:`duplexem.cavity`), so that

        u_s,a(z, t) = sum_pb coeffs[s, p, b, a] Z_p(k_a z) T_b(w_a t),

    with k_a = ``wavenumbers[a]`` and w_a = ``omegas[a]``, any (k, w) pair.
    """

    def __init__(self, coeffs, wavenumbers, omegas, volume: float, length: float, c: float):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.wavenumbers = np.asarray(wavenumbers, dtype=float)
        self.omegas = np.asarray(omegas, dtype=float)
        n_modes = self.wavenumbers.size
        if self.omegas.shape != (n_modes,) or self.coeffs.shape != (2, 2, 2, n_modes):
            raise ValueError("need one k, one omega and (2, 2, 2) coefficients per mode")
        self.volume = volume
        self.length = length
        self.c = c

    def _with(self, coeffs) -> "FieldFunctionSet":
        return FieldFunctionSet(coeffs, self.wavenumbers, self.omegas, self.volume,
                                self.length, self.c)

    @classmethod
    def from_cavity(cls, model: CavityModel, state: ModeState, sign: int = +1):
        """Two-sector mode functions of the cavity field.

        u1_a = sqrt(eps0) A^E_a sin(k z) (q_a + sign * i q''_a)
        u2_a = sqrt(mu0)  A^H_a cos(k z) (-q'_a + sign * (i/w) dq_a/dt)

        with the constant-dropping convention q'' = -q, q' = -dq/dt / w,
        so the time factors are (1 -/+ i) q and (1 +/- i) dq/dt / w: mode by
        mode u1 = sqrt(eps0) (1 - i sign) E_x and u2 = sqrt(mu0) (1 + i sign) H_y
        of the first family, whose H_y carries A^E eps0 / k = A^H / w.
        """
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        cst = model.constants
        field = FirstSolution(model, state).scaled(math.sqrt(cst.eps0) * complex(1.0, -sign),
                                                   math.sqrt(cst.mu0) * complex(1.0, sign))
        # u1 is E_x, coefficients [0, 0]; u2 is H_y, coefficients [1, 1]
        return cls(np.stack([field.coeffs[0, 0], field.coeffs[1, 1]]), model.wavenumbers,
                   model.omegas, volume=model.volume, length=model.length, c=cst.c)

    def rotated(self, theta: float) -> "FieldFunctionSet":
        """Dual rotation applied pairwise in the (u1, u2) functional plane."""
        ct, st = math.cos(theta), math.sin(theta)
        u1, u2 = self.coeffs
        return self._with(np.stack([ct * u1 + st * u2, ct * u2 - st * u1]))

    def scaled(self, factor: complex) -> "FieldFunctionSet":
        """Gauge transform u -> factor * u (factor = beta e^{i alpha})."""
        return self._with(factor * self.coeffs)

    def evaluate(self, z, t, *orders) -> np.ndarray:
        """u and its derivatives per sector and mode on the outer (z, t) grid.

        Each order (n, m) asks for d^n/dz^n d^m/dt^m u.  The result has shape
        (len(orders), 2, n_modes) + shape(z) + shape(t); modes are not summed.
        """
        z = _inside(z, self.length)
        t = np.asarray(t, dtype=float)
        coeffs = []
        for n_z, n_t in orders:
            c = self.coeffs
            for _ in range(n_z):
                c = _d_dz(c, self.wavenumbers)
            for _ in range(n_t):
                c = _d_dt(c, self.omegas)
            coeffs.append(c)
        kz = _expand(self.wavenumbers, z.ndim) * z
        kz = kz.reshape(kz.shape + (1,) * t.ndim)
        tpart = _time_sum(self.omegas, np.array(coeffs), t)  # [order, sector, profile, mode, t]
        tpart = tpart.reshape(tpart.shape[:4] + (1,) * z.ndim + t.shape)
        return np.sin(kz) * tpart[:, :, 0] + np.cos(kz) * tpart[:, :, 1]


@dataclass(frozen=True)
class NoetherCharge:
    q1: float
    q2: float
    q: complex


def _ordered_sum(values):
    """0 + values[0] + values[1] + ... over the first axis, one addition at a time."""
    return np.cumsum(np.insert(values, 0, 0.0, axis=0), axis=0)[-1]


def noether_charge(fieldset: FieldFunctionSet, t: float) -> NoetherCharge:
    """Gauge charges by quadrature over z in [0, L].

    q1 (phase-gauge charge) integrates 2 Im(du/dt conj(u)) / c; q2 (the
    scaling-gauge charge, a purely imaginary quantity i*q2) integrates
    -2 Re(du/dt conj(u)) / c.  Both carry the volume weight V/L.
    """
    zq, wq = _gauss_legendre(0.0, fieldset.length, N_QUAD)
    c = fieldset.c
    weight = fieldset.volume / fieldset.length
    with np.errstate(invalid="ignore"):
        u, du_dt = fieldset.evaluate(zq, t, (0, 0), (0, 1))
        w_bar = du_dt * np.conj(u)
    if not np.all(np.isfinite(w_bar)):
        raise ValueError("field set is not integrable on [0, L]")
    # one quadrature per component, added in the order u1_0, u2_0, u1_1, u2_1, ...
    im_sum = float(_ordered_sum(np.sum(wq * w_bar.imag, axis=-1).T.ravel()))
    re_sum = float(_ordered_sum(np.sum(wq * w_bar.real, axis=-1).T.ravel()))
    q1 = (2.0 / c) * weight * im_sum
    q2 = -(2.0 / c) * weight * re_sum
    return NoetherCharge(q1=q1, q2=q2, q=complex(q1, q2))


def charge_drift(fieldset: FieldFunctionSet, times):
    """Max relative drift of (q1, q2) over the given time samples."""
    return relative_drift([noether_charge(fieldset, t) for t in times])


def relative_drift(charges) -> tuple:
    """Max spreads of q1 and q2 over a sequence of NoetherCharge, relative to max |q|."""
    q1s = np.array([c.q1 for c in charges])
    q2s = np.array([c.q2 for c in charges])

    # one common scale: a component sitting at 0 must not divide by its own noise
    scale = max(float(np.max(np.hypot(q1s, q2s))), 1e-300)
    span1 = float(np.max(q1s) - np.min(q1s)) / scale
    span2 = float(np.max(q2s) - np.min(q2s)) / scale
    return span1, span2


@dataclass
class SpinDensity:
    s4_12: callable      # density over z at the evaluation time
    s4_3: float          # volume-integrated spirality


def spirality(fieldset: FieldFunctionSet, t: float) -> SpinDensity:
    """Spin density of the dual rotation in the (u1, u2) functional plane.

    density(z) = (2/c) Im sum_pairs [conj(du1/dt) u2 - conj(du2/dt) u1];
    the spirality is its volume integral.  Additive over pairs and exactly
    invariant under a simultaneous dual rotation of every pair.
    """
    c = fieldset.c

    def density(z):
        (u1, u2), (du1_dt, du2_dt) = fieldset.evaluate(z, t, (0, 0), (0, 1))
        pairs = np.imag(np.conj(du1_dt) * u2 - np.conj(du2_dt) * u1)
        return (2.0 / c) * _ordered_sum(pairs)

    zq, wq = _gauss_legendre(0.0, fieldset.length, N_QUAD)
    s43 = float(np.sum(wq * density(zq))) * fieldset.volume / fieldset.length
    return SpinDensity(s4_12=density, s4_3=s43)


class QuantizedFourCurrent:
    """Operator-valued 4-current of the time-local quantized field.

    Per-mode matrices on the truncated basis, built from a(t) = a0 e^{-iwt}
    and the second-family ladder a''(t) = -a(t) (constant-dropping
    convention), with unit charge normalization (coupling 1).  The
    gauge-family components vanish identically for the Maxwellian field; the
    scaling-family ones are quadratic in the ladders and satisfy the operator
    continuity law exactly.
    """

    def __init__(self, model: CavityModel, dim: int):
        if dim < 3:
            raise ValueError("dim < 3 leaves no informative safe block")
        self.model = model
        self.dim = dim
        self.c = model.constants.c
        self._a0, self._ad0 = make_ladder(dim)
        self._a0_sq = self._a0 @ self._a0
        self._ad0_sq = self._ad0 @ self._ad0

    def _mode(self, alpha_idx: int, t: float):
        """(w, k, a^2(t), a+^2(t)) of one mode."""
        w = self.model.omegas[alpha_idx]
        a2 = self._a0_sq * np.exp(-2j * w * t)
        ad2 = self._ad0_sq * np.exp(2j * w * t)
        return w, self.model.wavenumbers[alpha_idx], a2, ad2

    def re_j3(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=complex)

    def im_j3(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = -2j / (self.c * self.model.volume)
        # a''^2 = a^2 and a''+^2 = a+^2 double the Maxwellian contribution
        return pref * k * w * math.sin(2 * k * z) * 2.0 * (a2 + ad2)

    def re_j4(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        """Anticommutator combination; exactly zero once a'' = -a."""
        md = self.model
        w = md.omegas[alpha_idx]
        k = md.wavenumbers[alpha_idx]
        at = self._a0 * np.exp(-1j * w * t)
        adt = self._ad0 * np.exp(1j * w * t)
        app, adpp = -at, -adt
        pref = 2.0 / (self.c**2 * md.volume)
        return pref * k * w**2 * (anticommutator(app, adt) - anticommutator(at, adpp))

    def im_j4(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = 2j / (self.c**2 * self.model.volume)
        eye = np.eye(self.dim)
        # oscillating part carries c k w, matching im_j3's k w prefactor so
        # that d j3/dz + d j4/dx4 cancels exactly (as in the classical pair,
        # where both components share one m w^3 prefactor)
        return pref * (self.c * k * w * 2.0 * (ad2 - a2) * math.cos(2 * k * z)
                       - 2.0 * w**2 * eye)

    def d_im_j3_dz(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = -2j / (self.c * self.model.volume)
        return pref * k * w * 2.0 * k * math.cos(2 * k * z) * 2.0 * (a2 + ad2)

    def d_im_j4_dt(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = 2j / (self.c**2 * self.model.volume)
        return pref * self.c * k * w * 2.0 * (2j * w) * (ad2 + a2) * math.cos(2 * k * z)

    def continuity_residual(self, z: float, t: float) -> float:
        """Safe-block max of |d j3/dz + (1/ic) d j4/dt| over modes, both families."""
        worst = 0.0
        for idx in range(self.model.n_modes):
            res_im = self.d_im_j3_dz(idx, z, t) \
                + self.d_im_j4_dt(idx, z, t) / (1j * self.c)
            worst = max(worst, float(np.max(np.abs(safe_block(res_im)))))
            # gauge family: j3 = 0 and j4 is the exact-zero anticommutator form
            res_re = self.re_j4(idx, z, t)
            worst = max(worst, float(np.max(np.abs(safe_block(res_re)))))
        return worst


def charge_ratio_estimate(j_e: float, j_h: float) -> float:
    """Magnetic-to-electric charge quantum ratio estimate sqrt(J_E / J_H)."""
    if j_e <= 0 or j_h <= 0:
        raise ValueError("both coupling energies must be positive")
    return math.sqrt(j_e / j_h)
