"""Noether charges, 4-current densities and spirality for the cavity field.

The fourth coordinate is x4 = i c t throughout, so d/dx4 = (1/ic) d/dt.
Current formulas keep the overall charge normalization (the factor e/hbar c
in front of every density) as a configurable ``coupling`` constant.

Mode sets use the constant-dropping convention of :mod:`duplexem.cavity`
(q'' = -q, q' = -dq/dt / w), under which all mode-pair combinations below
are exact solutions and the continuity law holds identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .cavity import CavityModel, FirstSolution, ModeState, _check_sampling, _expand


@lru_cache(maxsize=8)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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


class PerturbedCurrent:
    """Wrap a current, adding rate * t to one j4 family (continuity probe).

    Everything else, j3 and dj3_dz included, is the base current's.
    """

    def __init__(self, base, rate: float, family: int = 2):
        self.base = base
        self.rate = rate
        self.family = family

    def __getattr__(self, name):
        if name == "base":  # not set yet, e.g. on a copy under construction
            raise AttributeError(name)
        return getattr(self.base, name)

    def j4(self, z, t, family):
        val = self.base.j4(z, t, family)
        if family == self.family:
            val = val + self.rate * np.asarray(t, dtype=float)
        return val

    def dj4_dt(self, z, t, family):
        val = self.base.dj4_dt(z, t, family)
        if family == self.family:
            val = val + self.rate
        return val


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


@dataclass
class FieldFunction:
    """One scalar field component with analytic first and second derivatives."""

    u: callable
    du_dt: callable
    du_dz: callable
    d2u_dt2: callable = None
    d2u_dz2: callable = None


def _combine(terms):
    """FieldFunction of sum c f over (c, f) terms; None where a term lacks a derivative."""
    def combo(name):
        fns = [(coef, getattr(f, name)) for coef, f in terms]
        if any(fn is None for _, fn in fns):
            return None
        return lambda z, t: sum(coef * fn(z, t) for coef, fn in fns)

    return FieldFunction(*(combo(name) for name in
                           ("u", "du_dt", "du_dz", "d2u_dt2", "d2u_dz2")))


class FieldFunctionSet:
    """Mode pairs (u1, u2) entering the Lagrangian-based charges.

    u1 collects the sine-profile (electric-type) parts, u2 the cosine-profile
    (magnetic-type) parts.  ``pairs`` is a list of (u1, u2) FieldFunction
    pairs; ``components`` flattens it.
    """

    def __init__(self, pairs, volume: float, length: float, c: float,
                 energy: float = None, hbar: float = None):
        self.pairs = list(pairs)
        self.volume = volume
        self.length = length
        self.c = c
        self.energy = energy
        self.hbar = hbar

    @property
    def components(self):
        return [u for pair in self.pairs for u in pair]

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
        d_dt, d_dz = field.d_dt(), field.d_dz()
        # u, du/dt, du/dz, d2u/dt2 and d2u/dz2 as exact maps on the coefficients
        derivatives = (field, d_dt, d_dz, d_dt.d_dt(), d_dz.d_dz())
        pairs = []
        for a, mode in enumerate(field.modes()):
            # u1 is E_x, coefficients [0, 0]; u2 is H_y, coefficients [1, 1]
            pairs.append(tuple(
                FieldFunction(*(partial(mode.component, f.coeffs[i, i, ..., a:a + 1])
                                for f in derivatives)) for i in (0, 1)))
        return cls(pairs, volume=model.volume, length=model.length, c=cst.c)

    @classmethod
    def plane_wave(cls, energy: float, hbar: float, c: float, volume: float,
                   length: float, amplitude: complex = 1.0, wavenumber: float = 0.0):
        """Single monochromatic component u = amplitude e^{i kappa z} e^{-i E t / hbar}."""
        om = energy / hbar

        def u(z, t):
            return amplitude * np.exp(1j * wavenumber * z) * np.exp(-1j * om * t)

        def zero(z, t):
            return np.zeros(np.broadcast_shapes(np.shape(z), np.shape(t)), dtype=complex)

        pair = (
            FieldFunction(
                u=u,
                du_dt=lambda z, t: -1j * om * u(z, t),
                du_dz=lambda z, t: 1j * wavenumber * u(z, t),
                d2u_dt2=lambda z, t: -om * om * u(z, t),
                d2u_dz2=lambda z, t: -wavenumber * wavenumber * u(z, t),
            ),
            FieldFunction(u=zero, du_dt=zero, du_dz=zero),
        )
        return cls([pair], volume=volume, length=length, c=c,
                   energy=energy, hbar=hbar)

    def rotated(self, theta: float) -> "FieldFunctionSet":
        """Dual rotation applied pairwise in the (u1, u2) functional plane."""
        ct, st = math.cos(theta), math.sin(theta)
        pairs = [(_combine([(ct, u1), (st, u2)]), _combine([(ct, u2), (-st, u1)]))
                 for u1, u2 in self.pairs]
        return FieldFunctionSet(pairs, self.volume, self.length, self.c,
                                self.energy, self.hbar)

    def scaled(self, factor: complex) -> "FieldFunctionSet":
        """Gauge transform u -> factor * u (factor = beta e^{i alpha})."""
        pairs = [(_combine([(factor, u1)]), _combine([(factor, u2)])) for u1, u2 in self.pairs]
        return FieldFunctionSet(pairs, self.volume, self.length, self.c,
                                self.energy, self.hbar)


def phase_gauge_longitudinal(fieldset: FieldFunctionSet, z, t):
    """Longitudinal phase-gauge current density, sum 2 Im((du/dz) conj(u)).

    Vanishes identically for every component of the form
    (real z profile) x (any twice differentiable time factor), since the
    product (du/dz) conj(u) is then |time factor|^2 times a real profile.
    """
    total = 0.0
    for comp in fieldset.components:
        total = total + 2.0 * np.imag(comp.du_dz(z, t) * np.conj(comp.u(z, t)))
    return total


@dataclass(frozen=True)
class NoetherCharge:
    q1: float
    q2: float
    q: complex


def noether_charge(fieldset: FieldFunctionSet, t: float, n_quad: int = 96) -> NoetherCharge:
    """Gauge charges by quadrature over z in [0, L].

    q1 (phase-gauge charge) integrates 2 Im(du/dt conj(u)) / c; q2 (the
    scaling-gauge charge, a purely imaginary quantity i*q2) integrates
    -2 Re(du/dt conj(u)) / c.  Both carry the volume weight V/L.
    """
    zq, wq = _gauss_legendre(0.0, fieldset.length, n_quad)
    c = fieldset.c
    weight = fieldset.volume / fieldset.length
    im_sum = 0.0
    re_sum = 0.0
    for comp in fieldset.components:
        with np.errstate(invalid="ignore"):
            w_bar = comp.du_dt(zq, t) * np.conj(comp.u(zq, t))
        if not np.all(np.isfinite(w_bar.real)) or not np.all(np.isfinite(w_bar.imag)):
            raise ValueError("field set is not integrable on [0, L]")
        im_sum += float(np.sum(wq * np.imag(w_bar)))
        re_sum += float(np.sum(wq * np.real(w_bar)))
    q1 = (2.0 / c) * weight * im_sum
    q2 = -(2.0 / c) * weight * re_sum
    return NoetherCharge(q1=q1, q2=q2, q=complex(q1, q2))


def charge_drift(fieldset: FieldFunctionSet, times, n_quad: int = 96):
    """Max relative drift of (q1, q2) over the given time samples."""
    return relative_drift([noether_charge(fieldset, t, n_quad) for t in times])


def relative_drift(charges) -> tuple:
    """Max spreads of q1 and q2 over a sequence of NoetherCharge, relative to max |q|."""
    q1s = np.array([c.q1 for c in charges])
    q2s = np.array([c.q2 for c in charges])

    # one common scale: a component sitting at 0 must not divide by its own noise
    scale = max(float(np.max(np.hypot(q1s, q2s))), 1e-300)
    span1 = float(np.max(q1s) - np.min(q1s)) / scale
    span2 = float(np.max(q2s) - np.min(q2s)) / scale
    return span1, span2


def lagrange_residual(fieldset: FieldFunctionSet, z, t, k_factor: float = 0.0) -> float:
    """max |d2u/dz2 - (1/c^2) d2u/dt2 - K u| over components and grid."""
    worst = 0.0
    c2 = fieldset.c**2
    for comp in fieldset.components:
        if comp.d2u_dz2 is None or comp.d2u_dt2 is None:
            raise ValueError("second derivatives required for the residual")
        res = comp.d2u_dz2(z, t) - comp.d2u_dt2(z, t) / c2 - k_factor * comp.u(z, t)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def x4_continued_charge(fieldset: FieldFunctionSet, t: float = 0.0,
                        n_quad: int = 96) -> float:
    """Scaling-gauge integrand continued to the imaginary-time coordinate.

    For monochromatic u ~ e^{-iEt/hbar} the continuation replaces d/dx4 by
    the real decay rate -E/(hbar c), giving the nonzero charge integral
    -2 (E / hbar c) integral sum |u|^2 (V/L) dz.
    """
    if fieldset.energy is None or fieldset.hbar is None:
        raise ValueError("x4 continuation needs a monochromatic set with energy data")
    rate = fieldset.energy / (fieldset.hbar * fieldset.c)
    zq, wq = _gauss_legendre(0.0, fieldset.length, n_quad)
    total = 0.0
    for comp in fieldset.components:
        total += float(np.sum(wq * np.abs(comp.u(zq, t)) ** 2))
    return -2.0 * rate * total * fieldset.volume / fieldset.length


def analyticity_form_charge(fieldset: FieldFunctionSet, t: float = 0.0,
                            n_quad: int = 96) -> float:
    """The analyticity-derived charge: the continued form times v E/(hbar c)."""
    scale = fieldset.volume * fieldset.energy / (fieldset.hbar * fieldset.c)
    return scale * x4_continued_charge(fieldset, t, n_quad)


@dataclass
class SpinDensity:
    s4_12: callable      # density over z at the evaluation time
    s4_3: float          # volume-integrated spirality


def spirality(fieldset: FieldFunctionSet, t: float, n_quad: int = 96) -> SpinDensity:
    """Spin density of the dual rotation in the (u1, u2) functional plane.

    density(z) = (2/c) Im sum_pairs [conj(du1/dt) u2 - conj(du2/dt) u1];
    the spirality is its volume integral.  Additive over pairs and exactly
    invariant under a simultaneous dual rotation of every pair.
    """
    c = fieldset.c

    def density(z):
        total = 0.0
        for u1, u2 in fieldset.pairs:
            x = (np.conj(u1.du_dt(z, t)) * u2.u(z, t)
                 - np.conj(u2.du_dt(z, t)) * u1.u(z, t))
            total = total + np.imag(x)
        return (2.0 / c) * total

    zq, wq = _gauss_legendre(0.0, fieldset.length, n_quad)
    s43 = float(np.sum(wq * density(zq))) * fieldset.volume / fieldset.length
    return SpinDensity(s4_12=density, s4_3=s43)


class QuantizedFourCurrent:
    """Operator-valued 4-current of the time-local quantized field.

    Per-mode matrices on the truncated basis, built from a(t) = a0 e^{-iwt}
    and the second-family ladder a''(t) = -a(t) (constant-dropping
    convention).  The gauge-family components vanish identically for the
    Maxwellian field; the scaling-family ones are quadratic in the ladders
    and satisfy the operator continuity law exactly.
    """

    def __init__(self, model: CavityModel, dim: int, coupling: float = 1.0):
        if dim < 3:
            raise ValueError("dim < 3 leaves no informative safe block")
        from .fockquant import make_ladder
        self.model = model
        self.dim = dim
        self.coupling = coupling
        self.c = model.constants.c
        a0, ad0 = make_ladder(dim)
        self._a0 = a0.entries
        self._ad0 = ad0.entries

    def _mode(self, alpha_idx: int, t: float):
        """(w, k, a^2(t), a+^2(t)) of one mode."""
        w = self.model.omegas[alpha_idx]
        a2 = self._a0 @ self._a0 * np.exp(-2j * w * t)
        ad2 = self._ad0 @ self._ad0 * np.exp(2j * w * t)
        return w, self.model.wavenumbers[alpha_idx], a2, ad2

    def re_j3(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return np.zeros((self.dim, self.dim), dtype=complex)

    def im_j3(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = -2j * self.coupling / (self.c * self.model.volume)
        # a''^2 = a^2 and a''+^2 = a+^2 double the Maxwellian contribution
        return pref * k * w * math.sin(2 * k * z) * 2.0 * (a2 + ad2)

    def re_j4(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        """Anticommutator combination; exactly zero once a'' = -a."""
        from .fockquant import anticommutator
        md = self.model
        w = md.omegas[alpha_idx]
        k = md.wavenumbers[alpha_idx]
        at = self._a0 * np.exp(-1j * w * t)
        adt = self._ad0 * np.exp(1j * w * t)
        app, adpp = -at, -adt
        pref = 2.0 * self.coupling / (self.c**2 * md.volume)
        return pref * k * w**2 * (anticommutator(app, adt) - anticommutator(at, adpp))

    def im_j4(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = 2j * self.coupling / (self.c**2 * self.model.volume)
        eye = np.eye(self.dim)
        # oscillating part carries c k w, matching im_j3's k w prefactor so
        # that d j3/dz + d j4/dx4 cancels exactly (as in the classical pair,
        # where both components share one m w^3 prefactor)
        return pref * (self.c * k * w * 2.0 * (ad2 - a2) * math.cos(2 * k * z)
                       - 2.0 * w**2 * eye)

    def d_im_j3_dz(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = -2j * self.coupling / (self.c * self.model.volume)
        return pref * k * w * 2.0 * k * math.cos(2 * k * z) * 2.0 * (a2 + ad2)

    def d_im_j4_dt(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        w, k, a2, ad2 = self._mode(alpha_idx, t)
        pref = 2j * self.coupling / (self.c**2 * self.model.volume)
        return pref * self.c * k * w * 2.0 * (2j * w) * (ad2 + a2) * math.cos(2 * k * z)

    def continuity_residual(self, z: float, t: float) -> float:
        """Safe-block max of |d j3/dz + (1/ic) d j4/dt| over modes, both families."""
        from .fockquant import safe_block
        worst = 0.0
        for idx in range(self.model.n_modes):
            res_im = self.d_im_j3_dz(idx, z, t) \
                + self.d_im_j4_dt(idx, z, t) / (1j * self.c)
            worst = max(worst, float(np.max(np.abs(safe_block(res_im)))))
            # gauge family: j3 = 0 and j4 is the exact-zero anticommutator form
            res_re = self.re_j4(idx, z, t)
            worst = max(worst, float(np.max(np.abs(safe_block(res_re)))))
        return worst

    def vacuum_im_j3(self, z: float, t: float = 0.0) -> complex:
        return sum(self.im_j3(idx, z, t)[0, 0] for idx in range(self.model.n_modes))

    def vacuum_im_j4(self, z: float, t: float = 0.0) -> complex:
        return sum(self.im_j4(idx, z, t)[0, 0] for idx in range(self.model.n_modes))


def quantized_current(model: CavityModel, dim: int, coupling: float = 1.0) -> QuantizedFourCurrent:
    return QuantizedFourCurrent(model, dim, coupling)


def charge_ratio_estimate(j_e: float, j_h: float) -> float:
    """Magnetic-to-electric charge quantum ratio estimate sqrt(J_E / J_H)."""
    if j_e <= 0 or j_h <= 0:
        raise ValueError("both coupling energies must be positive")
    return math.sqrt(j_e / j_h)
