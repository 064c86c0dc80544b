"""Noether charges, 4-current densities and spirality for the cavity field.

The fourth coordinate is x4 = i c t throughout, so d/dx4 = (1/ic) d/dt.
The classical current keeps the overall charge normalization (the factor
e/hbar c in front of every density) as a configurable ``coupling`` constant;
the operator-valued one has it at 1.

Mode sums use the constant-dropping convention of :mod:`duplexem.cavity`
(q'' = -q, q' = -dq/dt / w), under which all mode-pair combinations below
are exact solutions and the continuity law holds identically, and their
time basis has the two entries exp(i w t) and exp(-i w t).  The charges
and the spirality read the pair (u1, u2) as the E_x and H_y coefficients
of a :class:`~duplexem.cavity.SpectralField` (`charge_field` builds it
from a cavity state) and integrate over z in [0, L], the cavity's volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (CavityModel, FirstSolution, ModeState, SpectralField, _check_sampling,
                     _d_dt, _d_dz, _gauss_legendre, _mode_sum, _mode_terms, _peak)
from .fockquant import make_ladder

N_QUAD = 96   # Gauss-Legendre nodes over [0, L] in the charge and spirality integrals


def _scaling_coeffs(x, y) -> np.ndarray:
    """The scaling-family j3 and j4 as coefficients [component, ..., profile, basis, mode]
    in the layout of :mod:`duplexem.cavity`, at wavenumbers 2k and frequencies 2w:

        j3 = -i sin(2 k z) (x e^{2iwt} + y e^{-2iwt}),
        j4 =  i cos(2 k z) (x e^{2iwt} - y e^{-2iwt}),

    with x and y holding one amplitude per mode on their last axis.
    """
    zero = np.zeros_like(x)
    j3 = [[-1j * x, -1j * y], [zero, zero]]
    j4 = [[zero, zero], [1j * x, -1j * y]]
    return np.moveaxis(np.array([j3, j4], dtype=complex), (1, 2), (-3, -2))


class ClassicalFourCurrent:
    """Evaluated 4-current components of a Maxwellian two-sector cavity field.

    Components are labeled by family: family 1 is the gauge (phase) part,
    family 2 the scaling part of the two-parameter gauge group.  For mode
    amplitudes q = C1 e^{iwt} + C2 e^{-iwt}, the scaling part is the form of
    `_scaling_coeffs` with x = kappa w^3 C1 C2* and y = x*, and

        j3^(1) = 0 identically,
        j4^(1) = i kappa sum_a w^3 (|C1|^2 - |C2|^2)    (z, t independent),

    with kappa = 8 * coupling / (c L).
    """

    def __init__(self, model: CavityModel, state: ModeState, coupling: float = 1.0):
        if state.n_modes != model.n_modes:
            raise ValueError("state and model disagree on the number of modes")
        weight = 8.0 * coupling / (model.constants.c * model.length) * model.omegas**3
        x = weight * state.c1 * np.conj(state.c2)
        gauge = 1j * np.sum(weight * (np.abs(state.c1) ** 2 - np.abs(state.c2) ** 2))
        self._hold(model, x, np.conj(x), (gauge, 0.0))

    def _hold(self, model: CavityModel, x, y, j4_constants):
        """Keep the scaling coefficients of (x, y) and the constant j4 of each family."""
        self.c = model.constants.c
        self.length = model.length
        self.max_alpha = model.n_modes
        self.wavenumbers = 2.0 * model.wavenumbers
        self.omegas = 2.0 * model.omegas
        self.coeffs = _scaling_coeffs(x, y)
        self.j4_constants = j4_constants

    def _sum(self, coeffs, z, t) -> np.ndarray:
        """One component's coefficients summed on the outer (z, t) grid."""
        return _mode_sum(coeffs, self.wavenumbers, self.omegas, z, t)

    def _density(self, component: int, z, t, family: int, constant):
        grid = np.shape(z) + np.shape(t)
        if family == 2:
            values = self._sum(self.coeffs[component], z, t)
        else:
            values = np.zeros(self.coeffs.shape[1:-3] + grid, dtype=complex)
        return values + np.reshape(constant, np.shape(constant) + (1,) * len(grid))

    def j3(self, z, t, family: int):
        return self._density(0, z, t, family, 0.0)

    def j4(self, z, t, family: int):
        return self._density(1, z, t, family, self.j4_constants[family - 1])


class QuantizedFourCurrent(ClassicalFourCurrent):
    """Operator-valued 4-current of the time-local quantized field.

    The classical current's mode sums with matrix amplitudes on the leading
    (dim, dim) axes: from a(t) = a0 e^{-iwt} and the second-family ladder
    a''(t) = -a(t) (constant-dropping convention), with unit charge
    normalization, x = (4 k w / c L) a0+^2 and y = (4 k w / c L) a0^2 per
    mode, and j4 of the scaling family carries the vacuum term
    -4i sum_a w^2 / (c^2 L) times the identity.  The gauge family vanishes
    identically for the Maxwellian field.  Continuity is linear in x and y,
    so it holds in every matrix entry, the top number state included.
    """

    def __init__(self, model: CavityModel, dim: int):
        if dim < 3:
            raise ValueError("dim < 3 makes a0^2 = 0: the current would have no scaling part")
        a0, ad0 = make_ladder(dim)
        c, length = model.constants.c, model.length
        rate = 4.0 * model.wavenumbers * model.omegas / (c * length)
        vacuum = -4j * np.sum(model.omegas**2) / (c**2 * length) * np.eye(dim)
        self._hold(model, (ad0 @ ad0)[..., None] * rate, (a0 @ a0)[..., None] * rate,
                   (0.0, vacuum))


def continuity_residual(current, z, t) -> float:
    """max |d j3/dz + (1/ic) d j4/dt| over the grid and every entry, relative to
    the larger of max |d j3/dz| and max |d j4/dt| / c; 0 for a current
    without a scaling part.

    Only the scaling family varies: the gauge family and the vacuum term
    are constant in z and t.
    """
    # current densities oscillate at 2 k_alpha; need 4 points per half wavelength
    _check_sampling(z, current.length / current.max_alpha, "z")
    j3, j4 = current.coeffs
    dj3_dz = current._sum(_d_dz(j3, current.wavenumbers), z, t)
    dj4_dx4 = current._sum(_d_dt(j4, current.omegas), z, t) / (1j * current.c)
    scale = max(_peak(dj3_dz), _peak(dj4_dx4))
    return _peak(dj3_dz + dj4_dx4) / scale if scale else 0.0


def charge_field(model: CavityModel, state: ModeState) -> SpectralField:
    """Two-sector mode functions of the cavity field, as a SpectralField whose
    E_x and H_y are the pair (u1, u2) of the charges:

        u1_a = sqrt(eps0) A^E_a sin(k z) (q_a + i q''_a)
        u2_a = sqrt(mu0)  A^H_a cos(k z) (-q'_a + (i/w) dq_a/dt)

    with the constant-dropping convention q'' = -q, q' = -dq/dt / w,
    so the time factors are (1 - i) q and (1 + i) dq/dt / w: mode by
    mode u1 = sqrt(eps0) (1 - i) E_x and u2 = sqrt(mu0) (1 + i) H_y of
    the first family, whose H_y carries A^E eps0 / k = A^H / w.
    """
    cst = model.constants
    return FirstSolution(model, state).scaled(math.sqrt(cst.eps0) * complex(1.0, -1.0),
                                              math.sqrt(cst.mu0) * complex(1.0, 1.0))


def _pair_terms(field: SpectralField, t: float):
    """Quadrature weights on [0, L], and u = (E_x, H_y) and du/dt per mode on their
    nodes: shape (2, 2, n_modes, N_QUAD), [u or du/dt, u1 or u2, mode, node]."""
    zq, wq = _gauss_legendre(0.0, field.length, N_QUAD)
    pair = field.coeffs[[0, 1], [0, 1]]
    return wq, _mode_terms(np.array([pair, _d_dt(pair, field.omegas)]), field.wavenumbers,
                           field.omegas, zq, t)


@dataclass(frozen=True)
class NoetherCharge:
    """The gauge charges q1 and q2 and the size of what they integrate."""

    q1: float
    q2: float
    scale: float


def _ordered_sum(values):
    """0 + values[0] + values[1] + ... over the first axis, one addition at a time."""
    return np.cumsum(np.insert(values, 0, 0.0, axis=0), axis=0)[-1]


def noether_charge(field: SpectralField, c: float, t: float) -> NoetherCharge:
    """Gauge charges of the pair (u1, u2) = (E_x, H_y) of ``field`` by quadrature
    over z in [0, L].

    q1 (phase-gauge charge) integrates 2 Im(du/dt conj(u)) / c; q2 (the
    scaling-gauge charge, a purely imaginary quantity i*q2) integrates
    -2 Re(du/dt conj(u)) / c.  ``scale`` integrates 2 |du/dt conj(u)| / c
    the same way, term by term: it bounds |q1| and |q2|, and their rounding
    error is a few ulps of it.  ValueError if ``scale`` is not finite, which
    it is whenever a product du/dt conj(u) is not or their sum overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wq, (u, du_dt) = _pair_terms(field, t)
        w_bar = du_dt * np.conj(u)
        scale = (2.0 / c) * float(np.sum(wq * np.abs(w_bar)))
    if not math.isfinite(scale):
        raise ValueError(f"the charge scale (2/c) sum |du/dt conj(u)| over [0, L] is "
                         f"{scale!r} at t = {float(t)!r}: the charge integrals overflow, "
                         f"or the field is not finite")
    # one quadrature per component, added in the order u1_0, u2_0, u1_1, u2_1, ...
    im_sum = float(_ordered_sum(np.sum(wq * w_bar.imag, axis=-1).T.ravel()))
    re_sum = float(_ordered_sum(np.sum(wq * w_bar.real, axis=-1).T.ravel()))
    return NoetherCharge(q1=(2.0 / c) * im_sum, q2=-(2.0 / c) * re_sum, scale=scale)


def charge_drift(field: SpectralField, c: float, times):
    """Max relative drift of (q1, q2) over the given time samples."""
    return relative_drift([noether_charge(field, c, t) for t in times])


def relative_drift(charges) -> tuple:
    """Max spreads of q1 and q2 over a sequence of NoetherCharge, relative to
    the largest ``scale``, so that charges which are rounding noise (a
    standing wave's) read as small as conserved ones."""
    q1s = np.array([c.q1 for c in charges])
    q2s = np.array([c.q2 for c in charges])

    # one common scale: a component sitting at 0 must not divide by its own noise
    scale = max(max(c.scale for c in charges), 1e-300)
    span1 = float(np.max(q1s) - np.min(q1s)) / scale
    span2 = float(np.max(q2s) - np.min(q2s)) / scale
    return span1, span2


def spirality(field: SpectralField, c: float, t: float) -> float:
    """Spirality: the integral over [0, L] of the spin density of the dual
    rotation in the (u1, u2) = (E_x, H_y) functional plane of ``field``,

        density(z) = (2/c) Im sum_modes [conj(du1/dt) u2 - conj(du2/dt) u1].

    Additive over modes and exactly invariant under a simultaneous dual
    rotation of every pair.
    """
    wq, ((u1, u2), (du1_dt, du2_dt)) = _pair_terms(field, t)
    pairs = np.imag(np.conj(du1_dt) * u2 - np.conj(du2_dt) * u1)
    density = (2.0 / c) * _ordered_sum(pairs)
    return float(np.sum(wq * density))


def charge_ratio_estimate(j_e: float, j_h: float) -> float:
    """Magnetic-to-electric charge quantum ratio estimate sqrt(J_E / J_H)."""
    if j_e <= 0 or j_h <= 0:
        raise ValueError("both coupling energies must be positive")
    return math.sqrt(j_e / j_h)
