"""Classical EM field in a 1D perfect cavity.

Two solution families for a linearly polarized field E_x(z, t), H_y(z, t)
with mode frequencies omega_a = a*pi*c/L, plus utilities: analytic Maxwell
residuals on (z, t) grids, the forward-propagation analyticity residual,
four-sector parity packaging into quaternion components, field energy, and
CSV dumps.

Mode amplitudes solve q'' + omega^2 q = 0,

    q_a(t) = C1_a exp(i w_a t) + C2_a exp(-i w_a t).

The second family is built on the running integrals
q'_a = w_a int_0^t q  and  q''_a = w_a int_0^t q', with integration
constants dropped (they are absorbable into the mode masses); in that
convention q' = -dq/dt / w and q'' = -q, so the second family is the
sign-flipped first family and satisfies both curl equations exactly.
Keeping the raw integration constants instead introduces a secular
(linear-in-t) term whenever C1 != C2, which is reported as a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .tables import write_csv

PARITY_LABELS = {
    1: ("P-odd", "t-even"),
    2: ("P-odd", "t-odd"),
    3: ("P-even", "t-even"),
    4: ("P-even", "t-odd"),
}


@dataclass(frozen=True)
class CavityModel:
    length: float
    n_modes: int
    constants: PhysicalConstants
    volume: float = None   # default: unit cross-section, V = L
    masses: np.ndarray = None  # per-mode mass-like parameters, default 1

    def __post_init__(self):
        if self.length <= 0 or self.n_modes < 1:
            raise ValueError("need positive length and at least one mode")
        if self.volume is None:
            object.__setattr__(self, "volume", self.length)
        masses = np.ones(self.n_modes) if self.masses is None \
            else np.asarray(self.masses, dtype=float)
        if masses.shape != (self.n_modes,):
            raise ValueError("masses must have one entry per mode")
        object.__setattr__(self, "masses", masses)

    @property
    def alphas(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1)

    @property
    def omegas(self) -> np.ndarray:
        return self.alphas * np.pi * self.constants.c / self.length

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.alphas * np.pi / self.length

    @property
    def period(self) -> float:
        """Time segment L/c pairing the spatial and temporal mode grids."""
        return self.length / self.constants.c

    @property
    def amp_e(self) -> np.ndarray:
        return np.sqrt(2.0 * self.omegas**2 * self.masses
                       / (self.volume * self.constants.eps0))

    @property
    def amp_h(self) -> np.ndarray:
        return np.sqrt(2.0 * self.omegas**2 * self.masses
                       / (self.volume * self.constants.mu0))


@dataclass(frozen=True)
class ModeState:
    """Mode coefficients C1, C2 of q(t) = C1 e^{iwt} + C2 e^{-iwt}."""

    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        c1 = np.atleast_1d(np.asarray(self.c1, dtype=complex))
        c2 = np.atleast_1d(np.asarray(self.c2, dtype=complex))
        if c1.shape != c2.shape:
            raise ValueError("c1 and c2 must have the same length")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @classmethod
    def from_real(cls, b, phi) -> "ModeState":
        """Real standing form q = B cos(wt + phi)."""
        b = np.atleast_1d(np.asarray(b, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        return cls(0.5 * b * np.exp(1j * phi), 0.5 * b * np.exp(-1j * phi))

    @classmethod
    def single_mode(cls, n_modes: int, alpha: int, c1=0j, c2=0j) -> "ModeState":
        a1 = np.zeros(n_modes, dtype=complex)
        a2 = np.zeros(n_modes, dtype=complex)
        a1[alpha - 1] = c1
        a2[alpha - 1] = c2
        return cls(a1, a2)

    @property
    def n_modes(self) -> int:
        return self.c1.shape[0]


def _expand(vec, ndim):
    return np.asarray(vec).reshape((-1,) + (1,) * ndim)


def mode_q(model: CavityModel, state: ModeState, t, deriv: int = 0) -> np.ndarray:
    """q_a(t) or its time derivatives; shape (n_modes,) + shape(t)."""
    t = np.asarray(t, dtype=float)
    om = _expand(model.omegas, t.ndim)
    c1 = _expand(state.c1, t.ndim)
    c2 = _expand(state.c2, t.ndim)
    return ((1j * om) ** deriv * c1 * np.exp(1j * om * t)
            + (-1j * om) ** deriv * c2 * np.exp(-1j * om * t))


def mode_qprime(model, state, t, raw: bool = False) -> np.ndarray:
    """q'_a = w int_0^t q; with raw=False the integration constant is dropped."""
    t = np.asarray(t, dtype=float)
    om = _expand(model.omegas, t.ndim)
    c1 = _expand(state.c1, t.ndim)
    c2 = _expand(state.c2, t.ndim)
    val = -1j * (c1 * np.exp(1j * om * t) - c2 * np.exp(-1j * om * t))
    if raw:
        val = val + 1j * (c1 - c2)
    return val


def mode_qsecond(model, state, t, raw: bool = False) -> np.ndarray:
    """q''_a = w int_0^t q'; raw=True keeps constants and the secular term."""
    t = np.asarray(t, dtype=float)
    om = _expand(model.omegas, t.ndim)
    c1 = _expand(state.c1, t.ndim)
    c2 = _expand(state.c2, t.ndim)
    val = -(c1 * np.exp(1j * om * t) + c2 * np.exp(-1j * om * t))
    if raw:
        val = val + (c1 + c2) + 1j * om * t * (c1 - c2)
    return val


def _mode_sum(zpart, tpart):
    # contract the mode axis of (M, *Z) against (M, *T) -> (*Z, *T)
    return np.tensordot(zpart, tpart, axes=(0, 0))


class FieldOnSegment:
    """Interface: e/h 3-vector fields of (z, t) plus analytic derivatives.

    Methods return arrays of shape (3,) + shape(z) + shape(t).
    """

    length = None
    max_alpha = None

    def e(self, z, t):
        raise NotImplementedError

    def h(self, z, t):
        raise NotImplementedError

    def de_dz(self, z, t):
        raise NotImplementedError

    def de_dt(self, z, t):
        raise NotImplementedError

    def dh_dz(self, z, t):
        raise NotImplementedError

    def dh_dt(self, z, t):
        raise NotImplementedError


def _vec_x(component):
    zeros = np.zeros_like(component)
    return np.stack([component, zeros, zeros])


def _vec_y(component):
    zeros = np.zeros_like(component)
    return np.stack([zeros, component, zeros])


class _CavitySolutionBase(FieldOnSegment):
    def __init__(self, model: CavityModel, state: ModeState):
        if state.n_modes != model.n_modes:
            raise ValueError("state and model disagree on the number of modes")
        self.model = model
        self.state = state
        self.length = model.length
        self.max_alpha = model.n_modes

    def _check_z(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z < -1e-12) or np.any(z > self.length * (1 + 1e-12)):
            raise ValueError("z outside the cavity [0, L]")
        return z

    def _zparts(self, z, which: str, deriv: int):
        z = self._check_z(z)
        k = _expand(self.model.wavenumbers, z.ndim)
        kz = k * z
        if which == "sin":
            fn = np.sin(kz) if deriv == 0 else k * np.cos(kz)
        else:
            fn = np.cos(kz) if deriv == 0 else -k * np.sin(kz)
        return fn


class FirstSolution(_CavitySolutionBase):
    """E_x = sum A^E_a q_a sin(k_a z); H_y = sum A^E_a (eps0/k_a) dq_a/dt cos(k_a z)."""

    def _ex(self, z, t, dz=0, dt=0):
        zp = self._zparts(z, "sin", dz) * _expand(self.model.amp_e, np.asarray(z).ndim)
        return _mode_sum(zp, mode_q(self.model, self.state, t, deriv=dt))

    def _hy(self, z, t, dz=0, dt=0):
        coef = self.model.amp_e * self.model.constants.eps0 / self.model.wavenumbers
        zp = self._zparts(z, "cos", dz) * _expand(coef, np.asarray(z).ndim)
        return _mode_sum(zp, mode_q(self.model, self.state, t, deriv=1 + dt))

    def e(self, z, t):
        return _vec_x(self._ex(z, t))

    def h(self, z, t):
        return _vec_y(self._hy(z, t))

    def de_dz(self, z, t):
        return _vec_x(self._ex(z, t, dz=1))

    def de_dt(self, z, t):
        return _vec_x(self._ex(z, t, dt=1))

    def dh_dz(self, z, t):
        return _vec_y(self._hy(z, t, dz=1))

    def dh_dt(self, z, t):
        return _vec_y(self._hy(z, t, dt=1))


class SecondSolution(_CavitySolutionBase):
    """E_x = sum A^E_a q''_a sin(k_a z); H_y = sum A^H_a q'_a cos(k_a z).

    Built with integration constants dropped, so q'' = -q and the electric
    field differs from the first family only by sign.  The sign of the
    magnetic term is fixed by the curl-H equation (a flipped sign would
    violate it for every oscillatory mode).
    """

    def __init__(self, model, state, keep_constants: bool = False):
        super().__init__(model, state)
        self.keep_constants = keep_constants
        if keep_constants and np.any(np.abs(state.c1 - state.c2) > 0):
            warnings.warn(
                "raw mode integrals contain a secular (linear-in-t) term for "
                "C1 != C2; the constant-dropping convention removes it",
                stacklevel=2,
            )

    def _ex(self, z, t, dz=0, dt=0):
        amp = self.model.amp_e
        zp = self._zparts(z, "sin", dz) * _expand(amp, np.asarray(z).ndim)
        if self.keep_constants:
            if dt == 0:
                tp = mode_qsecond(self.model, self.state, t, raw=True)
            else:
                tp = _d_raw_qsecond(self.model, self.state, t, dt)
        else:
            tp = -mode_q(self.model, self.state, t, deriv=dt)
        return _mode_sum(zp, tp)

    def _hy(self, z, t, dz=0, dt=0):
        zp = self._zparts(z, "cos", dz) * _expand(self.model.amp_h, np.asarray(z).ndim)
        om = _expand(self.model.omegas, np.asarray(t).ndim)
        if dt == 0:
            tp = mode_qprime(self.model, self.state, t, raw=self.keep_constants)
        else:
            # the integration constant drops under d/dt; dq'/dt = w q either way
            tp = om * mode_q(self.model, self.state, t, deriv=dt - 1)
        return _mode_sum(zp, tp)

    def e(self, z, t):
        return _vec_x(self._ex(z, t))

    def h(self, z, t):
        return _vec_y(self._hy(z, t))

    def de_dz(self, z, t):
        return _vec_x(self._ex(z, t, dz=1))

    def de_dt(self, z, t):
        return _vec_x(self._ex(z, t, dt=1))

    def dh_dz(self, z, t):
        return _vec_y(self._hy(z, t, dz=1))

    def dh_dt(self, z, t):
        return _vec_y(self._hy(z, t, dt=1))


def _d_raw_qsecond(model, state, t, dt):
    # d/dt of raw q'': -dq/dt + i w (c1 - c2); higher derivatives lose the constant
    t = np.asarray(t, dtype=float)
    om = _expand(model.omegas, t.ndim)
    val = -mode_q(model, state, t, deriv=dt)
    if dt == 1:
        val = val + 1j * om * (_expand(state.c1, t.ndim) - _expand(state.c2, t.ndim))
    return val


class RotatedSolution(FieldOnSegment):
    """Circular dual mix of an existing solution by a fixed angle."""

    def __init__(self, base: FieldOnSegment, theta: float):
        self.base = base
        self.theta = theta
        self.length = base.length
        self.max_alpha = base.max_alpha

    def _mix(self, fe, fh, z, t):
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * fe(z, t) + s * fh(z, t)

    def e(self, z, t):
        return self._mix(self.base.e, self.base.h, z, t)

    def h(self, z, t):
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * self.base.h(z, t) - s * self.base.e(z, t)

    def de_dz(self, z, t):
        return self._mix(self.base.de_dz, self.base.dh_dz, z, t)

    def de_dt(self, z, t):
        return self._mix(self.base.de_dt, self.base.dh_dt, z, t)

    def dh_dz(self, z, t):
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * self.base.dh_dz(z, t) - s * self.base.de_dz(z, t)

    def dh_dt(self, z, t):
        c, s = np.cos(self.theta), np.sin(self.theta)
        return c * self.base.dh_dt(z, t) - s * self.base.de_dt(z, t)


class ScaledSolution(FieldOnSegment):
    """Complex rescale of e and/or h; also covers perturbed-field checks."""

    def __init__(self, base: FieldOnSegment, e_factor=1.0, h_factor=1.0):
        self.base = base
        self.e_factor = e_factor
        self.h_factor = h_factor
        self.length = base.length
        self.max_alpha = base.max_alpha

    def e(self, z, t):
        return self.e_factor * self.base.e(z, t)

    def h(self, z, t):
        return self.h_factor * self.base.h(z, t)

    def de_dz(self, z, t):
        return self.e_factor * self.base.de_dz(z, t)

    def de_dt(self, z, t):
        return self.e_factor * self.base.de_dt(z, t)

    def dh_dz(self, z, t):
        return self.h_factor * self.base.dh_dz(z, t)

    def dh_dt(self, z, t):
        return self.h_factor * self.base.dh_dt(z, t)


class ReflectedSolution(FieldOnSegment):
    """Midpoint reflection z -> L - z of an existing solution."""

    def __init__(self, base: FieldOnSegment):
        if base.length is None:
            raise ValueError("base field needs a defined segment length")
        self.base = base
        self.length = base.length
        self.max_alpha = base.max_alpha

    def _flip(self, z):
        return self.length - np.asarray(z, dtype=float)

    def e(self, z, t):
        return self.base.e(self._flip(z), t)

    def h(self, z, t):
        return self.base.h(self._flip(z), t)

    def de_dz(self, z, t):
        return -self.base.de_dz(self._flip(z), t)

    def de_dt(self, z, t):
        return self.base.de_dt(self._flip(z), t)

    def dh_dz(self, z, t):
        return -self.base.dh_dz(self._flip(z), t)

    def dh_dt(self, z, t):
        return self.base.dh_dt(self._flip(z), t)


class ZeroField(FieldOnSegment):
    def __init__(self, length=None):
        self.length = length
        self.max_alpha = None

    def _zero(self, z, t):
        shape = (3,) + np.shape(z) + np.shape(t)
        return np.zeros(shape, dtype=complex)

    e = h = de_dz = de_dt = dh_dz = dh_dt = _zero


class ComboField(FieldOnSegment):
    """Fixed complex linear combination of fields on the same segment."""

    def __init__(self, terms):
        self.terms = [(complex(c), f) for c, f in terms]
        lengths = {f.length for _, f in self.terms if f.length is not None}
        if len(lengths) > 1:
            raise ValueError("mismatched domains in field combination")
        self.length = lengths.pop() if lengths else None
        alphas = [f.max_alpha for _, f in self.terms if f.max_alpha]
        self.max_alpha = max(alphas) if alphas else None

    def _sum(self, name, z, t):
        return sum(c * getattr(f, name)(z, t) for c, f in self.terms)

    def e(self, z, t):
        return self._sum("e", z, t)

    def h(self, z, t):
        return self._sum("h", z, t)

    def de_dz(self, z, t):
        return self._sum("de_dz", z, t)

    def de_dt(self, z, t):
        return self._sum("de_dt", z, t)

    def dh_dz(self, z, t):
        return self._sum("dh_dz", z, t)

    def dh_dt(self, z, t):
        return self._sum("dh_dt", z, t)


class AnalyticField(FieldOnSegment):
    """Adapter for analytic test fields given as numpy-broadcasting callables.

    Each callable receives (z, t) already shaped for outer broadcasting and
    must return shape (3,) + shape(z) + shape(t), e.g.
    ``lambda z, t: np.stack([np.cos(k*z - w*t), 0*z*t, 0*z*t])``.
    """

    def __init__(self, e, h, de_dz, de_dt, dh_dz, dh_dt, length=None, max_alpha=None):
        fns = dict(e=e, h=h, de_dz=de_dz, de_dt=de_dt, dh_dz=dh_dz, dh_dt=dh_dt)
        for name, fn in fns.items():

            def wrapped(z, t, _fn=fn):
                zz = np.asarray(z, dtype=float)
                tt = np.asarray(t, dtype=float)
                zb = zz.reshape(zz.shape + (1,) * tt.ndim)
                tb = tt.reshape((1,) * zz.ndim + tt.shape)
                return _fn(zb, tb)

            setattr(self, name, wrapped)
        self.length = length
        self.max_alpha = max_alpha


@dataclass
class QuaternionField:
    """Four parity-labeled field sectors packed as quaternion components.

    sectors[i] (i = 1..4) carries the parity pair PARITY_LABELS[i].  The
    quaternion electric component is (E1 - i E2) + (E3 - i E4) j; sectors
    are never summed with real coefficients across parity labels (such a
    sum would mix mathematically heterogeneous objects).
    """

    sectors: dict

    def __post_init__(self):
        if set(self.sectors) != {1, 2, 3, 4}:
            raise ValueError("need sectors labeled 1..4")
        lengths = {s.length for s in self.sectors.values() if s.length is not None}
        if len(lengths) > 1:
            raise ValueError("mismatched domains across sectors")
        self.length = lengths.pop() if lengths else None

    def parity(self, index: int):
        return PARITY_LABELS[index]

    def component_fields(self):
        """The two complex combinations: the 'e' part and the 'j' part."""
        ce = ComboField([(1.0, self.sectors[1]), (-1j, self.sectors[2])])
        cj = ComboField([(1.0, self.sectors[3]), (-1j, self.sectors[4])])
        return ce, cj


def assemble_quaternion_field(sector1, sector2, sector3, sector4) -> QuaternionField:
    return QuaternionField({1: sector1, 2: sector2, 3: sector3, 4: sector4})


def quaternion_field_from_rotation(base: FieldOnSegment, theta: float) -> QuaternionField:
    """Split a classical solution into the cos/sin sectors of a dual rotation."""
    cos_part = ScaledSolution(base, np.cos(theta), np.cos(theta))
    sin_part = ScaledSolution(base, np.sin(theta), np.sin(theta))
    zero = ZeroField(base.length)
    return assemble_quaternion_field(cos_part, sin_part, zero, zero)


def _curl_z_only(f_dz):
    """curl of a field depending on z only: (-d f_y/dz, d f_x/dz, 0)."""
    out = np.zeros_like(f_dz)
    out[0] = -f_dz[1]
    out[1] = f_dz[0]
    return out


def _grid_ok(field, z, t, constants):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if field.max_alpha:
        lam_min = 2.0 * field.length / field.max_alpha
        z_span = float(z.max() - z.min())
        if z_span > 0 and z.size * lam_min / z_span < 4.0:
            raise ValueError("z grid too coarse: fewer than 4 points per "
                             "shortest wavelength")
        t_span = float(t.max() - t.min())
        period_min = lam_min / constants.c
        if t_span > 0 and t.size * period_min / t_span < 4.0:
            raise ValueError("t grid too coarse: fewer than 4 points per "
                             "shortest period")


class FieldSources:
    """Current/charge densities entering the generalized equations."""

    def __init__(self, j_e=None, j_g=None, rho_e=None, rho_g=None):
        self.j_e = j_e
        self.j_g = j_g
        self.rho_e = rho_e
        self.rho_g = rho_g

    def eval(self, name, z, t, vec):
        fn = getattr(self, name)
        if fn is None:
            shape = ((3,) if vec else ()) + np.shape(z) + np.shape(t)
            return np.zeros(shape, dtype=complex)
        return fn(z, t)


def maxwell_residual(field, z, t, constants: PhysicalConstants,
                     sources: FieldSources = None, check_grid: bool = True):
    """Max-norm residuals of the four generalized equations on a (z, t) grid.

    Returns (r_curl_e, r_curl_h, r_div_e, r_div_h) where the residuals are

        curl E + mu0 dH/dt + j_g,
        curl H - eps0 dE/dt - j_e,
        div E - rho_e,
        div H - rho_g.

    Quaternion-packed fields are checked component-wise (the 'e' and 'j'
    complex parts separately) and the worst case is returned.
    """
    if isinstance(field, QuaternionField):
        parts = field.component_fields()
        res = [maxwell_residual(p, z, t, constants, sources, check_grid)
               for p in parts]
        return tuple(max(r[i] for r in res) for i in range(4))

    if check_grid:
        _grid_ok(field, z, t, constants)
    src = sources or FieldSources()

    r1 = _curl_z_only(field.de_dz(z, t)) + constants.mu0 * field.dh_dt(z, t) \
        + src.eval("j_g", z, t, vec=True)
    r2 = _curl_z_only(field.dh_dz(z, t)) - constants.eps0 * field.de_dt(z, t) \
        - src.eval("j_e", z, t, vec=True)
    r3 = field.de_dz(z, t)[2] - src.eval("rho_e", z, t, vec=False)
    r4 = field.dh_dz(z, t)[2] - src.eval("rho_g", z, t, vec=False)
    return (float(np.max(np.abs(r1))), float(np.max(np.abs(r2))),
            float(np.max(np.abs(r3))), float(np.max(np.abs(r4))))


def cauchy_riemann_residual(field, z, t, constants: PhysicalConstants) -> float:
    """Analyticity residual of F = H - iE in the variable z + ict.

    After substituting the imaginary time coordinate, the component-wise
    analyticity condition becomes the transport equation
    (d/dz + (1/c) d/dt) F = 0, satisfied by forward-propagating free
    fields and violated e.g. by a time-varying field with H = 0.
    """
    c = constants.c
    f_dz = field.dh_dz(z, t) - 1j * field.de_dz(z, t)
    f_dt = field.dh_dt(z, t) - 1j * field.de_dt(z, t)
    return float(np.max(np.abs(f_dz + f_dt / c)))


def field_hamiltonian(model: CavityModel, state: ModeState, t, n_quad: int = None) -> complex:
    """Field energy (1/2) integral (eps0 E^2 + mu0 H^2) dV with bilinear squares."""
    from .currents import _gauss_legendre  # currents imports this module
    n_quad = n_quad or max(32, 4 * model.n_modes)
    zq, wq = _gauss_legendre(0.0, model.length, n_quad)
    sol = FirstSolution(model, state)
    ex = sol._ex(zq, t)
    hy = sol._hy(zq, t)
    dens = 0.5 * (model.constants.eps0 * ex**2 + model.constants.mu0 * hy**2)
    w_shape = wq.reshape((-1,) + (1,) * (dens.ndim - 1))
    integral = np.sum(w_shape * dens, axis=0)
    val = integral * model.volume / model.length
    return complex(val) if np.ndim(val) == 0 else val


def mode_hamiltonian(model: CavityModel, state: ModeState, t) -> complex:
    """Closed-form (1/2) sum_a (m w^2 q^2 + p^2/m), with p = m dq/dt."""
    q = mode_q(model, state, t)
    qd = mode_q(model, state, t, deriv=1)
    m = _expand(model.masses, np.asarray(t).ndim)
    om = _expand(model.omegas, np.asarray(t).ndim)
    val = 0.5 * np.sum(m * om**2 * q**2 + m * qd**2, axis=0)
    return complex(val) if np.ndim(val) == 0 else val


def dump_field_csv(field, z, t, path, parity=None):
    """Field samples as CSV: z, t, Re/Im of all six components per row."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    names = ["z", "t"]
    columns = [np.repeat(z, t.size), np.tile(t, z.size)]
    for label, vec in (("e", field.e(z, t)), ("h", field.h(z, t))):
        for comp, axis in enumerate("xyz"):
            val = np.asarray(vec[comp], dtype=complex).ravel()
            names += [f"re_{label}{axis}", f"im_{label}{axis}"]
            columns += [val.real, val.imag]
    preamble = f"# parity: {parity[0]}, {parity[1]}\n" if parity else ""
    write_csv(path, names, columns, preamble)
