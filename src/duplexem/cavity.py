"""Classical EM field in a 1D perfect cavity.

Two solution families for a linearly polarized field E_x(z, t), H_y(z, t)
with mode frequencies omega_a = a*pi*c/L, plus utilities: analytic Maxwell
residuals on (z, t) grids, four-sector parity packaging into quaternion
components, field energy, and CSV dumps.

Mode amplitudes solve q'' + omega^2 q = 0,

    q_a(t) = C1_a exp(i w_a t) + C2_a exp(-i w_a t).

The second family is built on the running integrals
q'_a = w_a int_0^t q  and  q''_a = w_a int_0^t q', with integration
constants dropped (they are absorbable into the mode masses); in that
convention q' = -dq/dt / w and q'' = -q, so the second family is the
sign-flipped first family and satisfies both curl equations exactly.

Every field here is a finite mode sum.  :class:`SpectralField` holds it as
one complex array ``coeffs[field, axis, profile, basis, mode]``:

    field    0: E, 1: H
    axis     0: x, 1: y          (z components vanish in the 1D cavity)
    profile  0: sin(k_a z), 1: cos(k_a z)
    basis    0: exp(i w_a t), 1: exp(-i w_a t)

so that, e.g., E_x = sum over profile p, basis b and mode a of
coeffs[0, 0, p, b, a] Z_p(k_a z) T_b(w_a t).  Derivatives, dual
rotation, scaling, reflection z -> L - z and linear combinations are exact
maps on this array; only evaluation touches the (z, t) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import PhysicalConstants
from .tables import write_csv


@dataclass(frozen=True)
class CavityModel:
    """A cavity of ``length`` L with unit cross-section, so its volume is L,
    and ``n_modes`` modes of unit mass."""

    length: float
    n_modes: int
    constants: PhysicalConstants

    def __post_init__(self):
        if self.length <= 0 or self.n_modes < 1:
            raise ValueError("need positive length and at least one mode")

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
        return np.sqrt(2.0 * self.omegas**2 / (self.length * self.constants.eps0))

    @property
    def amp_h(self) -> np.ndarray:
        return np.sqrt(2.0 * self.omegas**2 / (self.length * self.constants.mu0))


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

    @property
    def n_modes(self) -> int:
        return self.c1.shape[0]


def _expand(vec, ndim):
    return np.asarray(vec).reshape((-1,) + (1,) * ndim)


def _inside(z, length) -> np.ndarray:
    """z as a float array; ValueError if a point lies outside [0, L] beyond
    rounding, or is NaN."""
    z = np.asarray(z, dtype=float)
    if z.size and not (z.min() >= -1e-12 and z.max() <= length * (1 + 1e-12)):
        raise ValueError("z outside the cavity [0, L]")
    return z


def _d_dz(coeffs, k):
    """d/dz on coefficients [..., profile, basis, mode]: sin -> k cos, cos -> -k sin."""
    return np.stack([-k * coeffs[..., 1, :, :], k * coeffs[..., 0, :, :]], axis=-3)


def _d_dt(coeffs, w):
    """d/dt on coefficients [..., basis, mode]: e^{+-iwt} -> +-iw."""
    return np.stack([1j * w * coeffs[..., 0, :], -1j * w * coeffs[..., 1, :]], axis=-2)


def _time_coeffs(model: CavityModel, state: ModeState, integrals: int = 0) -> np.ndarray:
    """q_a (integrals=0), q'_a (1) or q''_a (2) as time-basis coefficients, (2, n_modes).

    q' = w int_0^t q and q'' = w int_0^t q' with their integration constants
    dropped, so q' = -dq/dt / w and q'' = -q.
    """
    if state.n_modes != model.n_modes:
        raise ValueError("state and model disagree on the number of modes")
    c1, c2 = state.c1, state.c2
    return np.array([[c1, c2], [-1j * c1, 1j * c2], [-c1, -c2]][integrals])


def _time_sum(omegas, coeffs, t) -> np.ndarray:
    """sum_b coeffs[..., b, a] T_b(w_a t) over the time bases b.

    Returns shape coeffs.shape[:-2] + (n_modes,) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    wt = _expand(omegas, t.ndim) * t
    c = np.moveaxis(coeffs, -2, 0)
    c = c.reshape(c.shape + (1,) * t.ndim)
    phase = np.exp(1j * wt)  # its conjugate is exp(-i w t) bit for bit
    return c[0] * phase + c[1] * phase.conj()


def _mode_sum(coeffs, wavenumbers, omegas, z, t) -> np.ndarray:
    """sum_pba coeffs[..., p, b, a] Z_p(k_a z) T_b(w_a t) on the outer (z, t) grid.

    Returns shape coeffs.shape[:-3] + shape(z) + shape(t).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    lead = coeffs.shape[:-3]
    # all-zero profiles are skipped: an unrotated field has one per component
    live = [p for p, used in enumerate(coeffs.any(axis=(*range(len(lead)), -2, -1))) if used]
    if not live:
        return np.zeros(lead + z.shape + t.shape, dtype=complex)
    kz = _expand(wavenumbers, z.ndim) * z
    zpart = np.concatenate([(np.sin, np.cos)[p](kz) for p in live])
    tpart = np.concatenate([_time_sum(omegas, coeffs[..., p, :, :], t) for p in live],
                           axis=len(lead))
    # the mode sum as one matrix product over the stacked (profile, mode) axis
    grid = zpart.reshape(len(zpart), -1).T @ tpart.reshape(lead + (len(zpart), -1))
    return grid.reshape(lead + z.shape + t.shape)


def _mode_terms(coeffs, wavenumbers, omegas, z, t) -> np.ndarray:
    """sum_pb coeffs[..., p, b, a] Z_p(k_a z) T_b(w_a t) per mode a, on the outer (z, t) grid.

    Returns shape coeffs.shape[:-3] + (n_modes,) + shape(z) + shape(t).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    kz = _expand(wavenumbers, z.ndim) * z
    kz = kz.reshape(kz.shape + (1,) * t.ndim)
    tpart = _time_sum(omegas, coeffs, t)  # [..., profile, mode] + shape(t)
    tpart = tpart.reshape(tpart.shape[:coeffs.ndim - 1] + (1,) * z.ndim + t.shape)
    sin_part, cos_part = np.moveaxis(tpart, coeffs.ndim - 3, 0)
    return np.sin(kz) * sin_part + np.cos(kz) * cos_part


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


def mode_q(model: CavityModel, state: ModeState, t, deriv: int = 0) -> np.ndarray:
    """q_a(t) or its time derivatives; shape (n_modes,) + shape(t)."""
    coeffs = _time_coeffs(model, state)
    for _ in range(deriv):
        coeffs = _d_dt(coeffs, model.omegas)
    return _time_sum(model.omegas, coeffs, t)


class FieldOnSegment:
    """Base of the field classes: 3-vector fields e(z, t) and h(z, t) and their
    analytic derivatives de_dz, de_dt, dh_dz and dh_dt, each an array of shape
    (3,) + shape(z) + shape(t), on a segment of ``length`` whose largest mode
    number ``max_alpha`` sets the shortest wavelength.  The benchmark's layer
    tracer finds the field classes as its subclasses.
    """


class SpectralField(FieldOnSegment):
    """A cavity field held as mode-sum coefficients (layout in the module docstring).

    ``coeffs`` has shape (2, 2, 2, 2, n_modes); ``wavenumbers`` and ``omegas``
    hold k_a and w_a; ``z0`` is the vacuum impedance of the unit system.
    """

    def __init__(self, length, wavenumbers, omegas, coeffs, z0):
        self.length = length
        self.z0 = z0
        self.wavenumbers = np.asarray(wavenumbers, dtype=float)
        self.omegas = np.asarray(omegas, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        n_modes = self.wavenumbers.size
        if self.omegas.shape != (n_modes,) or self.coeffs.shape != (2, 2, 2, 2, n_modes):
            raise ValueError("need one k, one omega and (2, 2, 2, 2) coefficients per mode")
        # mode numbers a = k_a L / pi set the shortest wavelength and the reflection signs
        self._alphas = np.rint(self.wavenumbers * length / np.pi)
        self.max_alpha = int(self._alphas.max(initial=0))

    def _with(self, coeffs):
        return SpectralField(self.length, self.wavenumbers, self.omegas, coeffs, self.z0)

    def rotated(self, theta: float) -> "SpectralField":
        """Circular dual mix E' = cos E + z0 sin H, H' = cos H - sin E / z0.

        It is the phase F -> exp(-i theta) F of the Riemann-Silberstein vector
        F = sqrt(eps0) E + i sqrt(mu0) H, so it maps solutions to solutions in
        any unit system; in symmetric units z0 = 1.
        """
        c, s = np.cos(theta), np.sin(theta)
        e, h = self.coeffs
        return self._with(np.stack([c * e + s * self.z0 * h, c * h - s / self.z0 * e]))

    def scaled(self, e_factor=1.0, h_factor=1.0) -> "SpectralField":
        """Complex rescale of e and/or h."""
        factors = np.array([e_factor, h_factor], dtype=complex).reshape(2, 1, 1, 1, 1)
        return self._with(factors * self.coeffs)

    def reflected(self) -> "SpectralField":
        """Midpoint reflection z -> L - z, the space inversion whose parities
        label the four field constituents (see QuaternionField).

        sin(k_a (L - z)) = -(-1)^a sin(k_a z) and cos(k_a (L - z)) = (-1)^a cos(k_a z).
        """
        parity = (-1.0) ** self._alphas
        return self._with(self.coeffs * np.stack([-parity, parity])[:, None, :])

    def __add__(self, other: "SpectralField") -> "SpectralField":
        """The sum, with the modes of both fields side by side."""
        if self.length != other.length or self.z0 != other.z0:
            raise ValueError("mismatched domains or unit systems in field combination")
        return SpectralField(self.length,
                             np.concatenate([self.wavenumbers, other.wavenumbers]),
                             np.concatenate([self.omegas, other.omegas]),
                             np.concatenate([self.coeffs, other.coeffs], axis=-1),
                             self.z0)

    def component(self, coeffs, z, t) -> np.ndarray:
        """One Cartesian component from its coefficients [profile, basis, mode].

        Returns sum_pba coeffs[p, b, a] Z_p(k_a z) T_b(w_a t) on the outer (z, t) grid.
        """
        return _mode_sum(coeffs, self.wavenumbers, self.omegas, _inside(z, self.length), t)

    def _eval(self, coeffs, z, t):
        """Vector field of one field's coefficients [axis, profile, basis, mode]."""
        out = np.zeros((3,) + np.shape(z) + np.shape(t), dtype=complex)
        for axis in range(2):
            out[axis] = self.component(coeffs[axis], z, t)
        return out

    def e(self, z, t):
        return self._eval(self.coeffs[0], z, t)

    def h(self, z, t):
        return self._eval(self.coeffs[1], z, t)

    def de_dz(self, z, t):
        return self._eval(_d_dz(self.coeffs[0], self.wavenumbers), z, t)

    def de_dt(self, z, t):
        return self._eval(_d_dt(self.coeffs[0], self.omegas), z, t)

    def dh_dz(self, z, t):
        return self._eval(_d_dz(self.coeffs[1], self.wavenumbers), z, t)

    def dh_dt(self, z, t):
        return self._eval(_d_dt(self.coeffs[1], self.omegas), z, t)


def _cavity_field(model: CavityModel, ex, hy) -> SpectralField:
    """E_x = sum_b ex[b] T_b sin(k z), H_y = sum_b hy[b] T_b cos(k z); ex, hy: (2, M)."""
    coeffs = np.zeros((2, 2, 2, 2, model.n_modes), dtype=complex)
    coeffs[0, 0, 0] = ex
    coeffs[1, 1, 1] = hy
    return SpectralField(model.length, model.wavenumbers, model.omegas, coeffs,
                         model.constants.z0)


def FirstSolution(model: CavityModel, state: ModeState) -> SpectralField:
    """E_x = sum A^E_a q_a sin(k_a z); H_y = sum A^E_a (eps0/k_a) dq_a/dt cos(k_a z)."""
    q = _time_coeffs(model, state)
    amp_h = model.amp_e * model.constants.eps0 / model.wavenumbers
    return _cavity_field(model, model.amp_e * q, amp_h * _d_dt(q, model.omegas))


def SecondSolution(model: CavityModel, state: ModeState) -> SpectralField:
    """E_x = sum A^E_a q''_a sin(k_a z); H_y = sum A^H_a q'_a cos(k_a z).

    Built with integration constants dropped, so q'' = -q and the electric
    field differs from the first family only by sign.  The sign of the
    magnetic term is fixed by the curl-H equation (a flipped sign would
    violate it for every oscillatory mode).
    """
    return _cavity_field(model, model.amp_e * _time_coeffs(model, state, 2),
                         model.amp_h * _time_coeffs(model, state, 1))


def ZeroField(model: CavityModel) -> SpectralField:
    """A field without modes in the cavity: the empty sector of a QuaternionField."""
    return SpectralField(model.length, [], [], np.zeros((2, 2, 2, 2, 0)), model.constants.z0)


@dataclass
class QuaternionField:
    """Four parity-labeled field sectors packed as quaternion components: the
    quaternion four-component field of the paper, checked by `maxwell_residual`.

    sectors[1] to sectors[4] carry the parity pairs (P-odd, t-even),
    (P-odd, t-odd), (P-even, t-even) and (P-even, t-odd).  The
    quaternion electric component is (E1 - i E2) + (E3 - i E4) j; sectors
    are never summed with real coefficients across parity labels (such a
    sum would mix mathematically heterogeneous objects).
    """

    sectors: dict

    def __post_init__(self):
        if set(self.sectors) != {1, 2, 3, 4}:
            raise ValueError("need sectors labeled 1..4")
        lengths = {s.length for s in self.sectors.values()}
        if len(lengths) > 1:
            raise ValueError("mismatched domains across sectors")
        self.length = lengths.pop()

    def component_fields(self):
        """The two complex combinations: the 'e' part and the 'j' part."""
        ce = self.sectors[1] + self.sectors[2].scaled(-1j, -1j)
        cj = self.sectors[3] + self.sectors[4].scaled(-1j, -1j)
        return ce, cj


def _curl_z_only(f_dz):
    """curl of a field depending on z only: (-d f_y/dz, d f_x/dz, 0)."""
    out = np.zeros_like(f_dz)
    out[0] = -f_dz[1]
    out[1] = f_dz[0]
    return out


class SamplingError(ValueError):
    """A sample grid too coarse for its shortest oscillation; ``minimum`` is the
    fewest points over the same span that pass."""

    def __init__(self, axis: str, minimum: int, shortest: float):
        super().__init__(f"{axis} grid too coarse: fewer than 4 points per shortest "
                         f"oscillation ({shortest:.3g}); it needs at least {minimum} points")
        self.axis = axis
        self.minimum = minimum


def _check_sampling(grid, shortest: float, axis: str):
    """SamplingError unless the grid has at least 4 points per `shortest` of its span."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    span = float(grid.max() - grid.min())

    def coarse(points):
        return points * shortest / span < 4.0

    if span > 0 and coarse(grid.size):
        minimum = max(1, math.ceil(4.0 * span / shortest) - 1)
        while coarse(minimum):   # the test above decides, not the rounding of the ratio
            minimum += 1
        raise SamplingError(axis, minimum, shortest)


def _grid_ok(field, z, t, constants):
    if field.max_alpha:
        lam_min = 2.0 * field.length / field.max_alpha
        _check_sampling(z, lam_min, "z")
        _check_sampling(t, lam_min / constants.c, "t")


class MaxwellResidual(tuple):
    """(r_curl_e, r_curl_h, r_div_e, r_div_h), with the scale of each equation.

    ``scales`` holds, per equation, the largest term that it cancels, so a
    residual can be judged relative to the field's own size.
    """

    def __new__(cls, residuals, scales):
        self = super().__new__(cls, residuals)
        self.scales = tuple(scales)
        return self


def _peak(values) -> float:
    return float(np.max(np.abs(values)))


def maxwell_residual(field, z, t, constants: PhysicalConstants) -> MaxwellResidual:
    """Max-norm residuals of the four field equations on a (z, t) grid.

    Returns (r_curl_e, r_curl_h, r_div_e, r_div_h) where the residuals are

        curl E + mu0 dH/dt,
        curl H - eps0 dE/dt,
        div E,
        div H,

    with ``scales`` max(|dE/dz|, |mu0 dH/dt|), max(|dH/dz|, |eps0 dE/dt|),
    |dE/dz| and |dH/dz|.  Quaternion-packed fields are checked component-wise
    (the 'e' and 'j' complex parts separately) and the worst case is returned.
    """
    if isinstance(field, QuaternionField):
        parts = [maxwell_residual(p, z, t, constants) for p in field.component_fields()]
        return MaxwellResidual(map(max, zip(*parts)),
                               map(max, zip(*(p.scales for p in parts))))

    _grid_ok(field, z, t, constants)
    curl, div, curl_scale, div_scale = [], [], [], []
    # one equation pair at a time, so that few grid-sized arrays are alive at once
    for f_dz, g_dt, coef in ((field.de_dz, field.dh_dt, constants.mu0),
                             (field.dh_dz, field.de_dt, -constants.eps0)):
        df_dz = f_dz(z, t)
        dg_dt = coef * g_dt(z, t)
        div.append(_peak(df_dz[2]))
        div_scale.append(_peak(df_dz))
        curl_scale.append(max(div_scale[-1], _peak(dg_dt)))
        curl.append(_peak(_curl_z_only(df_dz) + dg_dt))
    return MaxwellResidual(curl + div, curl_scale + div_scale)


def field_hamiltonian(model: CavityModel, state: ModeState, t) -> complex:
    """Field energy (1/2) integral (eps0 E^2 + mu0 H^2) dV with bilinear squares.

    It is one side of the oscillator picture of the field: this energy
    equals the sum of the mode oscillators' energies.
    """
    zq, wq = _gauss_legendre(0.0, model.length, max(32, 4 * model.n_modes))
    sol = FirstSolution(model, state)
    ex = sol.e(zq, t)[0]
    hy = sol.h(zq, t)[1]
    dens = 0.5 * (model.constants.eps0 * ex**2 + model.constants.mu0 * hy**2)
    w_shape = wq.reshape((-1,) + (1,) * (dens.ndim - 1))
    val = np.sum(w_shape * dens, axis=0)
    return complex(val) if np.ndim(val) == 0 else val


def mode_hamiltonian(model: CavityModel, state: ModeState, t) -> complex:
    """Closed-form (1/2) sum_a (w^2 q^2 + p^2), with p = dq/dt: the oscillator
    side of the field energy, the sum of one unit-mass oscillator per mode."""
    q = mode_q(model, state, t)
    qd = mode_q(model, state, t, deriv=1)
    om = _expand(model.omegas, np.asarray(t).ndim)
    val = 0.5 * np.sum(om**2 * q**2 + qd**2, axis=0)
    return complex(val) if np.ndim(val) == 0 else val


def dump_field_csv(field, z, t, path):
    """Field samples as CSV: z, t, Re/Im of all six components per row.

    Raises FloatingPointError, and writes nothing, if a sample overflows.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(over="raise", invalid="raise"):
        e, h = field.e(z, t), field.h(z, t)
    names = ["z", "t"]
    columns = [np.repeat(z, t.size), np.tile(t, z.size)]
    for label, vec in (("e", e), ("h", h)):
        for comp, axis in enumerate("xyz"):
            val = np.asarray(vec[comp], dtype=complex).ravel()
            names += [f"re_{label}{axis}", f"im_{label}{axis}"]
            columns += [val.real, val.imag]
    write_csv(path, names, columns)
