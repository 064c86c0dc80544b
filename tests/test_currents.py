import math

import numpy as np
import pytest

from duplexem.cavity import CavityModel, ModeState
from duplexem.constants import PhysicalConstants
from duplexem.currents import (ClassicalFourCurrent, FieldFunctionSet, QuantizedFourCurrent,
                               charge_drift, charge_ratio_estimate, continuity_residual,
                               noether_charge, spirality)
from duplexem.currents import _gauss_legendre, _leggauss

CST = PhysicalConstants.symmetric()


def make_model(n_modes=4, length=math.pi):
    return CavityModel(length=length, n_modes=n_modes, constants=CST)


def random_state(rng, n_modes=4, scale=0.4):
    return ModeState(scale * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)),
                     scale * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)))


GRID_Z = np.linspace(0.0, math.pi, 48)
GRID_T = np.linspace(0.0, math.pi, 8)


def test_gauss_legendre_nodes_cached_read_only():
    z1, w1 = _gauss_legendre(0.0, 2.0, 24)
    x, w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(z1, x + 1.0) and np.array_equal(w1, w)
    nodes, weights = _leggauss(24)
    assert _leggauss(24)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_classical_continuity():
    rng = np.random.default_rng(0)
    model = make_model()
    current = ClassicalFourCurrent(model, random_state(rng))
    assert continuity_residual(current, GRID_Z, GRID_T) <= 1e-10


def test_continuity_finite_difference_oracle():
    rng = np.random.default_rng(1)
    model = make_model()
    current = ClassicalFourCurrent(model, random_state(rng))
    eps = 1e-6
    z, t = 0.9, 0.4
    dj3 = (current.j3(z + eps, t, 2) - current.j3(z - eps, t, 2)) / (2 * eps)
    dj4 = (current.j4(z, t + eps, 2) - current.j4(z, t - eps, 2)) / (2 * eps)
    assert abs(dj3 + dj4 / (1j * CST.c)) <= 1e-6


def test_charge_component_vanishes_for_equal_moduli():
    rng = np.random.default_rng(2)
    model = make_model()
    c1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    c2 = c1 * np.exp(1j * rng.normal(size=4))  # same moduli, shifted phases
    current = ClassicalFourCurrent(model, ModeState(c1, c2))
    assert np.max(np.abs(current.j4(GRID_Z, GRID_T, 1))) <= 1e-12


def test_zero_state_gives_zero_current():
    model = make_model()
    current = ClassicalFourCurrent(model, ModeState(np.zeros(4), np.zeros(4)))
    for family in (1, 2):
        assert np.max(np.abs(current.j3(GRID_Z, GRID_T, family))) == 0.0
        assert np.max(np.abs(current.j4(GRID_Z, GRID_T, family))) == 0.0


def test_single_rotating_mode():
    model = make_model()
    state = ModeState([1.0, 0.0, 0.0, 0.0], np.zeros(4))
    current = ClassicalFourCurrent(model, state)
    # no cross terms: the longitudinal scaling component vanishes
    assert np.max(np.abs(current.j3(GRID_Z, GRID_T, 2))) == 0.0
    val = complex(current.j4(0.3, 0.2, 1))
    expected = 1j * current.kappa * model.masses[0] * model.omegas[0] ** 3
    assert val == pytest.approx(expected)


class _PerturbedCurrent(ClassicalFourCurrent):
    """A current whose scaling-family j4 gains rate * t: a planted continuity fault."""

    def __init__(self, model, state, rate):
        super().__init__(model, state)
        self.rate = rate

    def j4(self, z, t, family):
        return super().j4(z, t, family) + (self.rate * np.asarray(t) if family == 2 else 0.0)

    def dj4_dt(self, z, t, family):
        return super().dj4_dt(z, t, family) + (self.rate if family == 2 else 0.0)


def test_perturbed_current_residual():
    rng = np.random.default_rng(4)
    model = make_model()
    rate = 0.37
    pert = _PerturbedCurrent(model, random_state(rng), rate)
    # in symmetric units |(1/ic) d(rate*t)/dt| = rate
    assert continuity_residual(pert, GRID_Z, GRID_T) == pytest.approx(rate, rel=1e-6)


def test_coarse_grid_rejected():
    rng = np.random.default_rng(5)
    model = make_model(n_modes=8)
    current = ClassicalFourCurrent(model, random_state(rng, 8))
    with pytest.raises(ValueError):
        continuity_residual(current, np.linspace(0, math.pi, 6), GRID_T)


def _phase_gauge_longitudinal(fieldset, z, t):
    """Longitudinal phase-gauge current density, sum 2 Im((du/dz) conj(u))."""
    u, du_dz = fieldset.evaluate(z, t, (0, 0), (1, 0))
    return np.sum(2.0 * np.imag(du_dz * np.conj(u)), axis=(0, 1))


def test_longitudinal_phase_current_vanishes_generally():
    # real z profile times arbitrary complex weights on both time bases:
    # (du/dz) conj(u) is then |time factor|^2 times a real profile
    rng = np.random.default_rng(6)
    coeffs = np.zeros((2, 2, 2, 3), dtype=complex)
    coeffs[0, 0] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))  # u1: sin(k z)
    coeffs[1, 1] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))  # u2: cos(k z)
    fieldset = FieldFunctionSet(coeffs, [1.0, 2.0, 3.0], rng.uniform(1, 3, size=3),
                                volume=1.0, length=math.pi, c=1.0)
    z = np.linspace(0, math.pi, 21)
    for t in (0.0, 0.4, 1.3):
        assert np.max(np.abs(_phase_gauge_longitudinal(fieldset, z, t))) <= 1e-12


def test_zero_field_zero_charge():
    fieldset = FieldFunctionSet(np.zeros((2, 2, 2, 1)), [1.0], [1.0],
                                volume=1.0, length=1.0, c=1.0)
    charge = noether_charge(fieldset, 0.3)
    assert charge.q1 == 0.0 and charge.q2 == 0.0 and charge.q == 0.0


def _lagrange_residual(fieldset, z, t) -> float:
    """max |d2u/dz2 - (1/c^2) d2u/dt2| over components and grid."""
    d2u_dz2, d2u_dt2 = fieldset.evaluate(z, t, (2, 0), (0, 2))
    return float(np.max(np.abs(d2u_dz2 - d2u_dt2 / fieldset.c**2), initial=0.0))


def test_gauge_transform_keeps_field_equations():
    rng = np.random.default_rng(7)
    model = make_model()
    fieldset = FieldFunctionSet.from_cavity(model, random_state(rng))
    z = GRID_Z[:, None]
    t = GRID_T[None, :]
    base = _lagrange_residual(fieldset, z, t)
    transformed = _lagrange_residual(fieldset.scaled(1.7 * np.exp(0.8j)), z, t)
    assert base <= 1e-10
    assert transformed <= 2e-10


def test_charge_conservation_over_period():
    rng = np.random.default_rng(8)
    model = make_model()
    # rotating states: both charge components are strictly stationary
    state = ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                      np.zeros(4))
    fieldset = FieldFunctionSet.from_cavity(model, state)
    times = np.linspace(0.0, 2 * math.pi / model.omegas[0], 32)
    d1, d2 = charge_drift(fieldset, times)
    assert d1 <= 1e-8 and d2 <= 1e-8


def test_phase_charge_conserved_for_any_state():
    rng = np.random.default_rng(9)
    model = make_model()
    fieldset = FieldFunctionSet.from_cavity(model, random_state(rng))
    times = np.linspace(0.0, 2 * math.pi / model.omegas[0], 32)
    assert charge_drift(fieldset, times)[0] <= 1e-8


def test_non_integrable_set_rejected():
    coeffs = np.zeros((2, 2, 2, 1), dtype=complex)
    coeffs[:, :, 0] = np.inf
    fieldset = FieldFunctionSet(coeffs, [1.0], [1.0], volume=1.0, length=1.0, c=1.0)
    with pytest.raises(ValueError):
        noether_charge(fieldset, 0.0)


def _plane_wave(energy, hbar, c, volume, length, amplitude, wavenumber):
    """Monochromatic u1 = amplitude e^{i kappa z} e^{-i E t / hbar}, with u2 = 0."""
    coeffs = np.zeros((2, 2, 2, 1), dtype=complex)
    # amplitude (i sin(kappa z) + cos(kappa z)) on the e^{-i w t} basis
    coeffs[0, :, 1, 0] = 1j * amplitude, amplitude
    return FieldFunctionSet(coeffs, [wavenumber], [energy / hbar], volume, length, c)


def test_plane_wave_matches_closed_form():
    fieldset = _plane_wave(energy=2.5, hbar=1.0, c=1.0, volume=3.0, length=1.0,
                           amplitude=0.8 - 0.3j, wavenumber=2 * math.pi)
    z = np.linspace(0.0, 1.0, 9)
    t = np.array([0.0, 0.3, 1.7])
    (u1, u2), = fieldset.evaluate(z, t, (0, 0))
    expect = (0.8 - 0.3j) * np.exp(2j * math.pi * z)[:, None] * np.exp(-2.5j * t)
    assert np.max(np.abs(u1[0] - expect)) <= 1e-15 and np.all(u2 == 0)
    # the phase charge: -2 (E / hbar c) |amplitude|^2 L (V / L)
    assert noether_charge(fieldset, 0.0).q1 == pytest.approx(-2 * 2.5 * 0.73 * 3.0, rel=1e-12)
    with pytest.raises(ValueError, match="outside the cavity"):
        fieldset.evaluate([1.5], 0.0, (0, 0))


def test_plane_wave_charge_scaling():
    # q1 = -2 (E / hbar c) |amplitude|^2 V at every t; the scaling charge q2 vanishes
    def charge(energy=2.5, hbar=1.0, c=1.0, volume=3.0, amplitude=0.8, t=0.0):
        return noether_charge(_plane_wave(energy, hbar, c, volume, 1.0, amplitude,
                                          2 * math.pi), t)

    base = charge()
    assert base.q1 == pytest.approx(-2 * 2.5 * 0.64 * 3.0, rel=1e-12)
    for kwargs, ratio in (({"amplitude": 1.6j}, 4.0), ({"energy": 5.0}, 2.0),
                          ({"hbar": 2.0}, 0.5), ({"c": 4.0}, 0.25),
                          ({"volume": 6.0}, 2.0), ({"t": 1.3}, 1.0)):
        scaled = charge(**kwargs)
        assert scaled.q1 / base.q1 == pytest.approx(ratio, rel=1e-12)
        assert abs(scaled.q2) <= 1e-12 * abs(scaled.q1)


def _custom_set(modes=slice(None)):
    """Two pairs of free (k, w): u1 = a1 sin(k z) e^{-iwt}, u2 = a2 sin(k z) e^{iwt}."""
    coeffs = np.zeros((2, 2, 2, 2), dtype=complex)
    coeffs[0, 0, 1] = [1.0, 0.4]
    coeffs[1, 0, 0] = [0.7, 1.1]
    k, w = np.array([1.0, 2.0]), np.array([2.0, 5.0])
    return FieldFunctionSet(coeffs[..., modes], k[modes], w[modes], 1.0, math.pi, 1.0)


def test_spirality_zero_for_single_sector():
    fieldset = _custom_set(slice(0, 1))
    fieldset.coeffs[1] = 0.0
    assert spirality(fieldset, 0.2).s4_3 == 0.0


def test_spirality_additive_over_modes():
    both = _custom_set()
    first = _custom_set(slice(0, 1))
    second = _custom_set(slice(1, 2))
    total = spirality(both, 0.2).s4_3
    split = spirality(first, 0.2).s4_3 + spirality(second, 0.2).s4_3
    assert abs(total - split) <= 1e-12 * max(1.0, abs(total))
    assert abs(total) > 1e-3  # the check is not vacuous


def test_spirality_invariant_under_dual_rotation():
    fieldset = _custom_set()
    s0 = spirality(fieldset, 0.2).s4_3
    for theta in (0.3, 1.1, 2.7):
        s1 = spirality(fieldset.rotated(theta), 0.2).s4_3
        assert abs(s1 - s0) <= 1e-10 * max(1.0, abs(s0))


def test_quantized_continuity_on_safe_block():
    model = make_model()
    qc = QuantizedFourCurrent(model, 8)
    for z, t in ((0.4, 0.3), (1.1, 0.9)):
        assert qc.continuity_residual(z, t) <= 1e-10


def test_quantized_gauge_component_zero():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    assert np.max(np.abs(qc.re_j4(0, 0.5, 0.2))) == 0.0
    assert np.max(np.abs(qc.re_j3(0, 0.5, 0.2))) == 0.0


def test_quantized_vacuum_nodal_plane():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    # sin(2 k_1 z) = 0 at z = L/2
    vacuum = sum(qc.im_j3(idx, model.length / 2, 0.0)[0, 0] for idx in range(model.n_modes))
    assert abs(vacuum) <= 1e-14


def test_quantized_vacuum_charge_constant_term():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    expected = sum(2j / (CST.c**2 * model.volume) * (-2.0) * w**2
                   for w in model.omegas)
    vacuum = sum(qc.im_j4(idx, 0.3, 0.0)[0, 0] for idx in range(model.n_modes))
    assert vacuum == pytest.approx(expected)


def test_quantized_requires_dim3():
    with pytest.raises(ValueError):
        QuantizedFourCurrent(make_model(), 2)


def test_charge_ratio_values():
    assert charge_ratio_estimate(1.44e4, 1.0) == pytest.approx(120.0, abs=1e-12)
    assert charge_ratio_estimate(7.3, 7.3) == 1.0
    assert charge_ratio_estimate(4.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        charge_ratio_estimate(-1.0, 2.0)
    with pytest.raises(ValueError):
        charge_ratio_estimate(1.0, 0.0)
