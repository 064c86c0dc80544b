import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexem.cavity import (CavityModel, ModeState, SpectralField, _d_dt, _d_dz,
                             _gauss_legendre, _leggauss, _mode_terms)
from duplexem.constants import PhysicalConstants
from duplexem.currents import (ClassicalFourCurrent, QuantizedFourCurrent, charge_drift,
                               charge_field, charge_ratio_estimate, continuity_residual,
                               noether_charge, relative_drift, spirality)

CST = PhysicalConstants.symmetric()
SI = PhysicalConstants.si()


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


def _classical_closed_form(model, state, coupling, z, t):
    """{(component, family): values} on the outer (z, t) grid, summed over modes in numpy."""
    kappa = 8.0 * coupling / (model.constants.c * model.length)
    w3 = model.omegas**3
    cross = state.c1 * np.conj(state.c2) * np.exp(2j * np.outer(t, model.omegas))  # (t, mode)
    sin = np.sin(2.0 * np.outer(z, model.wavenumbers)) * w3                      # (z, mode)
    cos = np.cos(2.0 * np.outer(z, model.wavenumbers)) * w3
    gauge = 1j * kappa * np.sum(w3 * (np.abs(state.c1) ** 2 - np.abs(state.c2) ** 2))
    return {(3, 1): np.zeros((z.size, t.size)),
            (3, 2): -1j * kappa * sin @ (cross + np.conj(cross)).T,
            (4, 1): np.full((z.size, t.size), gauge),
            (4, 2): 1j * kappa * cos @ (cross - np.conj(cross)).T}


def _operator_closed_form(model, dim, z, t):
    """Scaling-family (j3, j4) matrices at one point, mode by mode from sqrt(n) ladders."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    ad = a.T
    c, length = model.constants.c, model.length
    j3 = np.zeros((dim, dim), dtype=complex)
    j4 = -4j * np.sum(model.omegas**2) / (c**2 * length) * np.eye(dim)   # the vacuum term
    for k, w in zip(model.wavenumbers, model.omegas):
        a2 = a @ a * np.exp(-2j * w * t)       # a(t)^2 = a''(t)^2
        ad2 = ad @ ad * np.exp(2j * w * t)
        j3 += -4j * k * w / (c * length) * math.sin(2 * k * z) * (a2 + ad2)
        j4 += 4j * k * w / (c * length) * math.cos(2 * k * z) * (ad2 - a2)
    return j3, j4


@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_classical_current_matches_closed_form(constants):
    rng = np.random.default_rng(30)
    model = CavityModel(length=math.pi, n_modes=4, constants=constants)
    state = random_state(rng)
    current = ClassicalFourCurrent(model, state, coupling=1.3)
    z = np.linspace(0.0, model.length, 17)
    t = np.linspace(0.0, model.period, 5)
    expect = _classical_closed_form(model, state, 1.3, z, t)
    scale = max(np.max(np.abs(v)) for v in expect.values())
    for (component, family), ref in expect.items():
        got = (current.j3 if component == 3 else current.j4)(z, t, family)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (component, family)


@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_operator_current_matches_closed_form(constants):
    model = CavityModel(length=math.pi, n_modes=3, constants=constants)
    qc = QuantizedFourCurrent(model, 7)
    for z, t in ((0.4, 0.3 * model.period), (2.9, 1.7 * model.period)):
        ref3, ref4 = _operator_closed_form(model, 7, z, t)
        scale = max(np.max(np.abs(ref3)), np.max(np.abs(ref4)))
        assert np.max(np.abs(qc.j3(z, t, 2) - ref3)) <= 1e-14 * scale
        assert np.max(np.abs(qc.j4(z, t, 2) - ref4)) <= 1e-14 * scale
    # on a grid: the matrices lead, the grid follows
    z, t = np.linspace(0.0, model.length, 6), np.linspace(0.0, model.period, 3)
    assert qc.j4(z, t, 2).shape == (7, 7, 6, 3)
    ref4 = _operator_closed_form(model, 7, z[2], t[1])[1]
    assert np.max(np.abs(qc.j4(z, t, 2)[:, :, 2, 1] - ref4)) <= 1e-14 * np.max(np.abs(ref4))


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
    kappa = 8.0 / (CST.c * model.length)
    expected = 1j * kappa * model.omegas[0] ** 3
    assert val == pytest.approx(expected)
    # no scaling part: the relative continuity residual reads 0, not 0 / 0
    assert continuity_residual(current, GRID_Z, GRID_T) == 0.0


def test_perturbed_current_residual():
    # a planted fault: the scaling j4 of every mode off by 1 + 1e-6.  d j3/dz and
    # (1/ic) d j4/dt then leave 1e-6 of the larger, whatever the units and amplitudes
    rng = np.random.default_rng(4)
    for constants, scale in ((CST, 0.4), (SI, 3e5)):
        model = CavityModel(length=math.pi, n_modes=4, constants=constants)
        current = ClassicalFourCurrent(model, random_state(rng, scale=scale))
        t = GRID_T * model.period / math.pi
        current.coeffs[1] *= 1.0 + 1e-6
        assert continuity_residual(current, GRID_Z, t) == pytest.approx(1e-6 / (1 + 1e-6),
                                                                         rel=1e-8)


def test_operator_current_planted_fault():
    # one j4 coefficient, that of a0+^2 e^{2iwt}, off by 1 + 1e-6 in a one-mode cavity:
    # a0+^2 and a0^2 fill disjoint entries, so the residual is 1e-6 of those entries
    model = make_model(n_modes=1)
    qc = QuantizedFourCurrent(model, 6)
    qc.coeffs[1, :, :, 1, 0, 0] *= 1.0 + 1e-6
    assert continuity_residual(qc, 0.4, 0.3) == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-8)


def test_coarse_grid_rejected():
    rng = np.random.default_rng(5)
    model = make_model(n_modes=8)
    current = ClassicalFourCurrent(model, random_state(rng, 8))
    with pytest.raises(ValueError):
        continuity_residual(current, np.linspace(0, math.pi, 6), GRID_T)


def _pair_field(pair, wavenumbers, omegas, length):
    """A SpectralField whose E_x and H_y, coeffs[0, 0] and coeffs[1, 1], hold the pair (u1, u2)."""
    coeffs = np.zeros((2, 2, 2, 2, len(wavenumbers)), dtype=complex)
    coeffs[0, 0], coeffs[1, 1] = pair
    return SpectralField(length, wavenumbers, omegas, coeffs, z0=1.0)


def _pair_values(field, z, t, n_z=0, n_t=0):
    """d^n_z/dz^n_z d^n_t/dt^n_t of the pair (E_x, H_y) per mode on the outer (z, t) grid."""
    coeffs = field.coeffs[[0, 1], [0, 1]]
    for _ in range(n_z):
        coeffs = _d_dz(coeffs, field.wavenumbers)
    for _ in range(n_t):
        coeffs = _d_dt(coeffs, field.omegas)
    return _mode_terms(coeffs, field.wavenumbers, field.omegas, z, t)


def _phase_gauge_longitudinal(field, z, t):
    """Longitudinal phase-gauge current density, sum 2 Im((du/dz) conj(u))."""
    u, du_dz = _pair_values(field, z, t), _pair_values(field, z, t, n_z=1)
    return np.sum(2.0 * np.imag(du_dz * np.conj(u)), axis=(0, 1))


def test_longitudinal_phase_current_vanishes_generally():
    # real z profile times arbitrary complex weights on both time bases:
    # (du/dz) conj(u) is then |time factor|^2 times a real profile
    rng = np.random.default_rng(6)
    pair = np.zeros((2, 2, 2, 3), dtype=complex)
    pair[0, 0] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))  # u1: sin(k z)
    pair[1, 1] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))  # u2: cos(k z)
    field = _pair_field(pair, [1.0, 2.0, 3.0], rng.uniform(1, 3, size=3), math.pi)
    z = np.linspace(0, math.pi, 21)
    for t in (0.0, 0.4, 1.3):
        assert np.max(np.abs(_phase_gauge_longitudinal(field, z, t))) <= 1e-12


def test_zero_field_zero_charge():
    field = _pair_field(np.zeros((2, 2, 2, 1)), [1.0], [1.0], 1.0)
    charge = noether_charge(field, 1.0, 0.3)
    assert charge.q1 == 0.0 and charge.q2 == 0.0 and charge.scale == 0.0
    assert relative_drift([charge, charge]) == (0.0, 0.0)


def _lagrange_residual(field, c, z, t) -> float:
    """max |d2u/dz2 - (1/c^2) d2u/dt2| over components and grid."""
    d2u_dz2, d2u_dt2 = _pair_values(field, z, t, n_z=2), _pair_values(field, z, t, n_t=2)
    return float(np.max(np.abs(d2u_dz2 - d2u_dt2 / c**2), initial=0.0))


def test_gauge_transform_keeps_field_equations():
    rng = np.random.default_rng(7)
    model = make_model()
    field = charge_field(model, random_state(rng))
    z = GRID_Z[:, None]
    t = GRID_T[None, :]
    base = _lagrange_residual(field, CST.c, z, t)
    factor = 1.7 * np.exp(0.8j)
    transformed = _lagrange_residual(field.scaled(factor, factor), CST.c, z, t)
    assert base <= 1e-10
    assert transformed <= 2e-10


def test_charge_conservation_over_period():
    rng = np.random.default_rng(8)
    model = make_model()
    # rotating states: both charge components are strictly stationary
    state = ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                      np.zeros(4))
    times = np.linspace(0.0, 2 * math.pi / model.omegas[0], 32)
    d1, d2 = charge_drift(charge_field(model, state), CST.c, times)
    assert d1 <= 1e-8 and d2 <= 1e-8


def test_phase_charge_conserved_for_any_state():
    rng = np.random.default_rng(9)
    model = make_model()
    field = charge_field(model, random_state(rng))
    times = np.linspace(0.0, 2 * math.pi / model.omegas[0], 32)
    assert charge_drift(field, CST.c, times)[0] <= 1e-8


def test_non_integrable_set_rejected():
    pair = np.zeros((2, 2, 2, 1), dtype=complex)
    pair[:, :, 0] = np.inf
    with pytest.raises(ValueError, match="charge scale .* is nan at t = 0.0"):
        noether_charge(_pair_field(pair, [1.0], [1.0], 1.0), 1.0, 0.0)


def _plane_wave(energy, hbar, length, amplitude, wavenumber):
    """Monochromatic u1 = amplitude e^{i kappa z} e^{-i E t / hbar}, with u2 = 0."""
    pair = np.zeros((2, 2, 2, 1), dtype=complex)
    # amplitude (i sin(kappa z) + cos(kappa z)) on the e^{-i w t} basis
    pair[0, :, 1, 0] = 1j * amplitude, amplitude
    return _pair_field(pair, [wavenumber], [energy / hbar], length)


def test_plane_wave_matches_closed_form():
    field = _plane_wave(energy=2.5, hbar=1.0, length=3.0, amplitude=0.8 - 0.3j,
                        wavenumber=2 * math.pi)
    z = np.linspace(0.0, 3.0, 9)
    t = np.array([0.0, 0.3, 1.7])
    expect = (0.8 - 0.3j) * np.exp(2j * math.pi * z)[:, None] * np.exp(-2.5j * t)
    assert np.max(np.abs(field.e(z, t)[0] - expect)) <= 1e-15 and np.all(field.h(z, t) == 0)
    # the phase charge: -2 (E / hbar c) |amplitude|^2 L
    assert noether_charge(field, 1.0, 0.0).q1 == pytest.approx(-2 * 2.5 * 0.73 * 3.0,
                                                               rel=1e-12)
    with pytest.raises(ValueError, match="outside the cavity"):
        field.e([4.5], 0.0)


def test_plane_wave_charge_scaling():
    # q1 = -2 (E / hbar c) |amplitude|^2 L at every t; the scaling charge q2 vanishes
    def charge(energy=2.5, hbar=1.0, c=1.0, length=3.0, amplitude=0.8, t=0.0):
        return noether_charge(_plane_wave(energy, hbar, length, amplitude, 2 * math.pi), c, t)

    base = charge()
    assert base.q1 == pytest.approx(-2 * 2.5 * 0.64 * 3.0, rel=1e-12)
    for kwargs, ratio in (({"amplitude": 1.6j}, 4.0), ({"energy": 5.0}, 2.0),
                          ({"hbar": 2.0}, 0.5), ({"c": 4.0}, 0.25),
                          ({"length": 6.0}, 2.0), ({"t": 1.3}, 1.0)):
        scaled = charge(**kwargs)
        assert scaled.q1 / base.q1 == pytest.approx(ratio, rel=1e-12)
        assert abs(scaled.q2) <= 1e-12 * abs(scaled.q1)


def _custom_pair(modes=slice(None)):
    """Two pairs of free (k, w): u1 = a1 sin(k z) e^{-iwt}, u2 = a2 sin(k z) e^{iwt}."""
    pair = np.zeros((2, 2, 2, 2), dtype=complex)
    pair[0, 0, 1] = [1.0, 0.4]
    pair[1, 0, 0] = [0.7, 1.1]
    k, w = np.array([1.0, 2.0]), np.array([2.0, 5.0])
    return _pair_field(pair[..., modes], k[modes], w[modes], math.pi)


def test_spirality_zero_for_single_sector():
    field = _custom_pair(slice(0, 1)).scaled(1.0, 0.0)
    assert spirality(field, 1.0, 0.2) == 0.0


def test_spirality_additive_over_modes():
    total = spirality(_custom_pair(), 1.0, 0.2)
    split = spirality(_custom_pair(slice(0, 1)), 1.0, 0.2) \
        + spirality(_custom_pair(slice(1, 2)), 1.0, 0.2)
    assert abs(total - split) <= 1e-12 * max(1.0, abs(total))
    assert abs(total) > 1e-3  # the check is not vacuous


def test_spirality_invariant_under_dual_rotation():
    field = _custom_pair()
    s0 = spirality(field, 1.0, 0.2)
    for theta in (0.3, 1.1, 2.7):
        # the rotation of every pair in the (u1, u2) plane, not the E-H mix of
        # SpectralField.rotated
        ct, st = math.cos(theta), math.sin(theta)
        u1, u2 = field.coeffs[[0, 1], [0, 1]]
        rotated = _pair_field([ct * u1 + st * u2, ct * u2 - st * u1], field.wavenumbers,
                              field.omegas, field.length)
        s1 = spirality(rotated, 1.0, 0.2)
        assert abs(s1 - s0) <= 1e-10 * max(1.0, abs(s0))


def test_quantized_continuity_in_every_entry():
    model = make_model()
    qc = QuantizedFourCurrent(model, 8)
    for z, t in ((0.4, 0.3), (1.1, 0.9)):
        assert continuity_residual(qc, z, t) <= 1e-10
    assert continuity_residual(qc, GRID_Z, GRID_T) <= 1e-13


@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_quantized_continuity_finite_difference_oracle(constants):
    model = CavityModel(length=math.pi, n_modes=4, constants=constants)
    qc = QuantizedFourCurrent(model, 8)
    z, t = 0.9, 0.4 * model.period
    dz, dt = 1e-6, 1e-6 * model.period
    dj3 = (qc.j3(z + dz, t, 2) - qc.j3(z - dz, t, 2)) / (2 * dz)
    dj4_dx4 = (qc.j4(z, t + dt, 2) - qc.j4(z, t - dt, 2)) / (2 * dt * 1j * constants.c)
    scale = np.max(np.abs(dj3))
    assert scale > 0.0
    assert np.max(np.abs(dj3 + dj4_dx4)) <= 1e-7 * scale


def test_quantized_gauge_component_zero():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    assert np.max(np.abs(qc.j4(0.5, 0.2, 1))) == 0.0
    assert np.max(np.abs(qc.j3(0.5, 0.2, 1))) == 0.0


def test_quantized_vacuum_nodal_plane():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    # sin(2 k_a z) = 0 for every mode at z = L/2
    nodal = qc.j3(model.length / 2, 0.0, 2)
    assert np.max(np.abs(nodal)) <= 1e-14 * np.max(np.abs(qc.j3(0.3, 0.0, 2)))


def test_quantized_vacuum_charge_constant_term():
    model = make_model()
    qc = QuantizedFourCurrent(model, 6)
    expected = sum(2j / (CST.c**2 * model.length) * (-2.0) * w**2
                   for w in model.omegas)
    # a0^2 and a0+^2 have no vacuum diagonal entry: only the vacuum term is left there
    assert qc.j4(0.3, 0.0, 2)[0, 0] == pytest.approx(expected)


def test_quantized_requires_dim3():
    with pytest.raises(ValueError):
        QuantizedFourCurrent(make_model(), 2)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), si=st.booleans(), standing=st.booleans(),
       n_modes=st.integers(1, 6), amplitude=st.floats(1e-3, 1e3))
def test_random_states_keep_continuity_and_charges(seed, si, standing, n_modes, amplitude):
    # both checks are relative, so neither the unit system nor the amplitude
    # moves them; a standing wave (C1 = C2) has charges that are rounding noise
    rng = np.random.default_rng(seed)
    model = CavityModel(length=math.pi, n_modes=n_modes, constants=SI if si else CST)
    c1 = amplitude * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
    c2 = c1 if standing else amplitude * (rng.normal(size=n_modes)
                                          + 1j * rng.normal(size=n_modes))
    state = ModeState(c1, c2)
    z = np.linspace(0.0, model.length, 8 * n_modes)
    t = np.linspace(0.0, model.period, 8)
    assert continuity_residual(ClassicalFourCurrent(model, state), z, t) <= 1e-13
    assert max(charge_drift(charge_field(model, state), model.constants.c, t)) <= 1e-12


def test_charge_ratio_values():
    assert charge_ratio_estimate(1.44e4, 1.0) == pytest.approx(120.0, abs=1e-12)
    assert charge_ratio_estimate(7.3, 7.3) == 1.0
    assert charge_ratio_estimate(4.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        charge_ratio_estimate(-1.0, 2.0)
    with pytest.raises(ValueError):
        charge_ratio_estimate(1.0, 0.0)
