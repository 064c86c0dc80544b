import math

import numpy as np
import pytest

from duplexem.resonance import ResonanceParams, dispersion, fit_dispersion, mode_amplitude


@pytest.fixture
def params():
    return ResonanceParams(gamma_e=1.0, spin=0.5, tau=2.0, e1=3.0,
                           nu0=5.0, a_param=0.01)


def test_even_modes_dark(params):
    for n in (2, 4, 6, 20):
        assert mode_amplitude(params, n, 1.0) == 0j


def test_resonant_amplitude_purely_real(params):
    for n in (1, 3, 5):
        omega_n = 2 * math.pi * dispersion(params, n)
        a = mode_amplitude(params, n, omega_n)
        expected = -params.gamma_e * params.spin * params.tau * params.e1 / (math.pi * n)
        assert a.imag == pytest.approx(0.0, abs=1e-15)
        assert a.real == pytest.approx(expected, rel=1e-14)


def test_amplitude_inverse_mode_number(params):
    a1 = mode_amplitude(params, 1, 2 * math.pi * dispersion(params, 1))
    a3 = mode_amplitude(params, 3, 2 * math.pi * dispersion(params, 3))
    assert abs(a1) / abs(a3) == pytest.approx(3.0, abs=1e-12)


def test_amplitude_decays_off_resonance(params):
    omega_n = 2 * math.pi * dispersion(params, 1)
    detunes = np.array([5.0, 10.0, 20.0, 40.0]) / params.tau
    mags = np.array([abs(mode_amplitude(params, 1, omega_n + d)) for d in detunes])
    assert np.all(np.diff(mags) < 0)
    # |a| ~ prefactor / (detune * tau) asymptotically
    pref = params.gamma_e * params.spin * params.tau * params.e1 / math.pi
    assert mags[-1] == pytest.approx(pref / (detunes[-1] * params.tau), rel=1e-3)


def test_mode_index_validation(params):
    with pytest.raises(ValueError):
        mode_amplitude(params, 0, 1.0)
    with pytest.raises(ValueError):
        dispersion(params, -1)


def test_dispersion_values(params):
    assert dispersion(params, 0) == params.nu0
    diffs = [params.nu0 - dispersion(params, n) for n in range(1, 6)]
    for n, d in enumerate(diffs, start=1):
        assert d == pytest.approx(params.a_param * n * n, rel=1e-14)


def test_fit_recovers_noiseless_dispersion(params):
    ns = np.arange(0, 8)
    nus = [dispersion(params, n) for n in ns]
    nu0, a_fit, residuals = fit_dispersion(ns, nus)
    assert abs(nu0 - params.nu0) <= 1e-10
    assert abs(a_fit - params.a_param) <= 1e-10
    assert np.max(np.abs(residuals)) <= 1e-12


def test_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_dispersion([1], [5.0])


def test_material_parameter_consistency():
    with pytest.raises(ValueError):
        ResonanceParams(1.0, 0.5, 1.0, 1.0, 5.0, a_param=-0.1)
