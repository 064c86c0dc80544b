import math

import numpy as np
import pytest

from duplexem.cavity import (CavityModel, FirstSolution, ModeState, QuaternionField,
                             SecondSolution, SpectralField, ZeroField, dump_field_csv,
                             field_hamiltonian, maxwell_residual, mode_hamiltonian, mode_q)
from duplexem.constants import PhysicalConstants

CST = PhysicalConstants.symmetric()


def make_model(n_modes=8, length=1.0):
    return CavityModel(length=length, n_modes=n_modes, constants=CST)


def random_state(rng, n_modes=8, scale=0.5):
    return ModeState(scale * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)),
                     scale * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)))


GRID_Z = np.linspace(0.0, 1.0, 64)
GRID_T = np.linspace(0.0, 1.0, 64)


def test_boundary_conditions():
    rng = np.random.default_rng(0)
    model = make_model()
    sol = FirstSolution(model, random_state(rng))
    edge = sol.e(np.array([0.0, model.length]), GRID_T)
    assert np.max(np.abs(edge)) <= 1e-12


def test_cosine_mode_has_zero_h_at_t0():
    # q = cos(w t) means dq/dt(0) = 0, so H vanishes at t = 0
    model = make_model(n_modes=1)
    state = ModeState(np.array([0.5]), np.array([0.5]))
    sol = FirstSolution(model, state)
    h0 = sol.h(np.linspace(0, 1, 33), 0.0)
    assert np.max(np.abs(h0)) <= 1e-14


def test_mode_oscillator_equation():
    rng = np.random.default_rng(1)
    model = make_model()
    state = random_state(rng)
    t = np.linspace(0, 2.0, 17)
    qdd = mode_q(model, state, t, deriv=2)
    q = mode_q(model, state, t)
    om = model.omegas[:, None]
    assert np.max(np.abs(qdd + om**2 * q)) <= 1e-10


def test_maxwell_residual_first_solution():
    rng = np.random.default_rng(2)
    model = make_model()
    sol = FirstSolution(model, random_state(rng))
    res = maxwell_residual(sol, GRID_Z, GRID_T, CST)
    assert max(res) <= 1e-10


def test_maxwell_residual_second_solution():
    rng = np.random.default_rng(3)
    model = make_model()
    sol = SecondSolution(model, random_state(rng))
    res = maxwell_residual(sol, GRID_Z, GRID_T, CST)
    assert max(res) <= 1e-10


def test_maxwell_residual_dual_rotated():
    rng = np.random.default_rng(4)
    model = make_model()
    for theta in (0.3, 1.1, 2.0):
        sol = FirstSolution(model, random_state(rng)).rotated(theta)
        assert max(maxwell_residual(sol, GRID_Z, GRID_T, CST)) <= 1e-10


def test_residual_finite_difference_oracle():
    # independent route: difference quotients instead of analytic derivatives
    rng = np.random.default_rng(5)
    model = make_model(n_modes=3)
    sol = FirstSolution(model, random_state(rng, 3))
    eps = 1e-6
    z, t = 0.37, 0.21
    de_dz_fd = (sol.e(z + eps, t) - sol.e(z - eps, t)) / (2 * eps)
    dh_dt_fd = (sol.h(z, t + eps) - sol.h(z, t - eps)) / (2 * eps)
    curl_e = np.array([-de_dz_fd[1], de_dz_fd[0], 0.0 * de_dz_fd[2]])
    res = curl_e + CST.mu0 * dh_dt_fd
    assert np.max(np.abs(res)) <= 1e-6


def test_zero_field_zero_sources_zero_residual():
    field = ZeroField(make_model())
    res = maxwell_residual(field, GRID_Z, GRID_T, CST)
    assert res == (0.0, 0.0, 0.0, 0.0)


def test_rejects_position_outside_cavity():
    model = make_model()
    sol = FirstSolution(model, ModeState(np.ones(8), np.ones(8)))
    with pytest.raises(ValueError):
        sol.e(1.5, 0.0)


def test_rejects_coarse_grid():
    rng = np.random.default_rng(6)
    model = make_model()
    sol = FirstSolution(model, random_state(rng))
    with pytest.raises(ValueError):
        maxwell_residual(sol, np.linspace(0, 1, 8), GRID_T, CST)
    with pytest.raises(ValueError):
        maxwell_residual(sol, GRID_Z, np.linspace(0, 1, 8), CST)


def test_perturbed_field_residual_scaling():
    rng = np.random.default_rng(7)
    model = make_model()
    base = FirstSolution(model, random_state(rng))
    pert = base.scaled(1.0, 1.1)
    res = maxwell_residual(pert, GRID_Z, GRID_T, CST)
    ref = 0.1 * np.max(np.abs(CST.mu0 * base.dh_dt(GRID_Z, GRID_T)))
    assert res[0] == pytest.approx(ref, rel=1e-10)


def test_second_solution_is_sign_flipped_first():
    rng = np.random.default_rng(8)
    model = make_model()
    state = random_state(rng)
    s1 = FirstSolution(model, state)
    s2 = SecondSolution(model, state)
    assert np.allclose(s2.e(GRID_Z, GRID_T), -s1.e(GRID_Z, GRID_T), atol=1e-13)
    assert np.allclose(s2.h(GRID_Z, GRID_T), -s1.h(GRID_Z, GRID_T), atol=1e-13)


def test_energy_constant_for_real_single_mode():
    model = make_model()
    # the real standing form q = B cos(w t + phi) of the first mode
    b, phi = np.array([1.3] + [0.0] * 7), np.array([0.4] + [0.0] * 7)
    state = ModeState(0.5 * b * np.exp(1j * phi), 0.5 * b * np.exp(-1j * phi))
    period = 2 * math.pi / model.omegas[0]
    values = np.array([field_hamiltonian(model, state, t)
                       for t in np.linspace(0, period, 17)])
    assert np.max(np.abs(values.imag)) <= 1e-12
    spread = values.real.max() - values.real.min()
    assert spread <= 1e-10 * abs(values.real.mean())


def test_field_energy_matches_mode_sum():
    rng = np.random.default_rng(9)
    model = make_model(4)
    state = random_state(rng, 4)
    for t in (0.0, 0.21, 0.8):
        assert field_hamiltonian(model, state, t) == pytest.approx(
            mode_hamiltonian(model, state, t), rel=1e-12, abs=1e-12)


def test_quaternion_single_sector_is_classical():
    rng = np.random.default_rng(10)
    model = make_model(4)
    sol = FirstSolution(model, random_state(rng, 4))
    empty = ZeroField(model)
    qf = QuaternionField({1: sol, 2: empty, 3: empty, 4: empty})
    ce, cj = qf.component_fields()
    assert np.allclose(ce.e(GRID_Z, GRID_T), sol.e(GRID_Z, GRID_T), atol=0.0)
    assert np.max(np.abs(cj.e(GRID_Z, GRID_T))) == 0.0


def test_quaternion_rotation_split():
    rng = np.random.default_rng(11)
    model = make_model(4)
    sol = FirstSolution(model, random_state(rng, 4))
    theta = 0.6
    # the cos and sin sectors of a dual rotation
    qf = QuaternionField({1: sol.scaled(math.cos(theta), math.cos(theta)),
                          2: sol.scaled(math.sin(theta), math.sin(theta)),
                          3: ZeroField(model), 4: ZeroField(model)})
    assert np.allclose(qf.sectors[1].e(GRID_Z, GRID_T),
                       math.cos(theta) * sol.e(GRID_Z, GRID_T), atol=0.0)
    assert np.allclose(qf.sectors[2].e(GRID_Z, GRID_T),
                       math.sin(theta) * sol.e(GRID_Z, GRID_T), atol=0.0)
    res = maxwell_residual(qf, GRID_Z, GRID_T, CST)
    assert max(res) <= 1e-10


def test_quaternion_rejects_mismatched_domains():
    rng = np.random.default_rng(12)
    model = make_model(2, length=1.0)
    a = FirstSolution(model, random_state(rng, 2))
    b = FirstSolution(make_model(2, length=2.0), random_state(rng, 2))
    with pytest.raises(ValueError):
        QuaternionField({1: a, 2: b, 3: ZeroField(model), 4: ZeroField(model)})


def test_reflection_flips_cosine_profiles_only():
    # odd-mode standing waves: sine (electric-type) profiles are symmetric
    # about the midpoint, cosine (magnetic-type) profiles change sign
    model = make_model()
    third = 0.5 * np.eye(8)[2]
    sol = FirstSolution(model, ModeState(third, third))
    refl = sol.reflected()
    assert np.max(np.abs(refl.e(GRID_Z, GRID_T) - sol.e(GRID_Z, GRID_T))) <= 1e-13
    assert np.max(np.abs(refl.h(GRID_Z, GRID_T) + sol.h(GRID_Z, GRID_T))) <= 1e-13


def cauchy_riemann_residual(field, z, t, constants) -> float:
    """Analyticity residual of F = H - iE in the variable z + ict.

    After substituting the imaginary time coordinate, the component-wise
    analyticity condition becomes the transport equation
    (d/dz + (1/c) d/dt) F = 0, satisfied by forward-propagating free
    fields and violated e.g. by a time-varying field with H = 0.
    """
    f_dz = field.dh_dz(z, t) - 1j * field.de_dz(z, t)
    f_dt = field.dh_dt(z, t) - 1j * field.de_dt(z, t)
    return float(np.max(np.abs(f_dz + f_dt / constants.c)))


def _one_mode_field(k, w, ex, hy):
    """E_x and H_y of one (k, w) pair; ex, hy: coefficients [profile, basis]."""
    coeffs = np.zeros((2, 2, 2, 2, 1), dtype=complex)
    coeffs[0, 0, :, :, 0] = ex
    coeffs[1, 1, :, :, 0] = hy
    return SpectralField(1.0, [k], [w], coeffs, z0=CST.z0)


def test_cr_residual_plane_wave():
    # cos(k z - w t) = cos(k z) cos(w t) + sin(k z) sin(w t) in both E_x and H_y
    k = 2.0
    wave = np.array([[-0.5j, 0.5j], [0.5, 0.5]])
    field = _one_mode_field(k, k * CST.c, wave, wave)
    assert cauchy_riemann_residual(field, GRID_Z, GRID_T, CST) <= 1e-10


def test_cr_residual_static_field():
    const = np.array([[0.0, 0.0], [1.0, 0.0]])  # cos(0 z) e^{i 0 t} = 1
    field = _one_mode_field(0.0, 0.0, const, const)
    assert cauchy_riemann_residual(field, GRID_Z, GRID_T, CST) == 0.0


def test_cr_residual_electric_only():
    # E_x = cos(w t), H = 0
    field = _one_mode_field(0.0, 2.0, np.array([[0.0, 0.0], [0.5, 0.5]]), np.zeros((2, 2)))
    assert cauchy_riemann_residual(field, GRID_Z, GRID_T, CST) > 0.1


def test_field_csv_dump(tmp_path):
    rng = np.random.default_rng(13)
    model = make_model(2)
    sol = FirstSolution(model, random_state(rng, 2))
    path = tmp_path / "field.csv"
    dump_field_csv(sol, np.linspace(0, 1, 5), np.linspace(0, 1, 4), path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["z", "t"]
    assert len(lines) == 1 + 5 * 4
