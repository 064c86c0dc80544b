"""Coefficient maps of SpectralField against evaluations written out here."""

import math

import numpy as np
import pytest

from duplexem.cavity import (CavityModel, FirstSolution, ModeState, SecondSolution,
                             SpectralField, ZeroField, maxwell_residual)
from duplexem.constants import PhysicalConstants
from duplexem.currents import FieldFunctionSet, noether_charge, spirality

CST = PhysicalConstants.symmetric()
SI = PhysicalConstants.si()
METHODS = ("e", "h", "de_dz", "de_dt", "dh_dz", "dh_dt")


def random_state(rng, n_modes):
    return ModeState(0.4 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)),
                     0.4 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)))


FAMILIES = {
    "first": FirstSolution,
    "second": SecondSolution,
}


def random_field(family, seed, n_modes=5, length=1.3, constants=CST):
    rng = np.random.default_rng(seed)
    model = CavityModel(length=length, n_modes=n_modes, constants=constants)
    return model, FAMILIES[family](model, random_state(rng, n_modes))


def random_points(seed, length, period, n=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, n) * length, rng.uniform(0.0, 2.0, n) * period


def grid_scale(field, model, *names):
    """Largest |value| of the named methods on a grid over [0, L] x [0, 2 L/c]."""
    z = np.linspace(0.0, model.length, 41)
    t = np.linspace(0.0, 2.0 * model.period, 41)
    return max(np.max(np.abs(getattr(field, name)(z, t))) for name in names)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_rotation_mixes_pointwise_values(family, constants):
    model, field = random_field(family, 1, constants=constants)
    zs, ts = random_points(2, model.length, model.period)
    z0 = constants.z0  # E' = cos E + z0 sin H, H' = cos H - sin E / z0
    for theta in (0.4, 2.3, -1.1):
        rot = field.rotated(theta)
        c, s = math.cos(theta), math.sin(theta)
        for name_e, name_h in (("e", "h"), ("de_dz", "dh_dz"), ("de_dt", "dh_dt")):
            # E and z0 H have one size in any unit system
            tol = 1e-13 * max(grid_scale(field, model, name_e),
                              z0 * grid_scale(field, model, name_h))
            for z, t in zip(zs, ts):
                e = getattr(field, name_e)(z, t)
                h = getattr(field, name_h)(z, t)
                assert np.max(np.abs(getattr(rot, name_e)(z, t) - (c * e + s * z0 * h))) <= tol
                assert np.max(np.abs(getattr(rot, name_h)(z, t) - (c * h - s * e / z0))) \
                    <= tol / z0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reflection_evaluates_at_mirrored_points(family):
    model, field = random_field(family, 3)
    refl = field.reflected()
    z = np.linspace(0.0, model.length, 23)
    t = np.linspace(0.0, 2.0 * model.period, 9)
    mirrored = model.length - z
    for name in METHODS:
        ref = getattr(field, name)(mirrored, t)
        if name in ("de_dz", "dh_dz"):  # d/dz of f(L - z) is -f'(L - z)
            ref = -ref
        tol = 1e-12 * grid_scale(field, model, name)
        assert np.max(np.abs(getattr(refl, name)(z, t) - ref)) <= tol


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sums_match_sums_of_parts(family):
    model, field = random_field(family, 4)
    _, same_modes = random_field("first", 5)
    _, fewer_modes = random_field("second", 6, n_modes=3)
    z = np.linspace(0.0, model.length, 17)
    t = np.linspace(0.0, model.period, 11)
    e_factor, h_factor = 0.3 - 0.7j, -1.2j
    for other in (same_modes, fewer_modes, ZeroField(model.length), ZeroField()):
        total = field + other.scaled(e_factor, h_factor)
        assert total.length == model.length
        for name in METHODS:
            factor = e_factor if name in ("e", "de_dz", "de_dt") else h_factor
            expect = getattr(field, name)(z, t) + factor * getattr(other, name)(z, t)
            assert np.allclose(getattr(total, name)(z, t), expect, rtol=0.0,
                               atol=1e-13 * np.max(np.abs(expect)))


def test_sum_rejects_mismatched_segments():
    _, a = random_field("first", 7, length=1.0)
    _, b = random_field("first", 8, length=2.0)
    _, si = random_field("first", 8, length=1.0, constants=SI)
    for other in (b, si):
        with pytest.raises(ValueError):
            a + other


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_derivatives_match_central_differences(family, constants):
    model, field = random_field(family, 9, constants=constants)
    zs, ts = random_points(10, model.length, model.period)
    dz, dt = 1e-6 * model.length, 1e-6 * model.period
    # difference quotients carry roundoff ~ eps |f| / step and truncation ~ (k step)^2 |f'|
    for name, vec, (sz, st) in (("de_dz", "e", (dz, 0.0)), ("de_dt", "e", (0.0, dt)),
                                ("dh_dz", "h", (dz, 0.0)), ("dh_dt", "h", (0.0, dt))):
        f = getattr(field, vec)
        tol = 1e-7 * grid_scale(field, model, name)
        for z, t in zip(zs, ts):
            fd = (f(z + sz, t + st) - f(z - sz, t - st)) / (2.0 * (sz + st))
            assert np.max(np.abs(getattr(field, name)(z, t) - fd)) <= tol


def test_spectral_field_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SpectralField(1.0, [np.pi], [np.pi], np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(ValueError):
        SpectralField(1.0, [np.pi], [np.pi, 2.0], np.zeros((2, 2, 2, 2, 1)))
    with pytest.raises(ValueError):   # the time basis has two entries, e^{+-iwt}
        SpectralField(1.0, [np.pi], [np.pi], np.zeros((2, 2, 2, 4, 1)))


def test_maxwell_residual_evaluates_each_derivative_once():
    model, field = random_field("first", 11)
    calls = dict.fromkeys(METHODS, 0)
    for name in METHODS:
        def counted(z, t, _name=name, _fn=getattr(field, name)):
            calls[_name] += 1
            return _fn(z, t)
        setattr(field, name, counted)
    z = np.linspace(0.0, model.length, 40)
    t = np.linspace(0.0, model.period, 40)
    res = maxwell_residual(field, z, t, CST)
    assert calls == {"e": 0, "h": 0, "de_dz": 1, "de_dt": 1, "dh_dz": 1, "dh_dt": 1}
    assert max(res) <= 1e-12 * max(res.scales)


def _mode_sum_pairs(model, state, sign, z, t):
    """u1, u2 per mode and their derivatives from the formulas, on the (z, t) grid."""
    cst = model.constants
    k = model.wavenumbers[:, None, None]
    w = model.omegas[:, None, None]
    amp_e = np.sqrt(2.0 * model.omegas**2 / (model.volume * cst.eps0))[:, None, None]
    amp_h = np.sqrt(2.0 * model.omegas**2 / (model.volume * cst.mu0))[:, None, None]
    zz, tt = z[None, :, None], t[None, None, :]
    c1, c2 = state.c1[:, None, None], state.c2[:, None, None]

    def q(d):
        return (1j * w) ** d * c1 * np.exp(1j * w * tt) + (-1j * w) ** d * c2 * np.exp(-1j * w * tt)

    e1 = math.sqrt(cst.eps0) * (1 - 1j * sign) * amp_e
    e2 = math.sqrt(cst.mu0) * (1 + 1j * sign) * amp_h / w
    sin, cos = np.sin(k * zz), np.cos(k * zz)
    u1 = dict(u=e1 * sin * q(0), du_dt=e1 * sin * q(1), du_dz=e1 * k * cos * q(0),
              d2u_dt2=e1 * sin * q(2), d2u_dz2=-e1 * k * k * sin * q(0))
    u2 = dict(u=e2 * cos * q(1), du_dt=e2 * cos * q(2), du_dz=-e2 * k * sin * q(1),
              d2u_dt2=e2 * cos * q(3), d2u_dz2=-e2 * k * k * cos * q(1))
    return u1, u2


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("constants", [CST, SI], ids=["symmetric", "si"])
def test_from_cavity_pairs_and_charges_match_mode_sum(sign, constants):
    rng = np.random.default_rng(12)
    model = CavityModel(length=math.pi, n_modes=4, constants=constants)
    state = random_state(rng, 4)
    fieldset = FieldFunctionSet.from_cavity(model, state, sign=sign)
    z = np.linspace(0.0, model.length, 31)
    t = np.linspace(0.0, 1.7 * model.period, 6)
    pairs = _mode_sum_pairs(model, state, sign, z, t)
    orders = {"u": (0, 0), "du_dt": (0, 1), "du_dz": (1, 0), "d2u_dt2": (0, 2),
              "d2u_dz2": (2, 0)}
    got = fieldset.evaluate(z, t, *orders.values())
    assert got.shape == (5, 2, model.n_modes, z.size, t.size)
    for values, name in zip(got, orders):
        for sector, ref in enumerate(pairs):
            assert np.max(np.abs(values[sector] - ref[name])) \
                <= 1e-13 * np.max(np.abs(ref[name]))

    # charges and spirality by an independent quadrature of the same densities
    x, wq = np.polynomial.legendre.leggauss(128)
    zq = 0.5 * model.length * (x + 1.0)
    wq = 0.5 * model.length * wq
    weight = (2.0 / constants.c) * model.volume / model.length
    for tj in t[:3]:
        p1, p2 = _mode_sum_pairs(model, state, sign, zq, np.array([tj]))
        dens = sum(p["du_dt"][..., 0] * np.conj(p["u"][..., 0]) for p in (p1, p2))
        charge = noether_charge(fieldset, tj)
        ref_q1 = weight * np.sum(wq * np.imag(dens))
        ref_q2 = -weight * np.sum(wq * np.real(dens))
        scale = math.hypot(ref_q1, ref_q2)
        assert abs(charge.q1 - ref_q1) <= 1e-12 * scale
        assert abs(charge.q2 - ref_q2) <= 1e-12 * scale
        spin = np.imag(np.conj(p1["du_dt"][..., 0]) * p2["u"][..., 0]
                       - np.conj(p2["du_dt"][..., 0]) * p1["u"][..., 0])
        ref_s = weight * np.sum(wq * spin)
        assert abs(spirality(fieldset, tj).s4_3 - ref_s) <= 1e-12 * max(scale, abs(ref_s))
