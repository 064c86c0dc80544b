import json
import math

import numpy as np
import pytest

import duplexem.fockquant as fq
from duplexem.cavity import CavityModel
from duplexem.constants import PhysicalConstants
from duplexem.fockquant import (OperatorField, SchemeKind, commutator,
                                dump_operator_json, heisenberg_residual,
                                make_ladder, mode_hamiltonian_matrix,
                                phased_ladders, safe_block, space_hamiltonian,
                                spacetime_local_operators, tensor_safe_block,
                                trig_ansatz_consistency)

CST = PhysicalConstants.symmetric()


def make_model(n_modes=2):
    return CavityModel(length=1.0, n_modes=n_modes, constants=CST)


def test_two_level_ladder():
    a, _ = make_ladder(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_commutator_structure_dim8():
    a, ad = make_ladder(8)
    comm = commutator(a, ad)
    diag = np.diag(comm).real
    assert np.allclose(diag[:7], 1.0, atol=1e-14)
    assert diag[7] == pytest.approx(-7.0)
    off = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off)) <= 1e-14


def test_number_operator_spectrum():
    a, ad = make_ladder(8)
    num = ad @ a
    assert np.allclose(sorted(np.linalg.eigvalsh(num)), np.arange(8), atol=1e-12)


def test_ladder_needs_two_levels():
    with pytest.raises(ValueError):
        make_ladder(1)


def test_time_local_bare_at_t0_and_periodic():
    model = make_model()
    a0, ad0 = make_ladder(8)
    a, _ = phased_ladders(model.omegas, 0.0, 8)
    assert np.array_equal(a[0], a0)
    w = model.omegas[0]
    later, _ = phased_ladders(model.omegas, 2 * math.pi / w, 8)
    assert np.max(np.abs(later[0] - a0)) <= 1e-12


def test_commutator_preserved_at_all_times():
    model = make_model()
    for t in (0.0, 0.3, 1.7):
        a, ad = phased_ladders(model.omegas, t, 8)
        comm = commutator(a[1], ad[1])
        assert np.max(np.abs(safe_block(comm) - np.eye(7))) <= 1e-13


def test_trig_ansatz_rejected():
    model = make_model()
    report = trig_ansatz_consistency(8, model.omegas[0], [0.05, 0.2])
    assert not report["consistent"]
    assert report["rhs_spread"] > 0.0
    assert report["mismatch"] > 0.1


def test_space_local_bare_at_origin():
    model = make_model()
    a0, _ = make_ladder(6)
    a, _ = phased_ladders(model.wavenumbers, 0.0, 6)
    assert np.array_equal(a[0], a0)


def test_space_local_rejects_outside_cavity():
    model = make_model()
    with pytest.raises(ValueError):
        OperatorField(model, SchemeKind.SPACE_LOCAL, 6).e_matrix(0, 1.5, 0.0)
    with pytest.raises(ValueError):
        space_hamiltonian(model, 6, 1.5)


def test_position_hamiltonian_spectrum():
    model = make_model()
    lam = CST.lambda0
    g = space_hamiltonian(model, 6, 0.3)[0]
    w = model.omegas[0]
    # top level excluded by the truncation convention
    for n in range(5):
        assert g[n, n].real == pytest.approx(lam * w * (n + 0.5), rel=1e-12)


def test_space_local_commutators_mode_diagonal():
    # two modes embedded on a tensor product: same-mode commutator is the
    # identity on the safe block, distinct modes commute exactly
    model = make_model()
    dim = 5
    a, ad = phased_ladders(model.wavenumbers, 0.37, dim)
    eye = np.eye(dim)
    a1 = np.kron(a[0], eye)
    ad1 = np.kron(ad[0], eye)
    a2 = np.kron(eye, a[1])
    ad2 = np.kron(eye, ad[1])
    same = commutator(a1, ad1)
    assert np.max(np.abs(tensor_safe_block(same - np.eye(dim * dim), dim))) <= 1e-13
    assert np.max(np.abs(commutator(a1, ad2))) == 0.0


def test_spacetime_g_identity():
    model = make_model()
    ops = spacetime_local_operators(model, 8, 0.4, 0.2)
    assert max(o["g_deviation"] for o in ops) <= 1e-12


def test_spacetime_formal_commutator():
    model = make_model()
    ops = spacetime_local_operators(model, 8, 0.25, 0.15)
    formal = ops[0]["formal_commutator"]
    defect = tensor_safe_block(formal + 1j * np.eye(64), 8)
    assert np.max(np.abs(defect)) <= 1e-12
    # the literal tensor-product commutator stays operator-valued
    literal = commutator(ops[0]["a"], ops[0]["adag"])
    assert np.max(np.abs(tensor_safe_block(literal + 1j * np.eye(64), 8))) > 0.1


def test_spacetime_requires_dim3():
    model = make_model()
    with pytest.raises(ValueError):
        spacetime_local_operators(model, 2, 0.1, 0.1)


def test_spacetime_domain_checks():
    model = make_model()
    with pytest.raises(ValueError):
        spacetime_local_operators(model, 4, 2.0, 0.1)
    with pytest.raises(ValueError):
        spacetime_local_operators(model, 4, 0.1, 5.0)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_field_operators_hermitian(kind):
    model = make_model()
    field = OperatorField(model, kind, 8)
    assert field.hermiticity_defect(0.37, 0.21) <= 1e-14


def test_time_local_electric_coefficient():
    model = make_model()
    field = OperatorField(model, SchemeKind.TIME_LOCAL, 6)
    z = 0.3
    w, k = model.omegas[0], model.wavenumbers[0]
    a, ad = make_ladder(6)
    coef = math.sqrt(CST.hbar * w / (model.volume * CST.eps0)) * math.sin(k * z)
    assert np.allclose(field.e_matrix(0, z, 0.0), coef * (ad + a), atol=1e-14)


def test_vacuum_expectations():
    model = make_model(3)
    field = OperatorField(model, SchemeKind.TIME_LOCAL, 8)
    z = 0.29
    assert abs(field.vacuum_e(z, 0.13)) == 0.0
    expected = sum(CST.hbar * w / (model.volume * CST.eps0) * math.sin(k * z) ** 2
                   for w, k in zip(model.omegas, model.wavenumbers))
    assert field.vacuum_e_squared(z) == pytest.approx(expected, rel=1e-12)


def test_heisenberg_consistency():
    model = make_model()
    assert heisenberg_residual(model, 8, 0, 0.3) <= 1e-8


def test_number_commutes_with_hamiltonian():
    a, ad = make_ladder(8)
    num = ad @ a
    ham = mode_hamiltonian_matrix(8, CST.hbar, 3.0)
    assert np.max(np.abs(commutator(num, ham))) == 0.0


def test_scheme_parameter_swap_symmetry():
    # space-local at (z, k, lambda0) mirrors time-local at (t, w, hbar)
    model = make_model()
    w, k = model.omegas[0], model.wavenumbers[0]
    t = 0.25
    z = w * t / k
    tl = phased_ladders(model.omegas, t, 8)[0][0]
    sl = phased_ladders(model.wavenumbers, z, 8)[0][0]
    assert np.max(np.abs(tl - sl)) <= 1e-14


def test_operator_json_dump(tmp_path):
    model = make_model()
    field = OperatorField(model, SchemeKind.SPACE_LOCAL, 4)
    mat = field.h_matrix(0, 0.2, 0.1)
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        dump_operator_json(mat, SchemeKind.SPACE_LOCAL, 1, fh)
    data = json.loads(path.read_text())
    assert data["dim"] == 4 and data["scheme"] == "space_local" and data["mode"] == 1
    rebuilt = np.array([complex(re, im) for re, im in data["entries"]]).reshape(4, 4)
    assert np.array_equal(rebuilt.view(np.int64), mat.view(np.int64))


def test_operator_json_round_trips_every_bit(tmp_path):
    mat = np.array([[-0.0, 5e-324 - 1j / 3], [1e308 + 0.1j, complex(2.0, -0.0)]]).T
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        dump_operator_json(mat, SchemeKind.TIME_LOCAL, 2, fh)
    text = path.read_text()
    assert "\n" not in text and " " not in text
    data = json.loads(text)
    rebuilt = np.array([complex(re, im) for re, im in data["entries"]]).reshape(2, 2)
    assert np.array_equal(rebuilt.view(np.int64), np.ascontiguousarray(mat).view(np.int64))


def test_operator_field_builds_all_modes_once_per_point(monkeypatch):
    calls = []
    build = fq.spacetime_local_operators

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return build(*args, **kwargs)

    monkeypatch.setattr(fq, "spacetime_local_operators", counted)
    model = make_model(3)
    field = OperatorField(model, SchemeKind.SPACETIME_LOCAL, 4)
    field.hermiticity_defect(0.3, 0.2)
    for idx in range(3):
        field.e_matrix(idx, 0.3, 0.2)
    assert calls == [(0.3, 0.2)]
    moved = field.h_matrix(1, 0.4, 0.2)
    assert calls == [(0.3, 0.2), (0.4, 0.2)]
    fresh = OperatorField(model, SchemeKind.SPACETIME_LOCAL, 4).h_matrix(1, 0.4, 0.2)
    assert np.array_equal(moved, fresh)


def _closed_form_fields(model, kind, dim, z, t):
    """Per-mode (E, H) matrices of each scheme, written out from the ladder a0."""
    cst, vol, per = model.constants, model.volume, model.period
    a0 = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    ad0 = a0.T
    out = []
    for w, k, m in zip(model.omegas, model.wavenumbers, model.masses):
        xz, yz = (ad0 * np.exp(1j * k * z) + s * a0 * np.exp(-1j * k * z) for s in (1, -1))
        xt, yt = (ad0 * np.exp(1j * w * t) + s * a0 * np.exp(-1j * w * t) for s in (1, -1))
        if kind is SchemeKind.TIME_LOCAL:
            e = math.sqrt(cst.hbar * w / (vol * cst.eps0)) * math.sin(k * z) * xt
            h = 1j * math.sqrt(cst.hbar * w / (vol * cst.mu0)) * math.cos(k * z) * yt
        elif kind is SchemeKind.SPACE_LOCAL:
            e = 1j * math.sqrt(cst.lambda0 * w / (per * cst.eps0)) * math.sin(w * t) * yz
            h = -math.sqrt(cst.lambda0 * w / (per * cst.mu0)) * math.cos(w * t) * xz
        else:
            # a + a+ = kron(xz, xt) / sqrt(2 m w) and a+ - a = i sqrt(m w / 2) kron(yz, yt)
            # on the tensor space, with the amplitudes sqrt(2 w^2 m / (eps0 V T)) of E and
            # i sqrt(2 w^2 m / (mu0 V T)) of H times sqrt(hbar lambda0 / (2 m w))
            act = cst.hbar * cst.lambda0
            e = math.sqrt(act / (2 * m * cst.eps0 * vol * per)) * np.kron(xz, xt)
            h = -w * math.sqrt(m * act / (2 * cst.mu0 * vol * per)) * np.kron(yz, yt)
        out.append((e, h))
    return out


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_field_matrices_match_closed_forms(kind):
    # unequal eps0 and mu0, hbar and lambda0, and masses, so that a constant in
    # the wrong place shows
    cst = PhysicalConstants(c=1.0, eps0=0.5, mu0=2.0, hbar=0.7, lambda0=1.3)
    model = CavityModel(length=1.0, n_modes=3, constants=cst, masses=[1.5, 0.8, 1.1])
    dim, z, t = 5, 0.37, 0.21
    field = OperatorField(model, kind, dim)
    for idx, (e, h) in enumerate(_closed_form_fields(model, kind, dim, z, t)):
        for got, expect in ((field.e_matrix(idx, z, t), e), (field.h_matrix(idx, z, t), h)):
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
