import json
import math
import tracemalloc

import numpy as np
import pytest

import duplexem.fockquant as fq
from duplexem.cavity import CavityModel
from duplexem.constants import PhysicalConstants
from duplexem.fockquant import (OperatorField, SchemeKind, commutator, dump_operator_json,
                                make_ladder, mode_hamiltonian_matrix, phased_ladders,
                                safe_block, spacetime_local_operators, tensor_safe_block,
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
    assert trig_ansatz_consistency(8, model.omegas[0], [0.05, 0.2]) > 0.1
    # one time: the ansatz fails because the left side is no multiple of the identity
    assert trig_ansatz_consistency(8, model.omegas[0], [0.0]) > 0.1


def test_space_local_bare_at_origin():
    model = make_model()
    a0, _ = make_ladder(6)
    a, _ = phased_ladders(model.wavenumbers, 0.0, 6)
    assert np.array_equal(a[0], a0)


def test_space_local_rejects_outside_cavity():
    # the cavity module's rule, in every scheme: [0, L] up to rounding, and never NaN
    for kind in SchemeKind:
        for z in (1.5, -0.01, math.nan):
            with pytest.raises(ValueError, match="outside the cavity"):
                OperatorField(make_model(), kind, 4, z, 0.0)
        field = OperatorField(make_model(), kind, 4, 1.0 + 1e-13, 0.0)
        assert np.all(np.isfinite(field.e_matrix(0)))


def test_position_hamiltonian_spectrum():
    model = make_model()
    lam = CST.lambda0
    # the position-indexed Hamiltonian lambda0 w (a''+ a'' + 1/2) of the first mode
    a, ad = phased_ladders(model.wavenumbers, 0.3, 6)
    w = model.omegas[0]
    g = lam * w * (ad[0] @ a[0] + 0.5 * np.eye(6))
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
    a, adag, g_deviation = spacetime_local_operators(model, 8, 0.4, 0.2)
    assert a.shape == adag.shape == (2, 64, 64) and g_deviation.shape == (2,)
    assert np.max(g_deviation) <= 1e-12


def test_spacetime_formal_commutator():
    model = make_model()
    a, adag, g_deviation = spacetime_local_operators(model, 8, 0.25, 0.15)
    # the formal commutator (i / (hbar lambda0)) g_avg is -i on the safe block
    # exactly where g_avg is -hbar lambda0 there
    assert np.max(g_deviation) <= 1e-12
    # the literal tensor-product commutator stays operator-valued, in every mode
    literal = tensor_safe_block(commutator(a, adag) + 1j * np.eye(64), 8)
    assert literal.shape == (2, 49, 49)
    assert np.min(np.max(np.abs(literal), axis=(1, 2))) > 0.1


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
    field = OperatorField(model, kind, 8, 0.37, 0.21)
    assert field.hermiticity_defect() <= 1e-14


def test_time_local_electric_coefficient():
    model = make_model()
    z = 0.3
    field = OperatorField(model, SchemeKind.TIME_LOCAL, 6, z, 0.0)
    w, k = model.omegas[0], model.wavenumbers[0]
    a, ad = make_ladder(6)
    coef = math.sqrt(CST.hbar * w / (model.length * CST.eps0)) * math.sin(k * z)
    assert np.allclose(field.e_matrix(0), coef * (ad + a), atol=1e-14)


def test_vacuum_expectations():
    model = make_model(3)
    z = 0.29
    modes = range(model.n_modes)
    later = OperatorField(model, SchemeKind.TIME_LOCAL, 8, z, 0.13)
    assert abs(sum(later.e_matrix(idx)[0, 0] for idx in modes)) == 0.0
    expected = sum(CST.hbar * w / (model.length * CST.eps0) * math.sin(k * z) ** 2
                   for w, k in zip(model.omegas, model.wavenumbers))
    field = OperatorField(model, SchemeKind.TIME_LOCAL, 8, z, 0.0)
    squares = sum((field.e_matrix(idx) @ field.e_matrix(idx))[0, 0].real for idx in modes)
    assert squares == pytest.approx(expected, rel=1e-12)


def _heisenberg_residual(model, dim, alpha_idx, t) -> float:
    """|finite-difference da/dt - (1/i hbar)[a, H]| on the safe block, with the
    central-difference step dt = 1e-6 / w."""
    hbar = model.constants.hbar
    w = model.omegas[alpha_idx]
    dt = 1e-6 / w
    a_m, a_t, a_p = (phased_ladders([w], tj, dim)[0][0] for tj in (t - dt, t, t + dt))
    fd = (a_p - a_m) / (2 * dt)
    heis = commutator(a_t, mode_hamiltonian_matrix(dim, hbar, w)) / (1j * hbar)
    return float(np.max(np.abs(safe_block(fd - heis))))


def test_heisenberg_consistency():
    # the time-local ladders obey the Heisenberg equation of the mode Hamiltonian
    model = make_model()
    assert _heisenberg_residual(model, 8, 0, 0.3) <= 1e-8


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
    mat = OperatorField(model, SchemeKind.SPACE_LOCAL, 4, 0.2, 0.1).h_matrix(0)
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


@pytest.mark.parametrize("chunk", [1, 3, fq._JSON_PAIRS])
def test_operator_json_matches_one_dumps_call(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(fq, "_JSON_PAIRS", chunk)
    mat = OperatorField(make_model(), SchemeKind.TIME_LOCAL, 3, 0.2, 0.1).e_matrix(1)
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        dump_operator_json(mat, SchemeKind.TIME_LOCAL, 2, fh)
    pairs = mat.view(float).reshape(-1, 2).tolist()
    assert path.read_text() == json.dumps(
        {"dim": 3, "scheme": "time_local", "mode": 2, "entries": pairs},
        separators=(",", ":"), sort_keys=True)


def _one_dumps_call(mat, scheme, mode):
    pairs = np.ascontiguousarray(mat).view(float).reshape(-1, 2).tolist()
    return json.dumps({"dim": mat.shape[0], "scheme": scheme.value, "mode": mode,
                       "entries": pairs}, separators=(",", ":"), sort_keys=True)


def test_operator_json_keeps_the_text_of_every_special_number(tmp_path):
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1]
    values = np.array(special + special[::-1] + [-x for x in special])
    mat = np.empty((5, 5), complex)   # set by parts: 1j * inf would make a nan real part
    mat.real, mat.imag = values[:25].reshape(5, 5), values[2:].reshape(5, 5)
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        dump_operator_json(mat, SchemeKind.SPACE_LOCAL, 7, fh)
    expected = _one_dumps_call(mat, SchemeKind.SPACE_LOCAL, 7)
    assert path.read_text() == expected
    for text in ("NaN", "-Infinity", "[Infinity,", "-0.0", "5e-324", "1e+16", "1e-05", "0.1"):
        assert text in expected


def test_operator_json_shares_distinct_numbers_across_chunks(tmp_path):
    rng = np.random.default_rng(3)
    n = 70   # 4900 entries, more than one chunk
    assert n * n > fq._JSON_PAIRS
    pool = rng.normal(size=40)   # each value in both chunks, next to ones drawn once
    mat = rng.choice(pool, (n, n)) + 1j * rng.normal(size=(n, n))
    first, rest = np.split(mat.real.ravel(), [fq._JSON_PAIRS])
    assert set(first) == set(rest) == set(pool)
    path = tmp_path / "op.json"
    with open(path, "w") as fh:
        dump_operator_json(mat, SchemeKind.SPACETIME_LOCAL, 1, fh)
    assert path.read_text() == _one_dumps_call(mat, SchemeKind.SPACETIME_LOCAL, 1)


def test_operator_json_dump_peaks_below_the_operator_build(tmp_path):
    # the quantize config of the cavity-fields benchmark: 3 modes, dim 14
    tracemalloc.start()
    try:
        field = OperatorField(make_model(3), SchemeKind.SPACETIME_LOCAL, 14, 0.3, 0.2)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # one mode of three: each dump's memory is freed before the next
        with open(tmp_path / "operator_e_mode1.json", "w") as fh:
            dump_operator_json(field.e_matrix(0), SchemeKind.SPACETIME_LOCAL, 1, fh)
        dump = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dump < build


def _closed_form_fields(model, kind, dim, z, t):
    """Per-mode (E, H) matrices of each scheme, written out from the ladder a0."""
    cst, vol, per = model.constants, model.length, model.period
    a0 = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    ad0 = a0.T
    out = []
    for w, k in zip(model.omegas, model.wavenumbers):
        xz, yz = (ad0 * np.exp(1j * k * z) + s * a0 * np.exp(-1j * k * z) for s in (1, -1))
        xt, yt = (ad0 * np.exp(1j * w * t) + s * a0 * np.exp(-1j * w * t) for s in (1, -1))
        if kind is SchemeKind.TIME_LOCAL:
            e = math.sqrt(cst.hbar * w / (vol * cst.eps0)) * math.sin(k * z) * xt
            h = 1j * math.sqrt(cst.hbar * w / (vol * cst.mu0)) * math.cos(k * z) * yt
        elif kind is SchemeKind.SPACE_LOCAL:
            e = 1j * math.sqrt(cst.lambda0 * w / (per * cst.eps0)) * math.sin(w * t) * yz
            h = -math.sqrt(cst.lambda0 * w / (per * cst.mu0)) * math.cos(w * t) * xz
        else:
            # a + a+ = kron(xz, xt) / sqrt(2 w) and a+ - a = i sqrt(w / 2) kron(yz, yt)
            # on the tensor space, with the amplitudes sqrt(2 w^2 / (eps0 L T)) of E and
            # i sqrt(2 w^2 / (mu0 L T)) of H times sqrt(hbar lambda0 / (2 w))
            act = cst.hbar * cst.lambda0
            e = math.sqrt(act / (2 * cst.eps0 * vol * per)) * np.kron(xz, xt)
            h = -w * math.sqrt(act / (2 * cst.mu0 * vol * per)) * np.kron(yz, yt)
        out.append((e, h))
    return out


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_field_matrices_match_closed_forms(kind):
    # unequal eps0 and mu0, and hbar and lambda0, so that a constant in the
    # wrong place shows
    cst = PhysicalConstants(c=1.0, eps0=0.5, mu0=2.0, hbar=0.7, lambda0=1.3)
    model = CavityModel(length=1.0, n_modes=3, constants=cst)
    dim, z, t = 5, 0.37, 0.21
    field = OperatorField(model, kind, dim, z, t)
    for idx, (e, h) in enumerate(_closed_form_fields(model, kind, dim, z, t)):
        for got, expect in ((field.e_matrix(idx), e), (field.h_matrix(idx), h)):
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_field_stacks_are_read_only():
    # e_matrix and h_matrix are views of the stacks built for the point: a
    # write through one would change what the next call returns
    field = OperatorField(make_model(), SchemeKind.TIME_LOCAL, 4, 0.3, 0.2)
    for mat in (field.e_matrix(1), field.h_matrix(0)):
        with pytest.raises(ValueError):
            mat[0, 1] = 0.0


def _spacetime_reference(model, dim, z, t):
    """spacetime_local_operators one mode at a time, with np.kron."""
    hbar, lambda0 = model.constants.hbar, model.constants.lambda0
    eye = np.eye(dim, dtype=complex)
    az, adz = phased_ladders(model.wavenumbers, z, dim)
    at, adt = phased_ladders(model.omegas, t, dim)
    out = []
    for i, w in enumerate(model.omegas):
        qz = math.sqrt(lambda0 / (2.0 * w)) * (adz[i] + az[i])
        pz = 1j * math.sqrt(lambda0 * w / 2.0) * (adz[i] - az[i])
        qt = math.sqrt(hbar / (2.0 * w)) * (adt[i] + at[i])
        pt = 1j * math.sqrt(hbar * w / 2.0) * (adt[i] - at[i])
        g1 = -1j * (hbar * np.kron(pz @ qz, eye) + lambda0 * np.kron(eye, pt @ qt))
        g2 = 1j * (hbar * np.kron(qz @ pz, eye) + lambda0 * np.kron(eye, qt @ pt))
        dev = 0.25 * (g1 + g2 + g1 + g2) - (-hbar * lambda0) * np.eye(dim * dim)
        norm = math.sqrt(2.0 * hbar * lambda0 * w)
        qzt, pzt = np.kron(qz, qt), np.kron(pz, pt)
        a, adag = (w * qzt + 1j * pzt) / norm, (w * qzt - 1j * pzt) / norm
        scale = math.sqrt(hbar * lambda0 / (2 * w))
        amp_e, amp_h = (math.sqrt(2.0 * w**2 / (eps * model.length * model.period))
                        for eps in (model.constants.eps0, model.constants.mu0))
        out.append((a, adag, float(np.max(np.abs(tensor_safe_block(dev, dim)))) / (hbar * lambda0),
                    amp_e * scale * (adag + a), 1j * (amp_h * scale) * (adag - a)))
    return out


@pytest.mark.parametrize("cst, length", [
    (CST, 1.3), (PhysicalConstants.si(), 1.3),
    # mode 3: w * w and the scalar w**2 (libm pow) differ in the last bit
    (PhysicalConstants.si(), 1.6453135538787396),
    (PhysicalConstants(c=1.0, eps0=0.5, mu0=2.0, hbar=0.7, lambda0=1.3), 1.3),
], ids=["symmetric", "si", "si-pow", "odd"])
def test_spacetime_stacks_match_the_per_mode_build_bit_for_bit(cst, length):
    # the same arithmetic on whole-mode stacks: every bit, signed zeros included
    model = CavityModel(length=length, n_modes=3, constants=cst)
    z, t = 0.41, 0.37 * model.period
    a, adag, g_deviation = spacetime_local_operators(model, 6, z, t)
    field = OperatorField(model, SchemeKind.SPACETIME_LOCAL, 6, z, t)
    assert field.g_deviation == np.max(g_deviation)
    for i, ref in enumerate(_spacetime_reference(model, 6, z, t)):
        got = a[i], adag[i], field.e_matrix(i), field.h_matrix(i)
        for mat, expect in zip(got, ref[:2] + ref[3:]):
            assert np.array_equal(mat.view(np.int64), expect.view(np.int64))
        assert repr(float(g_deviation[i])) == repr(ref[2])


@pytest.mark.parametrize("kind, action, has_g", [
    (SchemeKind.TIME_LOCAL, "hbar", False), (SchemeKind.SPACE_LOCAL, "lambda0", False),
    (SchemeKind.SPACETIME_LOCAL, "hbar", True)])
def test_field_carries_its_scheme_action_and_g_deviation(kind, action, has_g):
    # hbar and lambda0 unequal, so the wrong constant shows
    cst = PhysicalConstants(c=1.0, eps0=0.5, mu0=2.0, hbar=0.7, lambda0=1.3)
    field = OperatorField(CavityModel(length=1.0, n_modes=2, constants=cst), kind, 4, 0.3, 0.2)
    assert field.action == getattr(cst, action)
    assert (field.g_deviation is not None) is has_g
