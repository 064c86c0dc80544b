import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from duplexem import currents as cur
from duplexem import fockquant as fq
from duplexem import sshliquid as ssh
from duplexem.cavity import CavityModel, FirstSolution, ModeState, maxwell_residual
from duplexem.cli import SCHEMAS, main
from duplexem.constants import PhysicalConstants
from duplexem.currents import ClassicalFourCurrent


def test_verify_all_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["verify-all", "--seed", "42", "--out", str(out1)]) == 0
    assert main(["verify-all", "--seed", "42", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_verify_all_prints_table(tmp_path, capsys):
    assert main(["verify-all", "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("pass" in line for line in lines)
    assert lines[-1].endswith("checks passed")


def test_dual_invariants_outputs(tmp_path, capsys):
    out = tmp_path / "dual"
    assert main(["dual-invariants", "--random", "50", "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"]
    body = (out / "dual_invariants.csv").read_text().splitlines()
    assert len(body) == 51


def test_ssh_solve_happy_path(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({
        "t0": 1.0, "alpha1": 1.0, "alpha2": 0.15, "u": 0.1,
        "K_spring": 2.0, "N": 100, "a": 1.0, "occupation": "ground",
    }))
    out = tmp_path / "ssh"
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert "q" in summary and "u0" in summary
    assert (out / "gap_solution.csv").exists()


def _sweep_columns(tmp_path, u_scan):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"t0": 1.0, "alpha1": 1.0, "alpha2": 0.15, "u": 0.1,
                               "K_spring": 2.0, "N": 100, "a": 1.0, "u_scan": u_scan}))
    out = tmp_path / "sweep"
    assert main(["ssh-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    return summary, np.loadtxt(out / "ground_state.csv", delimiter=",", skiprows=1).T


@pytest.mark.parametrize("u_scan", [[-0.2, 0.2, 9], [-0.1, 0.5, 13]],
                         ids=["symmetric", "asymmetric"])
def test_ssh_sweep_columns_match_pointwise_routes(tmp_path, capsys, u_scan):
    summary, (u, e_quad, e_ell, e_small) = _sweep_columns(tmp_path, u_scan)
    capsys.readouterr()
    params = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=0.15, u=0.1, k_spring=2.0,
                           n_sites=100)
    q = summary["q"]
    assert u.tolist() == np.linspace(*u_scan[:2], u_scan[2]).tolist()
    assert e_quad.tolist() == [ssh.ground_energy(params, q, x, "quadrature") for x in u]
    assert e_ell.tolist() == [ssh.ground_energy(params, q, x, "elliptic") for x in u]
    assert e_small.tolist() == [ssh.ground_energy_smallz(params, q, x) for x in u]
    # the minimum is located on symmetric grids only
    assert ("u0" in summary) == (u_scan[0] == -u_scan[1])


def test_ssh_sweep_routes_agree_at_large_zeta(tmp_path, capsys):
    # zeta reaches ~2e9 at the ends, where the elliptic route once gave
    # 2.0000002131844655e+20 beside a quadrature 1.9999999995593087e+20
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"u_scan": [-1e9, 1e9, 5]}))
    assert main(["ssh-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, e_quad, e_ell, _ = np.loadtxt(tmp_path / "ground_state.csv", delimiter=",", skiprows=1).T
    assert np.all(np.abs(e_ell - e_quad) <= 1e-12 * np.abs(e_quad))


def test_ssh_solve_reaches_large_zeta_without_a_modulus_error(tmp_path, capsys):
    # t0 = 1e-9 scans zeta up to ~1e9, where the AGM kernels raised
    # "elliptic_K needs 0 <= k < 1"; the solve now finds its root (and still
    # exits 1: brentq's absolute xtol of 1e-14 is 4e-5 of this root)
    cfg = tmp_path / "tiny_t0.json"
    cfg.write_text(json.dumps({"t0": 1e-9}))
    main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert "error" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["q"] == pytest.approx(2.2486217124430604e-10, rel=1e-4)


def test_ssh_sweep_has_no_jobs_flag(tmp_path, capsys):
    assert main(["ssh-sweep", "--jobs", "2", "--out", str(tmp_path)]) == 2
    assert "--jobs" in capsys.readouterr().err


def _count_quad_calls(monkeypatch):
    calls = []
    quad = ssh.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[0])
        return quad(*args, **kwargs)

    monkeypatch.setattr(ssh.integrate, "quad", counted)
    return calls


def test_ssh_solve_makes_no_quadrature_call(tmp_path, capsys, monkeypatch):
    calls = _count_quad_calls(monkeypatch)
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"u_scan": [-0.2, 0.2, 9]}))
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == []


def test_ssh_sweep_makes_one_quadrature_per_point(tmp_path, capsys, monkeypatch):
    calls = _count_quad_calls(monkeypatch)
    summary, _ = _sweep_columns(tmp_path, [-0.3, 0.3, 25])
    capsys.readouterr()
    assert summary["points"] == 25 and len(calls) == 25


@pytest.mark.parametrize("command", ["ssh-solve", "ssh-sweep"])
def test_minimum_beyond_grid_edge_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "edge.json"
    cfg.write_text('{"form": "reduced", "u": -0.1, "u_scan": [-0.4, 0.4, 41]}')
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    error = json.loads((out / "summary.json").read_text())["error"]
    assert "edge |u| = 0.4 " in error and "widen u_scan" in error
    if command == "ssh-sweep":   # the curve is written before the minimum is sought
        data = np.loadtxt(out / "ground_state.csv", delimiter=",", skiprows=1)
        assert data.shape == (41, 4)


@pytest.mark.parametrize("command", ["ssh-solve", "ssh-sweep"])
def test_failed_gap_solve_keeps_residual_curve(tmp_path, capsys, command):
    # ground occupation with u * alpha2 > 0: C < 0, so C I(zeta) = 1 has no root
    cfg = tmp_path / "noroot.json"
    cfg.write_text('{"form": "reduced", "u": 0.1, "alpha2": 0.2, "u_scan": [-0.2, 0.2, 9]}')
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    assert "no root" in json.loads((out / "summary.json").read_text())["error"]
    lines = (out / "residual_curve.csv").read_text().splitlines()
    assert lines[0] == "q,residual" and len(lines) == 1 + 600
    q, residual = np.loadtxt(out / "residual_curve.csv", delimiter=",", skiprows=1).T
    params = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=0.2, u=0.1)
    assert residual.tolist() == [ssh.gap_residual(params, x, form="reduced") for x in q]
    assert np.all(residual < -1.0)


def test_verify_all_refines_quadrature_only_on_elliptic_brackets(tmp_path, capsys, monkeypatch):
    # scanning 600 points per quadrature solve of gap_method_agreement took 3,089 quad calls
    calls = _count_quad_calls(monkeypatch)
    assert main(["verify-all", "--seed", "42", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 100


def test_resonance_fit_inline_data(tmp_path, capsys):
    cfg = tmp_path / "res.json"
    cfg.write_text(json.dumps({
        "n": [0, 1, 2, 3, 4], "nu": [5.0, 4.99, 4.96, 4.91, 4.84],
    }))
    out = tmp_path / "res"
    assert main(["resonance-fit", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nu0"] == pytest.approx(5.0, abs=1e-10)
    assert summary["curvature"] == pytest.approx(0.01, abs=1e-10)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus": 1}')
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["cavity-field", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cavity_field_and_quantize_and_currents(tmp_path, capsys):
    for cmd in ("cavity-field", "quantize", "currents"):
        out = tmp_path / cmd
        assert main([cmd, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
    capsys.readouterr()


SMALL_CONFIGS = {
    "dual-invariants": None,
    "cavity-field": {"nz": 16, "nt": 16},
    "quantize": {"scheme": "spacetime_local", "dim": 4, "n_modes": 2},
    "currents": {"nz": 16, "nt": 4},
    "resonance-fit": {"n": [0, 1, 2, 3], "nu": [5.0, 4.99, 4.96, 4.91]},
    "ssh-solve": {"u_scan": [-0.2, 0.2, 9]},
    "ssh-sweep": {"u_scan": [-0.2, 0.2, 9]},
    "verify-all": None,
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_same_seed_gives_identical_files(tmp_path, capsys, command):
    argv = [command, "--seed", "11"]
    if SMALL_CONFIGS[command] is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIGS[command]))
        argv += ["--config", str(cfg)]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    assert len(runs[0]) >= 2
    assert runs[0] == runs[1]


def test_currents_columns_match_pointwise_evaluation(tmp_path, capsys):
    c1 = [[0.4, 0.1], [0.2, 0.0], [0.1, -0.2]]
    c2 = [[0.3, -0.2], [0.0, 0.25], [-0.1, 0.1]]
    cfg = tmp_path / "cur.json"
    cfg.write_text(json.dumps({"c1": c1, "c2": c2, "coupling": 1.5, "nz": 24, "nt": 6}))
    assert main(["currents", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = np.loadtxt(tmp_path / "currents.csv", delimiter=",", skiprows=1)
    assert data.shape == (24 * 6, 9)
    model = CavityModel(math.pi, 3, PhysicalConstants.symmetric())
    state = ModeState([complex(*c) for c in c1], [complex(*c) for c in c2])
    current = ClassicalFourCurrent(model, state, coupling=1.5)
    expect = np.array([
        [complex(current.j3(z, t, 1) + 1j * current.j3(z, t, 2)),
         complex(current.j4(z, t, 1) + 1j * current.j4(z, t, 2))]
        for z, t in data[:, :2]])
    got = np.stack([data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]], axis=1)
    assert np.all(np.max(np.abs(got - expect), axis=0)
                  <= 1e-13 * np.max(np.abs(expect), axis=0))
    # rows are t-major: z runs fastest
    assert np.array_equal(data[:24, 0], np.linspace(0.0, math.pi, 24))
    assert np.all(data[:24, 1] == 0.0)


def test_cavity_field_passes_in_si_units(tmp_path, capsys):
    # the residual bound is relative to the terms each equation cancels,
    # so a correct field passes whatever the unit system
    cfg = tmp_path / "si.json"
    cfg.write_text('{"units": "si"}')
    assert main(["cavity-field", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] and summary["bound"] == 1e-12
    assert summary["scales"][0] > 1e15
    assert all(r <= 1e-12 * s for r, s in zip(summary["residuals"], summary["scales"]))


def test_scaled_field_fails_relative_bound_in_si_units():
    rng = np.random.default_rng(21)
    model = CavityModel(1.0, 4, PhysicalConstants.si())
    state = ModeState(rng.normal(size=4) + 1j * rng.normal(size=4),
                      rng.normal(size=4) + 1j * rng.normal(size=4))
    pert = FirstSolution(model, state).scaled(1.0, 1.1)
    z = np.linspace(0.0, model.length, 64)
    t = np.linspace(0.0, model.period, 64)
    res = maxwell_residual(pert, z, t, model.constants)
    # curl E + 1.1 mu0 dH/dt leaves 0.1 / 1.1 of its larger term
    assert res[0] == pytest.approx(0.1 / 1.1 * res.scales[0], rel=1e-9)
    assert res[0] > 1e-12 * res.scales[0]


def test_cavity_field_rejects_unknown_solution(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text('{"solution": "thrid"}')
    assert main(["cavity-field", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "thrid" in err and "'first'" in err and "'second'" in err
    assert not (tmp_path / "field.csv").exists()


def test_currents_computes_each_charge_once(tmp_path, capsys, monkeypatch):
    calls = []
    charge = cur.noether_charge

    def counted(fieldset, t, *args):
        calls.append(t)
        return charge(fieldset, t, *args)

    monkeypatch.setattr(cur, "noether_charge", counted)
    cfg = tmp_path / "cur.json"
    cfg.write_text(json.dumps({"nz": 16, "nt": 5}))
    assert main(["currents", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    model = CavityModel(math.pi, 3, PhysicalConstants.symmetric())
    times = np.linspace(0.0, model.period, 5)
    assert calls == list(times)
    # the drift comes from the same charges as the table, and equals a fresh computation
    state = ModeState([0.4 + 0.1j, 0.2, 0.1 - 0.2j], np.zeros(3))
    monkeypatch.setattr(cur, "noether_charge", charge)
    expect = cur.charge_drift(cur.FieldFunctionSet.from_cavity(model, state), times)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["charge_drift"] == list(expect)


# SHA-256 of every output file of three deterministic runs: a refactoring that moves
# any written bit fails here
PINNED_OUTPUTS = {
    "verify-all": (["verify-all", "--seed", "42"], None, {
        "summary.json": "013c0d07e1fc775e157060f8982427e2996aeb28607e95070495c10a46f54dde",
        "verify.csv": "9efeadc7776956848083de4515a942fefbfd46200adcc4707922879f6e84410e",
    }),
    "currents": (["currents"], None, {
        "currents.csv": "e792ac74d1210e462a40a55d9ed1b19276c738a98b05c0b1d0bcc45c79bb0e5a",
        "summary.json": "f14bdb935c9387fd2a4aae53d4760a2280ccacb50239cccdee86395cba7fbf1d",
    }),
    "cavity-field-rotated": (["cavity-field"], {"theta": 0.7}, {
        "field.csv": "2a2dabfc6de155d69b23e135ec604f760fc3d0caae963ac16e354d8961a4c6d1",
        "summary.json": "5f9ee504ef251400def23762c709ee759947bd7335be4a76e33a5e5b55f439c4",
    }),
    "cavity-field-second": (["cavity-field"], {"solution": "second"}, {
        "field.csv": "48989bf5c9250e4ab4788393fb6ed73682606564ddb76bb15ad16db82ca22d2b",
        "summary.json": "e7746feeab584e73ca8e58c76ec09ab6cd51ffd7b68a5733609d2b2b12d1238b",
    }),
    "cavity-field-second-si-rotated": (["cavity-field"], {"solution": "second", "units": "si",
                                                          "theta": 0.3}, {
        "field.csv": "ffb9e7898f3bf13c3b28d21dafd21546b116682349f90e5c343c80493a14306e",
        "summary.json": "bb15f3af1d8910edeb06e5e162ec8a53403c8f625bd19f9fde8965ae5cb67089",
    }),
    "dual-invariants": (["dual-invariants", "--random", "10000", "--seed", "7"], None, {
        "dual_invariants.csv": "7e5646df451ec31995683bc270f4179894d71bc239d2a92351f3a8c3fb1a48ac",
        "summary.json": "ab9d5b4ae03855905f4b290c9a97adca2d0ba1aad1de1de1963287c01a4802f5",
    }),
    "quantize-spacetime": (["quantize"], {"scheme": "spacetime_local"}, {
        "operator_e_mode1.json": "bf296d9a35c144e1d0a7969240b5e8fa308a136f402248cff298170ccfc1b636",
        "operator_e_mode2.json": "d38b883881fbdec8a1205c4215da28fb83f21913c35f5f75b2b6708376093a42",
        "summary.json": "4a1c84cfda8a6af47d9049a4cbf2f96b54515fcc83255bb6700795fac86c36f5",
    }),
    "ssh-solve": (["ssh-solve"], None, {
        "gap_solution.csv": "133a11ac6a69f06d93a2166848f72b37aed463aab26e8bc9d1ff4c336f1ffb22",
        "summary.json": "3d1a0802925890f44532bab80d2ce1f3fdc6fc38ff69e99eb8c4d5acc6a8857a",
    }),
    # the exact case u = -2 / (N alpha2) with its double well
    "ssh-solve-reduced-exact": (["ssh-solve"], {"form": "reduced", "u": -0.25, "alpha2": 0.08,
                                                "u_scan": [-4, 4, 81]}, {
        "gap_solution.csv": "7279b2aa06f68bc55f837ddf80fff825457cde12fc06326e8095ca578d032574",
        "summary.json": "82ff432b5e2b03e473109561d374d3f226702bf6a3e40a37f899e4814933ef07",
    }),
    "ssh-sweep-inverted": (["ssh-sweep"], {"occupation": "inverted", "u_scan": [-0.4, 0.4, 41]}, {
        "ground_state.csv": "992fa6035901a47a1f26f243921ec5bd2e30f93fa5567bab1d44839a8fa8768a",
        "summary.json": "16fff2fdae66731a9a16c7f14ec90cb45dee7827bb25dca74925b95badbefda2",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_keep_pinned_digests(tmp_path, capsys, name):
    argv, cfg, digests = PINNED_OUTPUTS[name]
    out = tmp_path / "out"
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == digests


def test_cavity_field_rotated_passes_in_si_units(tmp_path, capsys):
    columns = {}
    for theta in (0.0, 0.5):
        cfg = tmp_path / f"si{theta}.json"
        cfg.write_text(json.dumps({"units": "si", "theta": theta}))
        out = tmp_path / f"out{theta}"
        assert main(["cavity-field", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"]
        assert all(r <= 1e-12 * s for r, s in zip(summary["residuals"], summary["scales"]))
        columns[theta] = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    capsys.readouterr()
    # columns z t ex ey ez hx hy hz as (re, im): E'_y = z0 sin H_y and H'_x = -sin E_x / z0
    z0, s = PhysicalConstants.si().z0, math.sin(0.5)
    base, rot = columns[0.0], columns[0.5]
    for got, expect in ((rot[:, 4:6], z0 * s * base[:, 10:12]),
                        (rot[:, 8:10], -s / z0 * base[:, 2:4])):
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_quantize_builds_spacetime_operators_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = fq.spacetime_local_operators

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return build(*args, **kwargs)

    monkeypatch.setattr(fq, "spacetime_local_operators", counted)
    cfg = tmp_path / "st.json"
    cfg.write_text(json.dumps({"scheme": "spacetime_local", "dim": 6, "z": 0.3, "t": 0.2}))
    assert main(["quantize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == [(0.3, 0.2)]
    cst = PhysicalConstants.symmetric()
    ops = build(CavityModel(1.0, 2, cst), 6, 0.3, 0.2)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["checks"]["g_symmetrized_deviation"] == max(o["g_deviation"] for o in ops)


@pytest.mark.parametrize("planted", ["off_diagonal", "no_zero_point"])
def test_spectrum_defect_fails_a_wrong_hamiltonian(tmp_path, capsys, monkeypatch, planted):
    # the check compares the Hamiltonian's eigenvalues with those of
    # action * w * (a+ a + 1/2) from the ladders: a coupling off the diagonal,
    # which leaves the diagonal right, fails it as a missing 1/2 does
    build = fq.mode_hamiltonian_matrix

    def wrong(dim, action, omega):
        ham = build(dim, action, omega)
        if planted == "off_diagonal":
            ham[2, 3] = ham[3, 2] = 0.1 * action * omega
        else:
            ham -= 0.5 * action * omega * np.eye(dim)
        return ham

    monkeypatch.setattr(fq, "mode_hamiltonian_matrix", wrong)
    assert main(["quantize", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["spectrum_defect"] > 1e-3
    assert checks["ladder_commutator_defect"] <= 1e-12 and checks["hermiticity_defect"] <= 1e-12


@pytest.mark.parametrize("check", ["spectrum_defect", "g_symmetrized_deviation"])
def test_quantize_checks_fail_a_planted_fault_in_si_units(tmp_path, capsys, monkeypatch, check):
    # hbar omega ~ 1e-25 J and hbar lambda0 ~ 1e-68 in SI units: a check
    # against an absolute 1e-12 would pass any Hamiltonian and any g there
    cfg = {"units": "si"}
    if check == "spectrum_defect":
        build = fq.mode_hamiltonian_matrix

        def planted(dim, action, omega):   # the zero-point 1/2 dropped
            return build(dim, action, omega) - 0.5 * action * omega * np.eye(dim)

        monkeypatch.setattr(fq, "mode_hamiltonian_matrix", planted)
    else:
        cfg["scheme"] = "spacetime_local"
        pair = fq.quadrature_pair

        def planted(a, ad, mass, omega, action):   # p one part in 1e3 too large
            q, p = pair(a, ad, mass, omega, action)
            return q, 1.001 * p

        monkeypatch.setattr(fq, "quadrature_pair", planted)
    (tmp_path / "si.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(tmp_path / "si.json"), "--out", str(out)]) == 1
    capsys.readouterr()
    assert json.loads((out / "summary.json").read_text())["checks"][check] > 1e-4


@pytest.mark.parametrize("command", ["ssh-solve", "ssh-sweep"])
@pytest.mark.parametrize("key, value, allowed", [("occupation", "grond", ("ground", "inverted")),
                                                 ("form", "reduce", ("full", "reduced"))])
def test_ssh_rejects_unknown_choice(tmp_path, capsys, command, key, value, allowed):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({key: value, "u_scan": [-0.2, 0.2, 9]}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert repr(value) in err and all(repr(name) in err for name in allowed)
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_dual_invariants_rejects_nonpositive_count(tmp_path, capsys, count):
    assert main(["dual-invariants", "--random", count, "--out", str(tmp_path)]) == 2
    assert "--random" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_unknown_log_level_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUPLEX_EM_LOG", "bogus")
    assert main(["verify-all", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "DUPLEX_EM_LOG" in err and "'bogus'" in err and "DEBUG" in err


@pytest.mark.parametrize("command, cfg, key", [
    ("cavity-field", {"length": None}, "'length'"),
    ("cavity-field", {"n_modes": "4"}, "'n_modes'"),
    ("cavity-field", {"nz": True}, "'nz'"),
    ("cavity-field", {"theta": "x"}, "'theta'"),
    ("cavity-field", {"c1": "0.5"}, "'c1'"),
    ("cavity-field", {"solution": 1}, "'solution'"),
    ("currents", {"coupling": False}, "'coupling'"),
    ("ssh-solve", {"N": "100"}, "'N'"),
    ("ssh-solve", {"N": 100.0}, "'N'"),
    ("ssh-solve", {"u_scan": [0.1]}, "u_scan"),
    ("ssh-solve", {"u_scan": [-0.1, 0.1, 4.5]}, "u_scan"),
    ("ssh-sweep", {"u_scan": [-0.1, 0.1, 0]}, "u_scan"),
    ("ssh-sweep", {"u_scan": "[-0.1, 0.1, 9]"}, "u_scan"),
    ("ssh-sweep", {"u_scan": [-0.1, "0.1", 9]}, "u_scan"),
    ("quantize", {"t": "0.1"}, "'t'"),
    ("quantize", {"z": 5}, "'z'"),
    ("quantize", {"scheme": "space_local", "z": -0.1}, "'z'"),
    ("quantize", {"scheme": "spacetime_local", "z": 1.5}, "'z'"),
    ("quantize", {"scheme": "spacetime_local", "t": 5}, "'t'"),
    ("quantize", {"scheme": "spacetime_local", "units": "si", "t": 0.1}, "'t'"),
    # right type, out of range: these exited 1, or crashed, before SCHEMAS
    ("cavity-field", {"n_modes": 0}, "'n_modes'"),
    ("cavity-field", {"length": -1.0}, "'length'"),
    ("cavity-field", {"nz": 0}, "'nz'"),
    ("cavity-field", {"c1": [[0.5]]}, "'c1'"),
    ("currents", {"nt": 0}, "'nt'"),
    ("quantize", {"dim": 1}, "'dim'"),
    ("quantize", {"dim": 2, "scheme": "spacetime_local"}, "'dim'"),
    ("quantize", {"n_modes": 0}, "'n_modes'"),
    ("ssh-solve", {"N": 99}, "'N'"),
    ("ssh-solve", {"N": 0}, "'N'"),
    ("ssh-solve", {"t0": 0.0}, "'t0'"),
    ("ssh-solve", {"alpha1": 0.0}, "'alpha1'"),
    ("ssh-solve", {"a": -1.0}, "'a'"),
    ("resonance-fit", {"n": [1, 2], "nu": [1]}, "'nu'"),
    ("resonance-fit", {"n": [1, 2, 3], "nu": "abc"}, "'nu'"),
    ("resonance-fit", {"n": [1], "nu": [1.0]}, "'n'"),
    ("cavity-field", {"c1": [["a", 0]]}, "'c1'"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, cfg, key, minimum", [
    ("cavity-field", {"nz": 2}, "nz", 8),     # 4 modes: 4 points per half wavelength L/4
    ("cavity-field", {"nt": 7}, "nt", 8),
    ("currents", {"nz": 11}, "nz", 12),       # 3 modes: densities oscillate at 2 k_3
])
def test_grid_too_coarse_for_the_modes_exits_2(tmp_path, capsys, command, cfg, key, minimum):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err and f"at least {minimum} " in err
    assert list((tmp_path / "bad").iterdir()) == []
    # the minimum it names is enough
    path.write_text(json.dumps(dict(cfg, **{key: minimum})))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["verify-all"], ["dual-invariants", "--random", "5"]])
def test_config_flag_only_where_a_config_is_read(tmp_path, capsys, argv):
    path = tmp_path / "ignored.json"
    path.write_text('{"bogus": 1}')
    assert main(argv + ["--config", str(path), "--out", str(tmp_path)]) == 2
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_currents_honours_a_tight_tol(tmp_path, capsys):
    assert main(["currents", "--tol", "1e-20", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["bound"] == 1e-20 and not summary["passed"]


def test_verify_all_hyperbolic_check_is_well_conditioned(tmp_path, capsys):
    # seed 3 draws a pair with Im C = -1.4e-3, where the ratio W = Re C / Im C
    # drifted by 1.3e-10 relative
    assert main(["verify-all", "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert checks["hyperbolic_ratio_drift"]["value"] <= 1e-15


# one value of each JSON type that is not the key's
WRONG_TYPE = {float: "1.0", int: 2.0, str: 1, list: "[1, 2]"}


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(SCHEMAS)
                                          for key in SCHEMAS[command]])
def test_wrong_json_type_exits_2(tmp_path, capsys, command, key):
    spec = SCHEMAS[command][key]
    kind = spec.kind or type(spec.default)
    # null stands for the default only where the default is null
    for value in [WRONG_TYPE[kind], True] + ([None] if spec.default is not None else []):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and repr(key) in err
        assert not (tmp_path / "summary.json").exists()


def test_config_docs_name_the_schema_keys():
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    documented = {}
    for section in text.split("\n## ")[1:]:
        heading, body = section.split("\n", 1)
        rows = [line.split("|")[1] for line in body.splitlines() if line.startswith("| `")]
        keys = {name for cell in rows for name in re.findall(r"`([^`]+)`", cell)
                if not name.startswith("--")}
        for command in heading.split(" and "):
            documented[command] = keys
    assert set(SCHEMAS) <= set(documented)
    for command, keys in documented.items():
        assert keys == set(SCHEMAS.get(command, ())), command


def test_null_keeps_a_null_default(tmp_path, capsys):
    for name, cfg in (("a", {}), ("b", {"t": None})):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert main(["quantize", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()


@pytest.mark.parametrize("scheme", ["time_local", "space_local", "spacetime_local"])
def test_quantize_default_point_lies_inside_si_cavity(tmp_path, capsys, scheme):
    cfg = tmp_path / "si.json"
    cfg.write_text(json.dumps({"units": "si", "scheme": scheme}))
    assert main(["quantize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "summary.json").read_text())["passed"]
