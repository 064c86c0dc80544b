import contextlib
import fnmatch
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duplexem import cli
from duplexem import currents as cur
from duplexem import dualsym as ds
from duplexem import fockquant as fq
from duplexem import sshliquid as ssh
from duplexem.cavity import CavityModel, FirstSolution, ModeState, maxwell_residual
from duplexem.cli import COMMANDS, SCHEMAS, build_parser, main
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


def _rotation_drift_by_calls(rng, count):
    """The reference of cli._rotation_drift: one normal(size=6) and one
    uniform(0, 2 pi) call per sample."""
    eh, theta = np.empty((count, 6)), np.empty(count)
    for i in range(count):
        eh[i] = rng.normal(size=6)
        theta[i] = rng.uniform(0.0, 2 * math.pi)
    pairs = ds.FieldPair(eh[:, :3], eh[:, 3:])
    k_ref = ds.invariants(pairs).k_inv
    k_rot = ds.invariants(ds.dual_rotate(pairs, theta)).k_inv
    return theta, k_ref, k_rot, np.abs(k_rot - k_ref) / np.maximum(np.abs(k_ref), 1e-300)


@pytest.mark.parametrize("count", [1, 2, 300, 10_000])
@pytest.mark.parametrize("seed", [0, 5, 42, 7919])
def test_rotation_drift_draws_the_doubles_of_normal_and_uniform(seed, count):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, expected = cli._rotation_drift(rng, count), _rotation_drift_by_calls(ref_rng, count)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_dual_invariants_first_rows_do_not_depend_on_the_count(tmp_path, capsys):
    heads = []
    for count in ("3", "10000"):
        assert main(["dual-invariants", "--random", count, "--seed", "7",
                     "--out", str(tmp_path / count)]) == 0
        heads.append((tmp_path / count / "dual_invariants.csv").read_bytes().split(b"\n")[:4])
    capsys.readouterr()
    assert heads[0] == heads[1]


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


def test_ssh_sweep_and_solve_share_one_symmetry_rule(tmp_path, capsys):
    # both commands report one well, bit for bit.  1e-11 off at |u| = 300 is
    # within the relative rounding allowance of the minimum search (ssh-sweep's
    # absolute 1e-12 once read it as asymmetric), a flat curve there; the
    # reduced exact case has a double well
    path = tmp_path / "params.json"
    for cfg, double_well in (
            ({"alpha2": 0.15, "K_spring": 2.0, "u_scan": [-300.0, 300.0 + 1e-11, 25]}, False),
            ({"form": "reduced", "u": -0.25, "alpha2": 0.08, "u_scan": [-4, 4, 81]}, True)):
        path.write_text(json.dumps(cfg))
        wells = []
        for command in ("ssh-solve", "ssh-sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            wells.append([repr(summary[key]) for key in ("q", "u0", "well_depth", "double_well")])
        assert wells[0] == wells[1]
        assert wells[0][3] == repr(double_well)
    capsys.readouterr()


def test_ssh_solve_finds_the_weak_coupling_reduced_root(tmp_path, capsys):
    # C = 0.0255 puts the root at |Q| = 3.2e-16, below the old scan floor |Q| = 1e-9
    cfg = tmp_path / "weak.json"
    cfg.write_text('{"form": "reduced", "u": -0.02, "alpha2": 0.02}')
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the root of C I(zeta) = 1 by 40-digit mpmath
    assert summary["roots"] == pytest.approx([-3.2434043517287286e-16, 3.2434043517287286e-16],
                                             rel=1e-14)
    assert summary["passed"] and summary["bound"] == 1e-10


def test_ssh_solve_names_a_coupling_whose_floor_underflows(tmp_path, capsys):
    # C = 1.1e-3: the floor |zeta| = 2 e^{-1-1/C} of the reduced scan underflows
    cfg = tmp_path / "tiny.json"
    cfg.write_text('{"form": "reduced", "u": -0.02, "alpha2": 0.0009}')
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    assert "C = 0.001145" in json.loads((tmp_path / "summary.json").read_text())["error"]
    assert not (tmp_path / "residual_curve.csv").exists()


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
    # "elliptic_K needs 0 <= k < 1"; the root is refined relative to itself
    # (an absolute brentq xtol of 1e-14 was 4e-5 of it, and the solve exited 1)
    cfg = tmp_path / "tiny_t0.json"
    cfg.write_text(json.dumps({"t0": 1e-9}))
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "error" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the root of 1 + C Q I(zeta(Q)) - Q by 40-digit mpmath
    assert summary["q"] == pytest.approx(2.2486252254427007e-10, rel=1e-14)
    assert summary["passed"] and summary["residual"] <= 1e-10


def test_ssh_sweep_has_no_jobs_flag(tmp_path, capsys):
    assert main(["ssh-sweep", "--jobs", "2", "--out", str(tmp_path)]) == 2
    assert "--jobs" in capsys.readouterr().err


def _count_quadrature_calls(monkeypatch):
    """The zeta of every call of the quadrature route's one array body."""
    calls = []
    kernels = ssh._trapezoid_kernels

    def counted(zeta):
        calls.append(zeta)
        return kernels(zeta)

    monkeypatch.setattr(ssh, "_trapezoid_kernels", counted)
    return calls


def test_ssh_solve_makes_no_quadrature_call(tmp_path, capsys, monkeypatch):
    calls = _count_quadrature_calls(monkeypatch)
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"u_scan": [-0.2, 0.2, 9]}))
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == []


def test_ssh_sweep_makes_one_quadrature_call_per_sweep(tmp_path, capsys, monkeypatch):
    # the E0_quadrature column is one array call over the distinct |u| of the
    # grid: linspace(-0.3, 0.3, 25) has 21 of them
    calls = _count_quadrature_calls(monkeypatch)
    summary, _ = _sweep_columns(tmp_path, [-0.3, 0.3, 25])
    capsys.readouterr()
    assert summary["points"] == 25 and [np.shape(zeta) for zeta in calls] == [(21,)]


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


def _solve_summary(tmp_path, cfg, code=0):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["ssh-solve", "--config", str(path), "--out", str(out)]) == code
    return json.loads((out / "summary.json").read_text())


WELL = {"form": "reduced", "u": -0.25, "alpha2": 0.08}


@pytest.mark.parametrize("cfg, edge", [({}, 1.2), (WELL, 4.11)])
def test_ssh_solve_descending_u_scan_matches_ascending(tmp_path, capsys, cfg, edge):
    up = _solve_summary(tmp_path, {**cfg, "u_scan": [-edge, edge, 41]})
    down = _solve_summary(tmp_path, {**cfg, "u_scan": [edge, -edge, 41]})
    capsys.readouterr()
    assert down["double_well"] == up["double_well"] == bool(cfg)
    # np.linspace runs each way on its own roundings; the minimum is found to ~1e-8
    assert down["u0"] == pytest.approx(up["u0"], abs=1e-7)
    assert down["well_depth"] == pytest.approx(up["well_depth"], rel=1e-12)


@pytest.mark.parametrize("u_scan", [[-4.11, 4.11, 4], [-13.7, 13.7, 10]])
def test_ssh_solve_refines_the_minimum_of_an_even_u_scan(tmp_path, capsys, u_scan):
    # no grid point at u = 0: the argmin, at the first positive point, is refined
    fine = _solve_summary(tmp_path, {**WELL, "u_scan": [-4.11, 4.11, 801]})
    even = _solve_summary(tmp_path, {**WELL, "u_scan": u_scan})
    capsys.readouterr()
    assert even["double_well"] and fine["double_well"]
    assert even["u0"] == pytest.approx(fine["u0"], abs=1e-7)
    assert even["well_depth"] == pytest.approx(fine["well_depth"], rel=1e-12)


def test_two_point_u_scan_falling_at_its_edge_exits_1(tmp_path, capsys):
    # u = 1 is the one positive point, and E0 is lower there than at u = 0
    summary = _solve_summary(tmp_path, {**WELL, "u_scan": [-1.0, 1.0, 2]}, code=1)
    capsys.readouterr()
    assert "edge |u| = 1.0 " in summary["error"]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, cfg, params", [
    # the coupling term C Q I(zeta) overflows: -inf below Q = 0, inf above
    ("ssh-sweep", {"alpha2": 1e200, "u_scan": [-0.4, 0.4, 9]}, {"alpha2": 1e200}),
    # zeta = 2 alpha1 u Q / t0 overflows: every residual is nan
    ("ssh-solve", {"t0": 5e-324, "K_spring": 1e-310}, {"t0": 5e-324, "k_spring": 1e-310}),
], ids=["alpha2", "t0"])
def test_a_gap_scan_that_overflows_keeps_its_residual_curve(tmp_path, capsys, command, cfg,
                                                            params):
    # the run stopped at the scan's first overflow, with numpy's reason and no curve
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    message = "no root of the gap equation inside the bracket"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads((out / "summary.json").read_text()) == {"error": message}
    lines = (out / "residual_curve.csv").read_text().splitlines()
    assert lines[0] == "q,residual" and len(lines) == 1 + 600
    q, residual = np.loadtxt(out / "residual_curve.csv", delimiter=",", skiprows=1).T
    assert not np.isfinite(residual).any()
    with np.errstate(all="ignore"):
        scan = ssh.gap_residual(ssh.SshParams(**{"t0": 1.0, "alpha1": 1.0, "alpha2": 0.2,
                                                 "u": 0.1, **params}), q)
    np.testing.assert_array_equal(residual, scan)


def test_a_passing_rerun_removes_the_residual_curve_of_a_failed_run(tmp_path, capsys):
    cfg = tmp_path / "noroot.json"
    cfg.write_text('{"form": "reduced", "u": 0.1, "alpha2": 0.2, "u_scan": [-0.2, 0.2, 9]}')
    out = tmp_path / "out"
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert (out / "residual_curve.csv").exists()
    assert main(["ssh-solve", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["gap_solution.csv", "summary.json"]


def test_quantize_with_fewer_modes_removes_the_operators_of_the_others(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for n_modes in (3, 1):
        cfg.write_text(json.dumps({"n_modes": n_modes}))
        assert main(["quantize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "operator_e_mode1.json", "summary.json"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_run_removes_every_output_of_an_earlier_one(tmp_path, capsys, monkeypatch, command):
    # a passing run writes only files of its command's outputs; a rerun that
    # fails before writing leaves its summary.json alone
    argv, out = _small_argv(tmp_path, command) + ["--out", str(tmp_path / "out")], tmp_path / "out"
    assert main(argv) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "summary.json")
    patterns = COMMANDS[command].outputs
    assert written and all(any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
                           for name in written)

    def raising(*args):
        raise ValueError("planted before the tables")

    monkeypatch.setattr(cli, COMMANDS[command].handler, raising)
    (out / "notes.txt").write_text("not an output")
    assert main(argv) == 1
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "summary.json"]


@pytest.mark.parametrize("command, cfg", [
    ("quantize", {"z": 5.0}),
    ("quantize", {"t": 1e308}),
    ("quantize", {"scheme": "spacetime_local", "t": 5.0}),
    ("quantize", {"scheme": "spacetime_local", "dim": 2}),
    ("quantize", {"length": 1e-300, "z": 0.0}),
    ("cavity-field", {"c1": [[0.5, 0.0]]}),
    ("currents", {"c2": [[0.5, 0.0]]}),
    ("cavity-field", {"nz": 2}),
    ("cavity-field", {"c1": [[1e307, 0.0]] * 4}),
    ("currents", {"nz": 11}),
    ("resonance-fit", {"n": [1, 2], "nu": [1.0]}),
    ("resonance-fit", {"input": "no_such.csv"}),
    ("ssh-solve", {"u_scan": [0, 1, 11]}),
    ("ssh-sweep", {}),
], ids=["z", "t-phase", "t-spacetime", "dim", "length", "c1-count", "c2-count", "nz",
         "mode-sum", "nz-currents",
        "fit-lists", "fit-input", "u_scan-asymmetric", "u_scan-missing"])
def test_a_config_error_found_by_a_handler_leaves_the_directory_as_it_was(tmp_path, capsys,
                                                                          command, cfg):
    out = tmp_path / "out"
    assert main(_small_argv(tmp_path, command) + ["--out", str(out)]) == 0
    (out / "notes.txt").write_text("not an output")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# the configs of a second run whose tables differ from those of SMALL_CONFIGS;
# its summary.json differs also by its --seed and --tol, where the command has them
OTHER_CONFIGS = {
    "cavity-field": {"nz": 17, "nt": 16},
    "quantize": {"scheme": "spacetime_local", "dim": 5, "n_modes": 2},
    "currents": {"nz": 17, "nt": 4},
    "resonance-fit": {"n": [0, 1, 2, 3], "nu": [5.0, 4.98, 4.96, 4.91]},
    "ssh-solve": {"u_scan": [-0.2, 0.2, 9], "N": 50},
    "ssh-sweep": {"u_scan": [-0.2, 0.2, 11]},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_rerun_writes_every_file_anew(tmp_path, capsys, command):
    # hard links keep the first run's bytes: the rerun removes summary.json and
    # the tables of the first and writes new files, rewriting none in place
    out, links = tmp_path / "out", tmp_path / "links"
    assert main(_small_argv(tmp_path, command) + ["--out", str(out)]) == 0
    table = min(p.name for p in out.iterdir() if p.name != "summary.json")
    first = {name: (out / name).read_bytes() for name in ("summary.json", table)}
    links.mkdir()
    for name in first:
        os.link(out / name, links / name)
    argv = [command, "--out", str(out)]
    if command in OTHER_CONFIGS:
        (tmp_path / "other.json").write_text(json.dumps(OTHER_CONFIGS[command]))
        argv += ["--config", str(tmp_path / "other.json")]
    argv += ["--seed", "1"] if COMMANDS[command].seeded else []
    argv += ["--tol", "0.001"] if COMMANDS[command].tol is not None else []
    assert main(argv) == 0
    capsys.readouterr()
    for name, data in first.items():
        assert (links / name).read_bytes() == data
        assert (out / name).read_bytes() != data
        assert (out / name).stat().st_nlink == 1


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_run_leaves_a_hidden_file(tmp_path, capsys, monkeypatch, command):
    # neither a probe of the directory nor a file set aside outlives a run
    # that exits 0, 1 (a run that raised) or 2 (a config error in the handler)
    name = COMMANDS[command].handler
    real = getattr(cli, name)

    def raising(*args):
        real(*args)
        raise ValueError("planted after the tables")

    def config_error(*args):
        raise cli.ConfigError("planted in the handler")

    out = tmp_path / "out"
    argv = _small_argv(tmp_path, command) + ["--out", str(out)]
    for handler, code in ((real, 0), (raising, 1), (real, 0), (config_error, 2)):
        monkeypatch.setattr(cli, name, handler)
        assert main(argv) == code
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
    capsys.readouterr()


RUN_AS_ROOT = hasattr(os, "geteuid") and os.geteuid() == 0


@pytest.mark.parametrize("where", ["file", "below_a_file", pytest.param(
    "read_only", marks=pytest.mark.skipif(RUN_AS_ROOT, reason="root writes into any directory"))])
def test_an_unusable_out_exits_2_and_creates_nothing(tmp_path, capsys, where):
    (tmp_path / "file").write_text("kept")
    out = {"file": tmp_path / "file", "below_a_file": tmp_path / "file" / "out",
           "read_only": tmp_path / "read_only"}[where]
    if where == "read_only":
        out.mkdir(mode=0o555)
    assert main(["cavity-field", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: output directory not writable")
    left = ["file", "read_only"] if where == "read_only" else ["file"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == left
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize("t0", [1e-30, 1e-300])
def test_unconverged_gap_root_exits_1_naming_the_bracket(tmp_path, capsys, t0):
    # brentq stops at its iteration cap on the bracket around Q = 0
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"t0": t0}))
    out = tmp_path / "out"
    assert main(["ssh-solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    error = json.loads((out / "summary.json").read_text())["error"]
    assert error.startswith("brentq did not converge on the elliptic residual over the "
                            "scanned bracket [-0.3338898163605961, 0.3338898163605961]")
    assert (out / "residual_curve.csv").read_text().startswith("q,residual\n")


def test_verify_all_refines_quadrature_only_on_elliptic_brackets(tmp_path, capsys, monkeypatch):
    # gap_method_agreement evaluates the quadrature route at one Q per brentq step
    # (65 calls at seed 42, 66 with the curve), never on the 600-point scan; the
    # ground-state check takes its 25-point curve in one call over its 21 distinct |u|
    calls = _count_quadrature_calls(monkeypatch)
    assert main(["verify-all", "--seed", "42", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sizes = [np.size(zeta) for zeta in calls]
    assert 0 < len(calls) <= 100 and sorted(set(sizes)) == [1, 21] and sizes.count(21) == 1


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
    # json's own error, then two that json.load raises as a bare ValueError: a
    # number past int's 4300-digit limit, and bytes that are not UTF-8
    for text in (b"{not json", b'{"nz": 1' + b"0" * 5000 + b"}", b'{"theta": "\xff"}'):
        cfg.write_bytes(text)
        assert main(["cavity-field", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert not (tmp_path / "summary.json").exists()


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


# the subcommands that draw random numbers, and the default bound of each that checks one
SEEDED = ("dual-invariants", "verify-all")
DEFAULT_TOL = {"dual-invariants": 1e-12, "cavity-field": 1e-12, "quantize": 1e-12,
               "currents": 1e-8, "ssh-solve": 1e-10}


def _small_argv(tmp_path, command) -> list:
    """command with its config of SMALL_CONFIGS, if it has one."""
    if SMALL_CONFIGS[command] is None:
        return [command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIGS[command]))
    return [command, "--config", str(cfg)]


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_same_seed_gives_identical_files(tmp_path, capsys, command):
    argv = _small_argv(tmp_path, command) + (["--seed", "11"] if command in SEEDED else [])
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

    def counted(field, c, t):
        calls.append(t)
        return charge(field, c, t)

    monkeypatch.setattr(cur, "noether_charge", counted)
    cfg = tmp_path / "cur.json"
    cfg.write_text(json.dumps({"nz": 16, "nt": 5}))
    assert main(["currents", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    model = CavityModel(math.pi, 3, PhysicalConstants.symmetric())
    times = np.linspace(0.0, model.period, 5)
    assert len(calls) == 1 and np.array_equal(calls[0], times)   # one call, the whole grid
    # the drift comes from the same charges as the table, and equals a fresh computation
    state = ModeState(*([complex(*pair) for pair in SCHEMAS["currents"][key].default]
                        for key in ("c1", "c2")))
    monkeypatch.setattr(cur, "noether_charge", charge)
    expect = cur.charge_drift(cur.charge_field(model, state), model.constants.c, times)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["charge_drift"] == list(expect)


# SHA-256 of every output file of three deterministic runs: a refactoring that moves
# any written bit fails here
PINNED_OUTPUTS = {
    "verify-all": (["verify-all", "--seed", "42"], None, {
        "summary.json": "41997a606ed76fa32c82d754ffb1f285f17b4bf7b114ed138d09c11c44fc1448",
        "verify.csv": "5510ac877e7b3555eade708bc3fca06e48f01aa6236b67ad521b2f6c41172df4",
    }),
    "currents": (["currents"], None, {
        "currents.csv": "5422426f07834ad50a552fdfef6d5506e617d07dd9b7f045b880c7e39cfbff6d",
        "summary.json": "e62a17ad169efd25b81a03f11493cc383a6870e6bb1646c4821cce4b8893e02e",
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
    "quantize": (["quantize"], None, {
        "operator_e_mode1.json": "68d61f6843d6d9dd9cc181b388d693f79ba7f5588aaf36ff33c7a293ae33babe",
        "operator_e_mode2.json": "47b7ec78e7ba7eb70b684639eb982ca5566ad12942ee0b6a6040043713b9923f",
        "summary.json": "3a659d04129a313aa7856905e53ad19cac9da7881adba4018e3273bc859280d9",
    }),
    # coef * (a+ - a), not coef * (a+ + (-1) * a): the latter flips the sign of a
    # zero entry of mode 4 here
    "quantize-space-local": (["quantize"], {"scheme": "space_local", "dim": 16, "n_modes": 4,
                                            "z": 0.8853105815878217, "t": 0.4547899423092088}, {
        "operator_e_mode1.json": "bb277221c7687139cc3ce58bde6f8e0f224d007923883307d5e309d71c4f61b1",
        "operator_e_mode2.json": "a2d29dbc0b780d9f2ff4a9dcc6ff3bc92c55690b6d2eb1855a163366aa2321fc",
        "operator_e_mode3.json": "50779946f7c2ad842f024c6ed433b726e1708a4f120e7f5e4dfb9e5ef25418f0",
        "operator_e_mode4.json": "6c397ad4d15723e138785ea060e58b8fd823453494ea1e61a45e658cd6b646d5",
        "summary.json": "858798ae22048af783343650fec003b3b54703679d6e76fd7e702a842c84b8cc",
    }),
    "quantize-spacetime": (["quantize"], {"scheme": "spacetime_local"}, {
        "operator_e_mode1.json": "bf296d9a35c144e1d0a7969240b5e8fa308a136f402248cff298170ccfc1b636",
        "operator_e_mode2.json": "d38b883881fbdec8a1205c4215da28fb83f21913c35f5f75b2b6708376093a42",
        "summary.json": "4a1c84cfda8a6af47d9049a4cbf2f96b54515fcc83255bb6700795fac86c36f5",
    }),
    "ssh-solve": (["ssh-solve"], None, {
        "gap_solution.csv": "86916984b3316ff8debcc8516a2b8b00fd0f106065145e99b1aeca44c216b73a",
        "summary.json": "9e029282014db1ae5ab2db27c86bc70892e33d9f00b9f4ae9257f19afb583aec",
    }),
    # the exact case u = -2 / (N alpha2) with its double well
    "ssh-solve-reduced-exact": (["ssh-solve"], {"form": "reduced", "u": -0.25, "alpha2": 0.08,
                                                "u_scan": [-4, 4, 81]}, {
        "gap_solution.csv": "7279b2aa06f68bc55f837ddf80fff825457cde12fc06326e8095ca578d032574",
        "summary.json": "111f4791c46175fa972b815e774b013556c111818bcc0f477b85e888162beaa4",
    }),
    "ssh-sweep-inverted": (["ssh-sweep"], {"occupation": "inverted", "u_scan": [-0.4, 0.4, 41]}, {
        "ground_state.csv": "1f5bed72b5f57271488d4b69589428fc6dfa6eb1a073444c01dd91fc6b2a4e8b",
        "summary.json": "146b1c7e1c6c91970571423d1b15b56a5d3b62f665529da50f1dd445b04ab1e8",
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
    *_, g_deviation = build(CavityModel(1.0, 2, cst), 6, 0.3, 0.2)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["checks"]["g_symmetrized_deviation"] == np.max(g_deviation)


def test_verify_all_builds_no_spacetime_ladders(tmp_path, capsys, monkeypatch):
    calls = {"spacetime_local_operators": [], "spacetime_g_deviation": []}
    for name, log in calls.items():
        def counted(*args, _build=getattr(fq, name), _log=log, **kwargs):
            _log.append(args[1:4])
            return _build(*args, **kwargs)
        monkeypatch.setattr(fq, name, counted)
    assert main(["verify-all", "--seed", "42", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == {"spacetime_local_operators": [], "spacetime_g_deviation": [(8, 0.3, 0.2)]}


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

        def planted(a, ad, omega, action):   # p one part in 1e3 too large
            q, p = pair(a, ad, omega, action)
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


# the big counts are past numpy's array limit, np.iinfo(np.intp).max bytes, for
# the (count, 3) float array of the samples; a count below it is not tried here,
# as numpy might allocate it.  One beyond 2**64 is named by its digit count
@pytest.mark.parametrize("count, shown", [
    pytest.param("0", "'0'", id="0"), pytest.param("-3", "'-3'", id="-3"),
    pytest.param(str(2**62), f"'{2**62}'", id="2**62"),
    pytest.param(str(2**64 + 1), "an integer of 20 digits", id="2**64+1"),
    pytest.param("1" + "0" * 400, "an integer of 401 digits", id="401-digits"),
    pytest.param("-" + "9" * 30, "an integer of 30 digits", id="negative-30-digits")])
def test_dual_invariants_rejects_out_of_range_count(tmp_path, capsys, count, shown):
    assert main(["dual-invariants", "--random", count, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith(
        f"argument --random: must be a sample count from 1 to {cli._MAX_SAMPLES}, got {shown}\n")
    assert not (tmp_path / "summary.json").exists()


def test_unknown_log_level_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUPLEX_EM_LOG", "bogus")
    assert main(["verify-all", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "DUPLEX_EM_LOG" in err and "'bogus'" in err and "DEBUG" in err


def test_log_level_follows_the_variable_on_every_call(tmp_path, capsys, monkeypatch):
    # one process, three levels in turn: each call reads DUPLEX_EM_LOG anew
    argv = ["quantize", "--out", str(tmp_path)]
    monkeypatch.delenv("DUPLEX_EM_LOG", raising=False)
    assert main(argv) == 0
    assert "duplexem" not in capsys.readouterr().err
    monkeypatch.setenv("DUPLEX_EM_LOG", "INFO")
    assert main(argv) == 0
    assert "INFO:duplexem:quantize: exit 0 in" in capsys.readouterr().err
    # the records go to the stderr of the moment, here a redirected one
    redirected = io.StringIO()
    with contextlib.redirect_stderr(redirected):
        assert main(argv) == 0
    assert "INFO:duplexem:quantize: exit 0 in" in redirected.getvalue()
    monkeypatch.setenv("DUPLEX_EM_LOG", "WARNING")
    assert main(argv) == 0
    assert "duplexem" not in capsys.readouterr().err


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
    # not symmetric about 0: these exited 1 from the minimum search
    ("ssh-solve", {"u_scan": [0, 1, 11]}, "'u_scan'"),
    ("ssh-solve", {"u_scan": [-1, 1, 1]}, "'u_scan'"),
    # an integer beyond the float range: N crashed in 2.0 * N, nz exited 1
    ("ssh-solve", {"N": 10**309}, "'N'"),
    ("cavity-field", {"nz": 10**400}, "'nz'"),
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


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_seed_and_tol_only_where_read(capsys, command):
    parser = build_parser()
    assert build_parser() is parser
    args = parser.parse_args([command])
    assert getattr(args, "tol", None) == DEFAULT_TOL.get(command)
    for flag, takes in (("--seed", command in SEEDED), ("--tol", command in DEFAULT_TOL)):
        if takes:
            parser.parse_args([command, flag, "0"])
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([command, flag, "0"])
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-all", "--seed", "-1"],
                                  ["dual-invariants", "--seed", "-7"],
                                  ["currents", "--tol", "-0.5"],
                                  ["cavity-field", "--tol=-1e-8"],
                                  ["ssh-solve", "--tol", "nan"]])
def test_negative_seed_or_tol_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    flag = argv[1].split("=")[0]
    assert f"argument {flag}: must be a non-negative" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("cfg", [
    {"units": "si", "c2": [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    {"n_modes": 4, "c1": [[0.5, 0.0]] * 4, "c2": [[0.5, 0.0]] * 4},
], ids=["si", "standing-wave"])
def test_currents_checks_are_relative(tmp_path, capsys, cfg):
    # against absolute terms the SI config failed continuity by 8.0 next to terms
    # of 3.7e16, and the standing wave, whose charges are rounding noise, failed
    # a drift relative to max |q| by 1.98
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["currents", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] and summary["bound"] == 1e-8
    assert summary["continuity_residual"] <= 1e-14 and max(summary["charge_drift"]) <= 1e-13


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


FLOAT_KEYS = [(command, key) for command in sorted(SCHEMAS)
              for key, spec in SCHEMAS[command].items()
              if (spec.kind or type(spec.default)) is float]


# json reads NaN, Infinity and -Infinity, and 1e999 as inf
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("command, key", FLOAT_KEYS)
def test_non_finite_number_exits_2(tmp_path, capsys, command, key, literal):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"{key}": {literal}}}')
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and repr(key) in err and "finite" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, text, key", [
    ("cavity-field", '{"c1": [[0.5, NaN], [0.5, 0], [0.5, 0], [0.5, 0]]}', "'c1'"),
    ("currents", '{"c2": [[0.2, 0], [Infinity, 0], [0, 0.3]]}', "'c2'"),
    ("resonance-fit", '{"n": [0, 1, NaN], "nu": [5, 4.99, 4.96]}', "'n'"),
    ("resonance-fit", '{"n": [0, 1, 2], "nu": [5, -Infinity, 4.96]}', "'nu'"),
    ("ssh-sweep", '{"u_scan": [NaN, 1, 5]}', "'u_scan'"),
    ("ssh-solve", '{"u_scan": [-1, 1e999, 5]}', "'u_scan'"),
    # an integer beyond the float range
    ("cavity-field", '{"length": 1' + "0" * 400 + '}', "'length'"),
])
def test_non_finite_list_element_exits_2(tmp_path, capsys, command, text, key):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_resonance_fit_rejects_a_non_finite_input_row(tmp_path, capsys, value):
    data = tmp_path / "data.csv"
    data.write_text(f"n,nu_n\n0,5.0\n1,{value}\n2,4.96\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"input": str(data)}))
    assert main(["resonance-fit", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, cfg, check", [
    # a nan planted in the spectrum check of the space-local scheme
    ("quantize", {"scheme": "space_local"}, ("checks", "spectrum_defect")),
])
def test_a_nan_check_fails(tmp_path, capsys, monkeypatch, command, cfg, check):
    # max() kept the first value when a later one was nan, so such a check
    # passed; strict JSON has no nan, so the run records an error naming the key
    monkeypatch.setattr(cli, "_oscillator_defects", lambda *args: (0.0, math.nan))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    reason = f"{'.'.join(check)} = nan is not a finite number, which JSON cannot hold"
    assert capsys.readouterr().err.endswith(f"error: {reason}\n")
    assert json.loads((tmp_path / "summary.json").read_text(),
                      parse_constant=pytest.fail) == {"error": reason}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e308, -1e308, 1e307])
def test_quantize_rejects_a_time_whose_phase_overflows(tmp_path, capsys, t):
    # w t is not finite: the phases exp(-i w t) were nan, with numpy warnings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"t": t, "n_modes": 30}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key 't' = {t!r} times the highest mode "
                          f"frequency") and err.count("\n") == 1
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("units", ["symmetric", "si"])
@pytest.mark.parametrize("scheme", [kind.value for kind in fq.SchemeKind])
def test_quantize_names_a_length_whose_field_overflows(tmp_path, capsys, scheme, units):
    # L = 1e-300: sqrt(hbar w / (L eps0)) overflows (in SI units w itself), and at
    # z = 0 it met sin(k z) = 0, so the hermiticity defect read nan, with numpy warnings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"length": 1e-300, "z": 0.0, "scheme": scheme, "units": units}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: config key 'length' = 1e-300 is too small for n_modes = 2: the mode "
        "frequencies or the field coefficients overflow\n")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("length, end", [(1e-300, "small"), (1e300, "large")])
@pytest.mark.parametrize("scheme", [kind.value for kind in fq.SchemeKind])
def test_quantize_names_a_length_at_either_end(tmp_path, capsys, scheme, length, end):
    # in SI units, L = 1e300 makes w ~ 1e-291, so the level spacing hbar w underflows
    # to 0: the spectrum defect read nan, with a numpy warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"length": length, "z": 0.0, "scheme": scheme, "units": "si"}))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key 'length' = {length!r} is too {end} for "
                          f"n_modes = 2: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, c1, keys", [
    ("cavity-field", [[1e308, 0.0]] + [[0.5, 0.0]] * 3, "'c1' and 'c2'"),
    ("currents", [[1e308, 0.0], [0.2, 0.0], [0.1, -0.2]], "'c1', 'c2' and 'coupling'"),
], ids=["cavity-field", "currents"])
def test_amplitudes_that_overflow_name_c1_and_c2(tmp_path, capsys, command, c1, keys):
    # the field coefficients (cavity-field) or the current's scaling amplitudes
    # (currents) overflowed: nan residuals or a charge-scale error, with numpy warnings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c1": c1}))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: config keys {keys} give coefficients "
                                       f"that are not finite: the mode amplitudes times their "
                                       f"mode weights overflow\n")
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, length, n_modes", [
    ("cavity-field", 1e-310, 4), ("currents", 5e-324, 3)], ids=["cavity-field", "currents"])
def test_a_cavity_too_short_for_its_modes_names_length(tmp_path, capsys, command, length,
                                                       n_modes):
    # the mode frequencies n pi c / L overflow: the error named 'c1' and 'c2'
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"length": length}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("an earlier run's\n")
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key 'length' = {length!r} is too small for n_modes = "
        f"{n_modes}: the mode frequencies or the field coefficients overflow\n")
    assert [(p.name, p.read_text()) for p in out.iterdir()] == \
        [("summary.json", "an earlier run's\n")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["time_local", "space_local"])
def test_quantize_keeps_a_short_cavity_whose_field_stays_finite(tmp_path, capsys, scheme):
    # at L = 1e-120 the cavity's mode weight sqrt(2 w^2 / (L eps0)) overflows, but
    # not the field coefficients of these schemes, so the length is not named
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"length": 1e-120, "z": 0.0, "scheme": scheme}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [
    # finite coefficients whose mode sums overflow: the residuals read nan
    {"c1": [[1e307, 0.0]] * 4},
    # in a longer cavity k, w < 1: the derivatives stay finite, the field does not
    {"length": 12.0, "c1": [[1.7e308, 0.0]] * 4},
], ids=["residuals", "field"])
def test_cavity_field_names_a_mode_sum_overflow(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["cavity-field", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: config keys 'c1' and 'c2' give a field "
                                       "that is not finite: the mode sum of the field or of "
                                       "its derivatives overflows\n")
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_cavity_field_keeps_a_large_finite_amplitude(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c1": [[1e307, 0.0]] + [[0.5, 0.0]] * 3}))
    assert main(["cavity-field", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_currents_names_a_charge_overflow(tmp_path, capsys):
    # |C1|^2 ~ 1e308: the products du/dt conj(u) are finite, their sum is not; the
    # small coupling keeps the current's gauge constant, coupling w^3 |C1|^2, finite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c1": [[1e154, 0.0], [0.2, 0.0], [0.1, 0.0]], "coupling": 1e-3}))
    assert main(["currents", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the charge scale") and "is inf at t = 0.0" in err
    assert "overflow" in err
    assert json.loads((tmp_path / "summary.json").read_text()) == \
        {"error": err.removeprefix("error: ").removesuffix("\n")}


@pytest.mark.parametrize("command, u_scan, message", [
    # the minimum search reads E0(0) first
    ("ssh-solve", [-0.3, 0.3, 7], "E0(u) is not finite at u = 0.0 (E0 = nan), "
                                  "so no minimum can be located"),
    # the sweep checks its columns, in the order of ground_state.csv, before it
    # seeks a minimum, and on a grid not symmetric about 0, where it seeks none
    ("ssh-sweep", [-0.3, 0.3, 7], "E0_quadrature is not finite at u = -0.3 (E0 = inf)\n"),
    ("ssh-sweep", [0, 1, 5], "E0_quadrature is not finite at u = 0.0 (E0 = nan)\n"),
], ids=["ssh-solve", "ssh-sweep", "ssh-sweep-asymmetric"])
def test_non_finite_ground_energy_exits_1(tmp_path, capsys, command, u_scan, message):
    # 2 N K overflows: E0(0) = inf * 0 is nan, which np.argmin read as a flat curve;
    # ground_energy silences the overflow, so the error line is all of stderr
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"K_spring": 1e308, "u_scan": u_scan}))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert json.loads((tmp_path / "summary.json").read_text()) == \
        {"error": err.removeprefix("error: ").removesuffix("\n")}


@pytest.mark.filterwarnings("error")
def test_ground_energy_where_zeta_overflows_names_its_u(tmp_path, capsys):
    # zeta = 2 alpha1 u Q / t0 overflows at |u| = 5e298: the run stopped there with
    # numpy's "overflow encountered in multiply", before the check that names u
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha1": 1e154, "u_scan": [-1e300, 1e300, 41]}))
    assert main(["ssh-solve", "--config", str(path), "--out", str(tmp_path)]) == 1
    message = "E0(u) is not finite at u = 5e+298 (E0 = nan), so no minimum can be located"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads((tmp_path / "summary.json").read_text()) == {"error": message}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, message", [
    # eps^2 overflows: the near-equilibrium energy (Q^2 Delta^2 - eps^2) / E is -inf
    ({"t0": 1e300}, "E_c_near_equilibrium is not finite at k = 0.0 "
                    "(E_c_near_equilibrium = -inf)"),
    # pi / 2a overflows: the k grid itself is nan
    ({"a": 1e-310}, "k is not finite at k = nan (k = nan)"),
], ids=["t0", "a"])
def test_non_finite_k_grid_exits_1(tmp_path, capsys, cfg, message):
    # ssh-solve exited 0 with passed: true, wrote the non-finite column into
    # gap_solution.csv and printed numpy warnings; it now checks the float
    # columns of the k grid in order before it writes any of them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["ssh-solve", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads((out / "summary.json").read_text()) == {"error": message}
    assert [entry.name for entry in out.iterdir()] == ["summary.json"]


# zeta 0.83, Q = 1: the k grid is finite, but gap^2 is near the float maximum
STABILITY_OVERFLOW = {"t0": 6e153, "alpha1": 2.5e154, "u_scan": [-1e-154, 1e-154, 41]}


@pytest.mark.filterwarnings("error")
def test_stability_conditions_that_overflow_exit_1(tmp_path, capsys):
    # the stability conditions square eps^2 / E - 2 gap^2 / E and scale gap^2 past
    # the float range: the run exited 0 with passed: true, printed numpy warnings
    # and wrote stability codes built from inf and nan
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(STABILITY_OVERFLOW))
    out = tmp_path / "out"
    assert main(["ssh-solve", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: overflow encountered in ") and err.count("\n") == 1
    assert json.loads((out / "summary.json").read_text()) == \
        {"error": err.removeprefix("error: ").removesuffix("\n")}
    assert [entry.name for entry in out.iterdir()] == ["summary.json"]


def test_main_leaves_the_floating_point_state_as_it_found_it(tmp_path, capsys):
    # the handlers run under errstate raising on overflow; a caller that runs
    # main round after round keeps its own state, whatever the exit
    (tmp_path / "found.json").write_text(json.dumps(STABILITY_OVERFLOW))
    (tmp_path / "huge.json").write_text(json.dumps({"c1": [[1e308, 0.0]] + [[0.5, 0.0]] * 3}))
    runs = [(["dual-invariants", "--random", "10"], 0),
            (["ssh-solve", "--config", str(tmp_path / "found.json")], 1),
            (["cavity-field", "--config", str(tmp_path / "huge.json")], 2)]
    with np.errstate(all="ignore"):
        for argv, code in runs:
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == code
            assert np.geterr() == dict.fromkeys(["divide", "over", "under", "invalid"], "ignore")
    capsys.readouterr()


@pytest.mark.parametrize("command, cfg, reason", [
    ("ssh-solve", {"t0": 1e-30}, "brentq did not converge on the elliptic residual"),
    ("ssh-solve", {"form": "reduced", "u": -0.1, "u_scan": [-0.4, 0.4, 41]}, "edge |u| = 0.4 "),
    ("ssh-sweep", {"form": "reduced", "u": -0.1, "u_scan": [-0.4, 0.4, 41]}, "edge |u| = 0.4 "),
], ids=["brentq", "well-edge-solve", "well-edge-sweep"])
def test_failed_gap_solve_prints_its_reason_to_stderr(tmp_path, capsys, command, cfg, reason):
    # as every other exit-1 path: "error: <reason>" on stderr, and the same
    # reason in summary.json
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    error = json.loads((out / "summary.json").read_text())["error"]
    assert reason in error
    assert capsys.readouterr().err == f"error: {error}\n"


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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_exit_leaves_its_one_record(tmp_path, capsys, monkeypatch, command):
    # exit 0 or 1 leaves one summary.json: passed (where there is a verdict),
    # passed false from a failed check, or the error of a run that raised;
    # exit 2 leaves none
    name, tol = COMMANDS[command].handler, COMMANDS[command].tol
    real = getattr(cli, name)
    argv = _small_argv(tmp_path, command)

    def failed_check(*args):
        summary, passed = real(*args)
        return summary, None if passed is None else False

    def raising(*args):
        real(*args)
        raise ValueError("planted after the tables")

    records = {}
    for run, handler in (("pass", real), ("check", failed_check), ("raise", raising)):
        monkeypatch.setattr(cli, name, handler)
        out = tmp_path / run
        code = main(argv + ["--out", str(out)])
        assert [p.name for p in out.rglob("summary.json")] == ["summary.json"]
        records[run] = code, json.loads((out / "summary.json").read_text())
    err = capsys.readouterr().err
    verdict = command not in ("resonance-fit", "ssh-sweep")
    code, summary = records["pass"]
    assert code == 0 and "error" not in summary
    assert summary.get("passed") is (True if verdict else None)
    assert summary.get("bound") == tol
    code, summary = records["check"]
    assert (code, summary.get("passed")) == ((1, False) if verdict else (0, None))
    assert records["raise"] == (1, {"error": "planted after the tables"})
    assert err.endswith("error: planted after the tables\n")

    # a config error: a key the subcommand does not read, or a flag it rejects
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}')
    argv = [command, "--config", str(bad)] if command in SCHEMAS else [command, "--seed", "-1"]
    assert main(argv + ["--out", str(tmp_path / "config")]) == 2
    capsys.readouterr()
    assert not (tmp_path / "config" / "summary.json").exists()


def test_a_failure_that_cannot_be_recorded_still_exits_1(tmp_path, capsys, monkeypatch):
    def fail(args, cfg, out):
        shutil.rmtree(out)
        raise OSError("planted: the output directory is gone")

    monkeypatch.setattr("duplexem.cli.cmd_cavity_field", fail)
    out = tmp_path / "out"
    assert main(["cavity-field", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: planted: the output directory is gone\n")
    assert "Traceback" not in err and not out.exists()


def test_a_run_out_of_memory_exits_1_with_its_error(tmp_path, capsys, monkeypatch):
    def fail(args, cfg, out):
        raise MemoryError("planted: unable to allocate")

    monkeypatch.setattr("duplexem.cli.cmd_quantize", fail)
    assert main(["quantize", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: planted: unable to allocate\n"
    assert json.loads((tmp_path / "summary.json").read_text()) == \
        {"error": "planted: unable to allocate"}


def test_an_integer_beyond_the_float_range_is_named_out_of_range(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for cfg, words in (({"N": -10**309}, "a positive even integer"),
                       ({"u": 10**309}, "a finite number")):
        path.write_text(json.dumps(cfg))
        assert main(["ssh-solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        key = next(iter(cfg))
        assert capsys.readouterr().err == (
            f"config error: config key {key!r} must be {words}, got an integer of 310 "
            "digits, out of the float range\n")


def test_runner_reraises_a_runtime_error_not_from_the_gap_solver(tmp_path, monkeypatch):
    def fail(args, cfg, out):
        raise RuntimeError("not a gap-solver failure")

    monkeypatch.setattr("duplexem.cli.cmd_cavity_field", fail)
    with pytest.raises(RuntimeError, match="not a gap-solver failure"):
        main(["cavity-field", "--out", str(tmp_path)])
    assert not (tmp_path / "summary.json").exists()


SRC = Path(__file__).resolve().parent.parent / "src"

# imports the command line, runs each argv of the JSON list argv[1] in turn and
# prints, as its last line, whether scipy and the gap solver are loaded after
# the bare import, then the exit code and the same two flags after each run
_FRESH_RUNS = """
import json, sys
import duplexem.cli
def loaded():
    return ["scipy" in sys.modules, "duplexem.sshliquid" in sys.modules]
print(json.dumps([loaded()] + [[duplexem.cli.main(a), *loaded()] for a in json.loads(sys.argv[1])]))
"""


def _fresh_runs(argvs, log_level=None):
    """(the probe's report, its stdout, its stderr) from a new interpreter."""
    env = {key: value for key, value in os.environ.items() if key != "DUPLEX_EM_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if log_level is not None:
        env["DUPLEX_EM_LOG"] = log_level
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUNS, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout, proc.stderr


@pytest.mark.parametrize("command, cfg, code", [
    ("cavity-field", None, 0), ("currents", None, 0), ("quantize", None, 0),
    ("dual-invariants", None, 0), ("resonance-fit", SMALL_CONFIGS["resonance-fit"], 0),
    ("cavity-field", {"nz": 0}, 2),
], ids=["cavity-field", "currents", "quantize", "dual-invariants", "resonance-fit",
        "cavity-field-config-error"])
def test_field_commands_load_neither_scipy_nor_the_gap_solver(tmp_path, command, cfg, code):
    argv = [command, "--out", str(tmp_path / "out")]
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv += ["--config", str(tmp_path / "cfg.json")]
    report, _, _ = _fresh_runs([argv])
    assert report == [[False, False], [code, False, False]]


def test_ssh_solve_loads_the_gap_solver_on_first_use(tmp_path):
    report, _, _ = _fresh_runs([["ssh-solve", "--out", str(tmp_path)]])
    assert report == [[False, False], [0, True, True]]


def test_debug_log_leaves_the_outputs_unchanged(tmp_path):
    runs = {}
    for level in (None, "DEBUG"):
        out = tmp_path / str(level)
        argvs = [["cavity-field", "--out", str(out / "cavity")],
                 ["ssh-solve", "--out", str(out / "ssh")],
                 ["verify-all", "--seed", "42", "--out", str(out / "verify")]]
        report, stdout, stderr = _fresh_runs(argvs, level)
        assert [code for code, *_ in report[1:]] == [0, 0, 0]
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs[level] = files, stdout, stderr
    assert len(runs[None][0]) == 6
    assert runs[None][:2] == runs["DEBUG"][:2]
    assert runs[None][2] == ""
    log = runs["DEBUG"][2]
    for line in ("cavity-field: exit 0 in", "ssh-solve: exit 0 in", "verify-all: exit 0 in",
                 "loaded the gap solver in", "config {'length': 1.0"):
        assert line in log, line
    assert log.count("loaded the gap solver") == 1
