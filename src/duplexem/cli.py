"""Command-line driver: every subsystem behind one executable.

Subcommands exchange JSON configs and CSV/JSON outputs meant for plotting
and regression fixtures.  Numbers are written with 17 significant digits,
'.' decimal separator, so reruns with the same seed are byte-identical.

Exit codes: 0 success, 1 validation failure (a check exceeded its bound),
2 config error.  Set DUPLEX_EM_LOG=DEBUG|INFO|... for logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cavity as cav
from . import currents as cur
from . import dualsym as ds
from . import fockquant as fq
from . import resonance as res
from . import sshliquid as ssh
from .constants import PhysicalConstants
from .elliptic import elliptic_E, elliptic_K
from .tables import write_csv as _write_csv  # the name bench/tracing.py wraps

log = logging.getLogger("duplexem")


class ConfigError(ValueError):
    pass


def _check_type(key: str, value, default) -> None:
    """ConfigError unless value has the type of default: a number that is not
    a bool for a float default, an integer for an int, a string for a string
    and a list for a list.  A null default takes any value."""
    if isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif isinstance(default, (str, list)):
        ok, want = isinstance(value, type(default)), f"a {type(default).__name__}"
    else:
        return
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")


def _load_config(path, defaults: dict) -> dict:
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            _check_type(key, value, defaults[key])
        cfg.update(data)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _constants(units: str) -> PhysicalConstants:
    if units == "symmetric":
        return PhysicalConstants.symmetric()
    if units == "si":
        return PhysicalConstants.si()
    raise ConfigError(f"unknown unit system {units!r}")


def _model_from_cfg(cfg) -> tuple:
    cst = _constants(cfg["units"])
    model = cav.CavityModel(length=float(cfg["length"]),
                            n_modes=int(cfg["n_modes"]), constants=cst)
    c1 = np.array([complex(re, im) for re, im in cfg["c1"]])
    c2 = np.array([complex(re, im) for re, im in cfg["c2"]])
    state = cav.ModeState(c1, c2)
    if state.n_modes != model.n_modes:
        raise ConfigError("c1/c2 length must equal n_modes")
    return model, state


# ---------------------------------------------------------------------------
# subcommands


def _draw_rotations(rng, count: int) -> tuple:
    """count random real field pairs as one FieldPair batch, and an angle for
    each, drawn sample by sample: normal(3), normal(3), uniform(0, 2 pi)."""
    e, h, theta = np.empty((count, 3)), np.empty((count, 3)), np.empty(count)
    for i in range(count):
        e[i] = rng.normal(size=3)
        h[i] = rng.normal(size=3)
        theta[i] = rng.uniform(0.0, 2 * math.pi)
    return ds.FieldPair(e, h), theta


def cmd_dual_invariants(args) -> int:
    count = args.random
    if count < 1:
        raise ConfigError(f"--random must be a positive sample count, got {count}")
    out = _outdir(args)
    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else 1e-12
    pairs, theta = _draw_rotations(rng, count)
    k_ref = ds.invariants(pairs).k_inv
    k_rot = ds.invariants(ds.dual_rotate(pairs, theta)).k_inv
    drift = np.abs(k_rot - k_ref) / np.maximum(np.abs(k_ref), 1e-300)
    worst = float(np.max(drift))
    _write_csv(out / "dual_invariants.csv",
               ["index", "theta", "k_reference", "k_rotated", "relative_drift"],
               [np.arange(count, dtype=float), theta, k_ref, k_rot, drift])
    _write_json(out / "summary.json", {
        "quantity": "mixing-angle invariant drift",
        "formula": "K = I1'^2 + I2'^2",
        "samples": count,
        "max_relative_drift": worst,
        "bound": tol,
        "passed": bool(worst <= tol),
    })
    log.info("dual-invariants: max drift %.3e over %d samples", worst, count)
    return 0 if worst <= tol else 1


def cmd_cavity_field(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, {
        "length": 1.0, "n_modes": 4, "units": "symmetric",
        "c1": [[0.5, 0.0]] * 4, "c2": [[0.5, 0.0]] * 4,
        "solution": "first", "theta": 0.0, "nz": 64, "nt": 64,
    })
    families = {"first": cav.FirstSolution, "second": cav.SecondSolution}
    if cfg["solution"] not in families:
        raise ConfigError(f"unknown solution {cfg['solution']!r}; "
                          f"expected 'first' or 'second'")
    model, state = _model_from_cfg(cfg)
    # relative: each residual against the largest term its equation cancels
    tol = args.tol if args.tol is not None else 1e-12
    sol = families[cfg["solution"]](model, state)
    if cfg["theta"]:
        sol = cav.RotatedSolution(sol, float(cfg["theta"]))
    z = np.linspace(0.0, model.length, int(cfg["nz"]))
    t = np.linspace(0.0, model.period, int(cfg["nt"]))
    residuals = cav.maxwell_residual(sol, z, t, model.constants)
    cav.dump_field_csv(sol, z, t, out / "field.csv")
    passed = all(r <= tol * scale for r, scale in zip(residuals, residuals.scales))
    _write_json(out / "summary.json", {
        "quantity": "generalized-equation residuals",
        "formula": "curl E + mu0 dH/dt; curl H - eps0 dE/dt; div E; div H",
        "residuals": list(residuals),
        "scales": list(residuals.scales),
        "bound": tol,
        "passed": passed,
    })
    return 0 if passed else 1


def cmd_quantize(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, {
        "length": 1.0, "n_modes": 2, "units": "symmetric",
        "dim": 8, "scheme": "time_local", "z": 0.25, "t": None,   # t: 0.1 L/c
    })
    cst = _constants(cfg["units"])
    model = cav.CavityModel(float(cfg["length"]), int(cfg["n_modes"]), cst)
    dim = int(cfg["dim"])
    tol = args.tol if args.tol is not None else 1e-12
    try:
        kind = fq.SchemeKind(cfg["scheme"])
    except ValueError as exc:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}") from exc
    scheme = fq.QuantizationScheme(kind, cst.hbar, cst.lambda0)
    z = float(cfg["z"])
    t = 0.1 * model.period if cfg["t"] is None else cfg["t"]
    _check_type("t", t, 0.0)
    t = float(t)
    if not 0.0 <= z <= model.length:
        raise ConfigError(f"config key 'z' = {z!r} lies outside the cavity [0, {model.length!r}]")
    if kind is fq.SchemeKind.SPACETIME_LOCAL and not 0.0 <= t <= model.period * (1 + 1e-12):
        raise ConfigError(f"config key 't' = {t!r} lies outside [0, L/c] = "
                          f"[0, {model.period!r}], where the space-time scheme is defined")
    field = fq.assemble_field_operators(model, scheme, dim)

    a, ad = fq.make_ladder(dim)
    comm_defect = float(np.max(np.abs(
        fq.safe_block(fq.commutator(a.entries, ad.entries)) - np.eye(dim - 1))))
    ham = fq.mode_hamiltonian_matrix(dim, scheme.action_constant
                                     if kind is not fq.SchemeKind.SPACETIME_LOCAL
                                     else cst.hbar, model.omegas[0])
    n = np.arange(dim - 1)
    target = (scheme.action_constant if kind is not fq.SchemeKind.SPACETIME_LOCAL
              else cst.hbar) * model.omegas[0] * (n + 0.5)
    spec_defect = float(np.max(np.abs(np.sort(np.diag(ham).real)[:dim - 1] - target)))
    checks = {
        "ladder_commutator_defect": comm_defect,
        "spectrum_defect": spec_defect,
        "hermiticity_defect": field.hermiticity_defect(z, t),
    }
    if kind is fq.SchemeKind.SPACETIME_LOCAL:
        checks["g_symmetrized_deviation"] = field.g_deviation(z, t)
    for idx in range(model.n_modes):
        with open(out / f"operator_e_mode{idx + 1}.json", "w") as fh:
            fq.dump_operator_json(field.e_matrix(idx, z, t), kind, idx + 1, fh)
    worst = max(checks.values())
    _write_json(out / "summary.json", {
        "quantity": "quantization checks",
        "formula": "[a, a+] = 1 (safe block); H = action * w * (n + 1/2)",
        "checks": checks,
        "bound": tol,
        "passed": bool(worst <= tol),
    })
    return 0 if worst <= tol else 1


def cmd_currents(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, {
        "length": math.pi, "n_modes": 3, "units": "symmetric",
        "c1": [[0.4, 0.1], [0.2, 0.0], [0.1, -0.2]],
        "c2": [[0.0, 0.0]] * 3,
        "nz": 48, "nt": 8, "coupling": 1.0,
    })
    model, state = _model_from_cfg(cfg)
    tol = args.tol if args.tol is not None else 1e-10
    current = cur.ClassicalFourCurrent(model, state, coupling=float(cfg["coupling"]))
    fieldset = cur.FieldFunctionSet.from_cavity(model, state)
    z = np.linspace(0.0, model.length, int(cfg["nz"]))
    t = np.linspace(0.0, model.period, int(cfg["nt"]))
    charges = [cur.noether_charge(fieldset, tj) for tj in t]  # the table's and the drift's
    per_t = [[c.q1 for c in charges], [c.q2 for c in charges],
             [cur.spirality(fieldset, tj).s4_3 for tj in t]]
    # rows are t-major: transpose the (z, t) grids before flattening
    j3 = (current.j3(z, t, 1) + 1j * current.j3(z, t, 2)).T.ravel()
    j4 = (current.j4(z, t, 1) + 1j * current.j4(z, t, 2)).T.ravel()
    _write_csv(out / "currents.csv",
               ["z", "t", "re_j3", "im_j3", "re_j4", "im_j4", "q1", "q2", "spirality"],
               [np.tile(z, t.size), np.repeat(t, z.size), j3.real, j3.imag,
                j4.real, j4.imag, *(np.repeat(col, z.size) for col in per_t)])
    cont = cur.continuity_residual(current, z, t)
    drift = cur.relative_drift(charges)
    worst = max(cont, *drift)
    _write_json(out / "summary.json", {
        "quantity": "current checks",
        "formula": "d j3/dz + d j4/dx4 = 0; dQ/dt = 0",
        "continuity_residual": cont,
        "charge_drift": list(drift),
        "bound": tol,
        "passed": bool(worst <= max(tol, 1e-8)),
    })
    return 0 if worst <= max(tol, 1e-8) else 1


def cmd_resonance_fit(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, {"input": None, "n": None, "nu": None})
    if cfg["input"]:
        ns, nus = [], []
        try:
            with open(cfg["input"]) as fh:
                for row in csv.DictReader(fh):
                    ns.append(float(row["n"]))
                    nus.append(float(row["nu_n"]))
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad input CSV: {exc}") from exc
    elif cfg["n"] is not None and cfg["nu"] is not None:
        ns, nus = cfg["n"], cfg["nu"]
    else:
        raise ConfigError("resonance-fit needs 'input' CSV or 'n'/'nu' arrays")
    nu0, a_param, residuals = res.fit_dispersion(ns, nus)
    _write_csv(out / "dispersion_fit.csv", ["n", "nu_n", "residual"],
               [np.asarray(ns, dtype=float), np.asarray(nus, dtype=float), residuals])
    _write_json(out / "summary.json", {
        "quantity": "dispersion fit",
        "formula": "nu_n = nu0 - A n^2",
        "nu0": nu0,
        "curvature": a_param,
        "max_residual": float(np.max(np.abs(residuals))),
    })
    return 0


def _u_grid(scan) -> np.ndarray:
    """The u grid of a u_scan [min, max, steps]; ConfigError on any other value."""
    if not (isinstance(scan, list) and len(scan) == 3
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in scan)
            and isinstance(scan[2], int) and scan[2] >= 1):
        raise ConfigError(f"u_scan must be [min, max, steps] with a positive integer "
                          f"steps, got {scan!r}")
    lo, hi, steps = scan
    return np.linspace(float(lo), float(hi), steps)


def _ssh_inputs(cfg) -> tuple:
    """(SshParams, Occupation) of an ssh config; ConfigError on an unknown
    occupation or form."""
    for key, allowed in (("occupation", ("ground", "inverted")), ("form", ("full", "reduced"))):
        if cfg[key] not in allowed:
            raise ConfigError(f"unknown {key} {cfg[key]!r}; expected "
                              f"{allowed[0]!r} or {allowed[1]!r}")
    params = ssh.SshParams(
        t0=float(cfg["t0"]), alpha1=float(cfg["alpha1"]),
        alpha2=float(cfg["alpha2"]), u=float(cfg["u"]),
        k_spring=float(cfg["K_spring"]), n_sites=int(cfg["N"]),
        a_lattice=float(cfg["a"]),
    )
    occ = ssh.Occupation.ground() if cfg["occupation"] == "ground" \
        else ssh.Occupation.inverted()
    return params, occ


_SSH_DEFAULTS = {
    "t0": 1.0, "alpha1": 1.0, "alpha2": 0.2, "u": 0.1,
    "K_spring": 1.0, "N": 100, "a": 1.0,
    "occupation": "ground", "u_scan": None, "form": "full",
}


def _ssh_failure(out: Path, exc: RuntimeError) -> int:
    """Record a failed solve: its message in summary.json and, when the gap
    scan found no root, the scanned residual curve; exit code 1."""
    _write_json(out / "summary.json", {"error": str(exc)})
    if isinstance(exc, ssh.GapSolverError) and exc.residual_curve is not None:
        _write_csv(out / "residual_curve.csv", ["q", "residual"], list(exc.residual_curve))
    return 1


def cmd_ssh_solve(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, dict(_SSH_DEFAULTS))
    params, occ = _ssh_inputs(cfg)
    if cfg["u_scan"] is not None:
        u_grid = _u_grid(cfg["u_scan"])
    else:
        span = 4.0 * abs(params.u) if params.u else 0.4
        u_grid = np.linspace(-span, span, 41)
    tol = args.tol if args.tol is not None else 1e-10
    try:
        sol = ssh.solve_gap(params, occ, form=cfg["form"])
    except ssh.GapSolverError as exc:
        return _ssh_failure(out, exc)
    branches = (ssh.BRANCH_NEAR_EQ, ssh.BRANCH_SSH)
    codes = [100 * c1 + 10 * c2 + c3
             for c1, c2, c3 in (sol.stable[branch] for branch in branches)]
    _write_csv(out / "gap_solution.csv",
               ["k", "alpha_k", "beta_k", "E_c_near_equilibrium", "E_c_ssh_like",
                "stability_near_equilibrium", "stability_ssh_like"],
               [sol.k_grid, sol.coeffs.alpha_k, sol.coeffs.beta_k,
                *(sol.energies[branch][0] for branch in branches), *codes])
    try:
        curve = ssh.ground_state_energy(params, sol.q, u_grid)
    except ssh.WellEdgeError as exc:
        return _ssh_failure(out, exc)
    _write_json(out / "summary.json", {
        "quantity": "self-consistent gap factor",
        "formula": "Q = 1 + coupling-sum / sqrt(eps^2 + Q^2 gap^2)",
        "q": sol.q,
        "roots": list(sol.roots),
        "residual": sol.residual,
        "regime": sol.regime,
        "z_scale": sol.zeta,
        "u0": curve.u0,
        "well_depth": curve.well_depth,
        "double_well": curve.double_well,
        "passed": bool(sol.residual <= tol),
    })
    return 0 if sol.residual <= tol else 1


def cmd_ssh_sweep(args) -> int:
    out = _outdir(args)
    cfg = _load_config(args.config, dict(_SSH_DEFAULTS))
    if cfg["u_scan"] is None:
        raise ConfigError("ssh-sweep needs u_scan: [min, max, steps]")
    params, occ = _ssh_inputs(cfg)
    u_grid = _u_grid(cfg["u_scan"])
    try:
        sol = ssh.solve_gap(params, occ, form=cfg["form"])
    except ssh.GapSolverError as exc:
        return _ssh_failure(out, exc)
    curve = ssh.GroundStateCurve(params, sol.q, u_grid)
    _write_csv(out / "ground_state.csv",
               ["u", "E0_quadrature", "E0_elliptic", "E0_smallz"],
               [u_grid, curve.e0_quadrature, curve.e0, curve.e0_smallz])
    summary = {
        "quantity": "ground-state energy sweep",
        "formula": "E0(u) = band integral + 2 N K u^2",
        "q": sol.q,
        "points": len(u_grid),
    }
    if abs(u_grid[0] + u_grid[-1]) < 1e-12:
        try:
            curve.locate_minimum()
        except ssh.WellEdgeError as exc:
            return _ssh_failure(out, exc)
        summary.update(u0=curve.u0, well_depth=curve.well_depth,
                       double_well=curve.double_well)
    _write_json(out / "summary.json", summary)
    return 0


def _verify_checks(seed: int):
    """The deterministic invariant suite behind `verify-all`."""
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, value, bound):
        checks.append((name, float(value), float(bound), value <= bound))

    # circular invariant drift + quarter-turn exactness
    pairs, theta = _draw_rotations(rng, 300)
    k_ref = ds.invariants(pairs).k_inv
    k_rot = ds.invariants(ds.dual_rotate(pairs, theta)).k_inv
    add("circular_invariant_drift",
        np.max(np.abs(k_rot - k_ref) / np.maximum(np.abs(k_ref), 1e-300)), 1e-12)
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    g = ds.dual_rotate(f, 0.5 * math.pi)
    add("quarter_turn_exchange",
        float(np.max(np.abs(g.e - f.h)) + np.max(np.abs(g.h + f.e))), 1e-15)

    # hyperbolic ratio invariant
    worst = 0.0
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    w_ref = ds.invariants(f).w
    for _ in range(100):
        vt = rng.uniform(-2, 2)
        w_new = ds.invariants(ds.hyperbolic_dual(f, vt)).w
        worst = max(worst, abs(complex(w_new) - complex(w_ref)) / abs(complex(w_ref)))
    add("hyperbolic_ratio_drift", worst, 1e-12)

    # boost magnitudes vs rapidity mixing
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        f = ds.FieldPair(np.array([1.2, 0, 0]), np.array([0, 0.7, 0]))
        gamma = 1 / math.sqrt(1 - beta**2)
        em, hm = ds.hyperbolic_boost_magnitudes(f, math.atanh(beta),
                                                (1, 0, 0), (0, 1, 0))
        worst = max(worst, abs(em - gamma * (1.2 + beta * 0.7)),
                    abs(hm - gamma * (0.7 - beta * 1.2)))
    add("boost_magnitude_match", worst, 1e-12)

    # cavity residuals
    cst = PhysicalConstants.symmetric()
    model = cav.CavityModel(1.0, 8, cst)
    state = cav.ModeState(0.3 * (rng.normal(size=8) + 1j * rng.normal(size=8)),
                          0.3 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
    z = np.linspace(0, 1, 64)
    t = np.linspace(0, model.period, 64)
    for name, sol in (("first_solution", cav.FirstSolution(model, state)),
                      ("second_solution", cav.SecondSolution(model, state)),
                      ("rotated_solution",
                       cav.RotatedSolution(cav.FirstSolution(model, state), 0.7))):
        add(f"maxwell_residual_{name}",
            max(cav.maxwell_residual(sol, z, t, cst)), 1e-10)

    # quantization
    a, ad = fq.make_ladder(8)
    add("ladder_commutator", float(np.max(np.abs(
        fq.safe_block(fq.commutator(a.entries, ad.entries)) - np.eye(7)))), 1e-14)
    ham = fq.mode_hamiltonian_matrix(8, cst.hbar, model.omegas[0])
    target = cst.hbar * model.omegas[0] * (np.arange(7) + 0.5)
    add("oscillator_spectrum", float(np.max(np.abs(np.diag(ham).real[:7] - target))),
        1e-12)
    ops = fq.spacetime_local_operators(model, 8, 0.3, 0.2)
    add("symmetrized_g_deviation", max(o["g_deviation"] for o in ops), 1e-12)
    add("trig_ansatz_rejected",
        0.0 if not fq.trig_ansatz_consistency(8, model.omegas[0],
                                              [0.05, 0.2])["consistent"] else 1.0,
        0.5)

    # currents
    cur_model = cav.CavityModel(math.pi, 4, cst)
    cur_state = cav.ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                              0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)))
    current = cur.ClassicalFourCurrent(cur_model, cur_state)
    zc = np.linspace(0, cur_model.length, 48)
    tc = np.linspace(0, cur_model.period, 8)
    add("classical_continuity", cur.continuity_residual(current, zc, tc), 1e-10)
    qcur = cur.quantized_current(cur_model, 8)
    add("operator_continuity", qcur.continuity_residual(0.4, 0.3), 1e-10)
    rot_state = cav.ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                              np.zeros(4))
    fieldset = cur.FieldFunctionSet.from_cavity(cur_model, rot_state)
    times = np.linspace(0, 2 * math.pi / cur_model.omegas[0], 33)
    add("charge_drift", max(cur.charge_drift(fieldset, times)), 1e-8)

    # resonance
    p = res.ResonanceParams(gamma_e=1.0, spin=0.5, tau=2.0, e1=1.0,
                            nu0=5.0, a_param=0.01)
    add("even_mode_amplitude", abs(res.mode_amplitude(p, 2, 1.0)), 0.0)
    r1 = abs(res.mode_amplitude(p, 1, 2 * math.pi * res.dispersion(p, 1)))
    r3 = abs(res.mode_amplitude(p, 3, 2 * math.pi * res.dispersion(p, 3)))
    add("amplitude_ratio_1_3", abs(r1 / r3 - 3.0), 1e-12)
    ns = np.arange(0, 7)
    nus = [res.dispersion(p, n) for n in ns]
    nu0_fit, a_fit, _ = res.fit_dispersion(ns, nus)
    add("dispersion_fit_recovery",
        max(abs(nu0_fit - p.nu0), abs(a_fit - p.a_param)), 1e-10)

    # gap solver
    params = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=0.0, u=0.1, n_sites=100)
    add("gap_factor_free_limit", abs(ssh.solve_gap(params).q - 1.0), 1e-10)
    worst = 0.0
    for _ in range(5):
        p2 = ssh.SshParams(
            t0=rng.uniform(0.5, 2), alpha1=rng.uniform(0.3, 2),
            alpha2=rng.choice([-1, 1]) * rng.uniform(0.01, 0.5),
            u=rng.choice([-1, 1]) * rng.uniform(0.01, 0.3),
            n_sites=int(rng.integers(25, 100)) * 2)
        worst = max(worst, abs(ssh.solve_gap(p2, method="elliptic").q
                               - ssh.solve_gap(p2, method="quadrature").q))
    add("gap_method_agreement", worst, 1e-8)
    n_sites, a2 = 100, 0.08
    exact = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=a2, u=-2.0 / (n_sites * a2),
                          n_sites=n_sites)
    sol = ssh.solve_gap(exact, form="reduced")
    add("gap_exact_case", abs(max(sol.roots) - n_sites * a2 / 4.0), 1e-10)

    # ground state
    params = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=0.1, u=0.1,
                           n_sites=100, k_spring=2.0)
    ug = np.linspace(-0.3, 0.3, 25)
    curve = ssh.GroundStateCurve(params, 1.0, ug)
    add("ground_state_symmetry", float(np.max(np.abs(curve.e0 - curve.e0[::-1]))),
        1e-12 * float(np.max(np.abs(curve.e0))))
    add("ground_state_route_agreement",
        float(np.max(np.abs(curve.e0 - curve.e0_quadrature))), 1e-8)

    # special functions
    add("elliptic_first_at_zero", abs(elliptic_K(0.0) - 0.5 * math.pi), 1e-15)
    add("elliptic_second_at_one", abs(elliptic_E(1.0) - 1.0), 0.0)
    add("elliptic_first_lemniscatic",
        abs(elliptic_K(1 / math.sqrt(2)) - 1.8540746773013719), 1e-13)
    return checks


def cmd_verify_all(args) -> int:
    out = _outdir(args)
    checks = _verify_checks(args.seed)
    names, values, bounds, oks = zip(*checks)
    _write_csv(out / "verify.csv", ["check", "value", "bound", "status"],
               [names, values, bounds, ["pass" if ok else "FAIL" for ok in oks]])
    _write_json(out / "summary.json", {
        "seed": args.seed,
        "checks": {name: {"value": value, "bound": bound, "passed": bool(ok)}
                   for name, value, bound, ok in checks},
        "passed": bool(all(ok for *_, ok in checks)),
    })
    width = max(len(name) for name, *_ in checks)
    for name, value, bound, ok in checks:
        print(f"{name:<{width}}  {value:12.3e}  <= {bound:8.1e}  "
              f"{'pass' if ok else 'FAIL'}")
    n_fail = sum(not ok for *_, ok in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplexem",
        description="dually-symmetric field toolkit: invariants, cavity modes, "
                    "quantization, currents, resonance fits, gap solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance")

    p = sub.add_parser("dual-invariants", help="invariant drift over random fields")
    common(p)
    p.add_argument("--random", type=int, default=1000, help="number of samples")
    p.set_defaults(func=cmd_dual_invariants)

    for name, fn, desc in (
        ("cavity-field", cmd_cavity_field, "cavity solutions and residuals"),
        ("quantize", cmd_quantize, "ladder operators and scheme checks"),
        ("currents", cmd_currents, "4-currents, charges, spirality"),
        ("resonance-fit", cmd_resonance_fit, "dispersion-law fit"),
        ("ssh-solve", cmd_ssh_solve, "self-consistent gap factor"),
        ("ssh-sweep", cmd_ssh_sweep, "ground-state energy sweep"),
        ("verify-all", cmd_verify_all, "run the full invariant suite"),
    ):
        p = sub.add_parser(name, help=desc)
        common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DUPLEX_EM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"config error: DUPLEX_EM_LOG={level!r} is not a logging level; expected "
              "DEBUG, INFO, WARNING, ERROR or CRITICAL", file=sys.stderr)
        return 2
    logging.basicConfig(level=level)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
