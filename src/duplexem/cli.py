"""Command-line driver: every subsystem behind one executable.

Subcommands exchange JSON configs and CSV/JSON outputs meant for plotting
and regression fixtures.  Numbers are written with 17 significant digits,
'.' decimal separator, so reruns with the same seed are byte-identical.

Exit codes: 0 success, 1 a check exceeded its bound (summary.json holds
passed: false) or the run failed (summary.json holds the error), 2 config
error (nothing written).  Set DUPLEX_EM_LOG=DEBUG|INFO|... for logging
verbosity.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import functools
import importlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cavity as cav
from . import currents as cur
from . import dualsym as ds
from . import fockquant as fq
from . import resonance as res
from .constants import PhysicalConstants
from .elliptic import elliptic_E, elliptic_K
from .tables import write_csv as _write_csv  # the name bench/tracing.py wraps

log = logging.getLogger("duplexem")


class _StderrHandler(logging.Handler):
    """Writes each record to sys.stderr as it is at that moment, so a caller
    that redirects stderr between runs gets the records of each run."""

    def emit(self, record):
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:
            self.handleError(record)


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter(logging.BASIC_FORMAT))

# the gap solver, imported by the commands that solve a gap: it alone loads scipy
_GAP_SOLVER = f"{__package__}.sshliquid"


def _gap_solver():
    """The module sshliquid, imported on first use (the load time logged at DEBUG)."""
    if _GAP_SOLVER not in sys.modules:
        began = time.perf_counter()
        importlib.import_module(_GAP_SOLVER)
        log.debug("loaded the gap solver in %.3f s", time.perf_counter() - began)
    return sys.modules[_GAP_SOLVER]


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key: its default, the words naming the values it takes, a
    test of its range or choices, and its JSON type when the default is null
    (otherwise the type is the default's)."""

    default: object
    words: str = ""
    test: Callable = None
    kind: type = None


_TYPE_WORDS = {float: "a finite number", int: "an integer", str: "a string", list: "a list"}


def _has_type(value, kind: type) -> bool:
    """Whether a JSON value has type kind: a float key takes any finite number
    (json reads NaN, Infinity and 1e999 as floats), an int key an integer;
    neither takes a bool or an integer beyond the float range."""
    if isinstance(value, bool):
        return False
    if kind in (int, float):
        return isinstance(value, (int, kind)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _one_of(*names) -> tuple:
    return " or ".join(map(repr, names)), names.__contains__


_POSITIVE = ("a positive finite number", lambda v: v > 0)
_COUNT = ("an integer, at least 1", lambda v: _has_type(v, int) and v >= 1)
_NUMBERS = ("a list of finite numbers", lambda v: all(_has_type(x, float) for x in v))
_PAIRS = ("a list of [re, im] finite number pairs",
          lambda v: all(isinstance(p, list) and len(p) == 2 and _NUMBERS[1](p) for p in v))


def _cavity_keys(length: float, n_modes: int, **keys) -> dict:
    return {"length": Key(length, *_POSITIVE), "n_modes": Key(n_modes, *_COUNT),
            "units": Key("symmetric", *_one_of("symmetric", "si")), **keys}


_SSH_KEYS = {
    "t0": Key(1.0, *_POSITIVE), "alpha1": Key(1.0, "a nonzero finite number", lambda v: v != 0),
    "alpha2": Key(0.2), "u": Key(0.1), "K_spring": Key(1.0),
    "N": Key(100, "a positive even integer", lambda v: v > 0 and v % 2 == 0),
    "a": Key(1.0, *_POSITIVE),
    "occupation": Key("ground", *_one_of("ground", "inverted")),
    "u_scan": Key(None, "[min, max, steps] with finite min and max and a positive "
                        "integer steps",
                  lambda v: len(v) == 3 and _NUMBERS[1](v[:2]) and _COUNT[1](v[2]), list),
    "form": Key("full", *_one_of("full", "reduced")),
}

# every config key of every subcommand that reads a config file
SCHEMAS = {
    "cavity-field": _cavity_keys(
        1.0, 4, c1=Key([[0.5, 0.0]] * 4, *_PAIRS), c2=Key([[0.5, 0.0]] * 4, *_PAIRS),
        solution=Key("first", *_one_of("first", "second")), theta=Key(0.0),
        nz=Key(64, *_COUNT), nt=Key(64, *_COUNT)),
    "quantize": _cavity_keys(
        1.0, 2, dim=Key(8, "an integer, at least 2", lambda v: v >= 2),
        scheme=Key("time_local", *_one_of(*(kind.value for kind in fq.SchemeKind))),
        z=Key(0.25), t=Key(None, kind=float)),   # t: 0.1 L/c
    "currents": _cavity_keys(
        math.pi, 3, c1=Key([[0.4, 0.1], [0.2, 0.0], [0.1, -0.2]], *_PAIRS),
        c2=Key([[0.2, -0.1], [0.1, 0.0], [0.0, 0.3]], *_PAIRS),  # C1 C2* != 0: tests continuity
        nz=Key(48, *_COUNT), nt=Key(8, *_COUNT), coupling=Key(1.0)),
    "resonance-fit": {"input": Key(None, kind=str), "n": Key(None, *_NUMBERS, list),
                      "nu": Key(None, *_NUMBERS, list)},
    "ssh-solve": _SSH_KEYS,
    "ssh-sweep": _SSH_KEYS,
}


def _load_config(path, schema: dict) -> dict:
    """The defaults of schema, overridden by the JSON object at path; a number
    key comes back as a float.  ConfigError naming the key on an unknown key
    or on a value of the wrong JSON type or outside the key's range or
    choices; null is a value only of a key whose default is null."""
    cfg = {key: spec.default for key, spec in schema.items()}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:   # ValueError: bad JSON, or bad UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            spec = schema[key]
            kind = spec.kind or type(spec.default)
            if value is None and spec.default is None:
                continue
            if not (_has_type(value, kind) and (spec.test is None or spec.test(value))):
                got = repr(value)
                if type(value) is int and abs(value) > sys.float_info.max:
                    got = f"an integer of {len(got.lstrip('-'))} digits, out of the float range"
                raise ConfigError(f"config key {key!r} must be "
                                  f"{spec.words or _TYPE_WORDS[kind]}, got {got}")
            cfg[key] = float(value) if kind is float else value
    return cfg


def _make_outdir(out: Path):
    """Create out, or a ConfigError; whether this process may create files in
    it is read from its permissions, so no probe file is written and removed."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK | os.X_OK,
                         effective_ids=os.access in os.supports_effective_ids):
            raise PermissionError(f"no permission to create files in {out}")
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc


def _non_finite(value, key=""):
    """(key path, value) of each number in a JSON payload that is not finite."""
    if isinstance(value, dict):
        return [bad for name, item in value.items()
                for bad in _non_finite(item, f"{key}.{name}" if key else name)]
    if isinstance(value, (list, tuple)):
        return [bad for i, item in enumerate(value) for bad in _non_finite(item, f"{key}[{i}]")]
    return [(key, float(value))] if isinstance(value, float) and not math.isfinite(value) else []


def _write_json(path, payload):
    """Write payload as JSON; a ValueError naming the key path of a number that
    is not finite (strict JSON has no NaN or Infinity), before the file opens."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        key, value = _non_finite(payload)[0]
        raise ValueError(f"{key} = {value!r} is not a finite number, which JSON "
                         f"cannot hold") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _cavity_model(cfg) -> cav.CavityModel:
    cst = PhysicalConstants.si() if cfg["units"] == "si" else PhysicalConstants.symmetric()
    return cav.CavityModel(cfg["length"], cfg["n_modes"], cst)


def _coarse_grid(exc: cav.SamplingError, cfg) -> ConfigError:
    """The config error of a sample grid too coarse for n_modes, naming its key."""
    key = f"n{exc.axis}"
    return ConfigError(f"config key {key!r} = {cfg[key]!r} is too coarse for n_modes = "
                       f"{cfg['n_modes']}: it needs at least {exc.minimum} points")


def _finite_coefficients(keys: str, *coeffs):
    """ConfigError naming keys if a coefficient built from their values is not finite."""
    if not all(np.isfinite(c).all() for c in coeffs):
        raise ConfigError(f"config keys {keys} give coefficients that are not finite: the "
                          f"mode amplitudes times their mode weights overflow")


def _model_from_cfg(cfg) -> tuple:
    if not len(cfg["c1"]) == len(cfg["c2"]) == cfg["n_modes"]:
        raise ConfigError(f"config keys 'c1' and 'c2' must hold n_modes = {cfg['n_modes']} "
                          f"pairs each, got {len(cfg['c1'])} and {len(cfg['c2'])}")
    c1 = np.array([complex(re, im) for re, im in cfg["c1"]])
    c2 = np.array([complex(re, im) for re, im in cfg["c2"]])
    return _cavity_model(cfg), cav.ModeState(c1, c2)


# ---------------------------------------------------------------------------
# subcommands


def _rotation_drift(rng, count: int) -> tuple:
    """(theta, K before, K after, relative drift of K) for count random real
    field pairs, each dual-rotated by its own angle; drawn sample by sample,
    in place: six standard normals for E then H, then theta = 2 pi random(),
    the doubles of normal(size=6) and uniform(0, 2 pi).  normal returns
    0 + 1 x, so a -0.0 draw comes out +0.0; the one add of 0.0 does the same."""
    eh, theta = np.empty((count, 6)), np.empty(count)
    for i, row in enumerate(eh):
        rng.standard_normal(out=row)
        theta[i] = 2 * math.pi * rng.random()
    eh += 0.0
    pairs = ds.FieldPair(eh[:, :3], eh[:, 3:])
    k_ref = ds.invariants(pairs).k_inv
    k_rot = ds.invariants(ds.dual_rotate(pairs, theta)).k_inv
    return theta, k_ref, k_rot, np.abs(k_rot - k_ref) / np.maximum(np.abs(k_ref), 1e-300)


def _oscillator_defects(dim: int, action: float, omega: float) -> tuple:
    """(ladder, spectrum) defects of the dim-level truncated oscillator:
    max |[a, a+] - 1| on the safe block, and the lowest dim - 1 eigenvalues
    of the Hamiltonian against those of action * omega * (a+ a + 1/2), in
    units of the level spacing action * omega, so in any unit system."""
    a, ad = fq.make_ladder(dim)
    comm = np.max(np.abs(fq.safe_block(fq.commutator(a, ad)) - np.eye(dim - 1)))
    levels = np.linalg.eigvalsh(fq.mode_hamiltonian_matrix(dim, action, omega))
    target = np.linalg.eigvalsh(action * omega * (ad @ a + 0.5 * np.eye(dim)))
    spectrum = np.max(np.abs(levels[:dim - 1] - target[:dim - 1])) / (action * omega)
    return float(comm), float(spectrum)


def cmd_dual_invariants(args, cfg, out: Path) -> tuple:
    count = args.random
    rng = np.random.default_rng(args.seed)
    theta, k_ref, k_rot, drift = _rotation_drift(rng, count)
    worst = float(np.max(drift))
    _write_csv(out / "dual_invariants.csv",
               ["index", "theta", "k_reference", "k_rotated", "relative_drift"],
               [np.arange(count, dtype=float), theta, k_ref, k_rot, drift])
    log.info("dual-invariants: max drift %.3e over %d samples", worst, count)
    return {
        "quantity": "mixing-angle invariant drift",
        "formula": "K = I1'^2 + I2'^2",
        "samples": count,
        "max_relative_drift": worst,
    }, worst <= args.tol


def cmd_cavity_field(args, cfg, out: Path) -> tuple:
    model, state = _model_from_cfg(cfg)
    family = cav.FirstSolution if cfg["solution"] == "first" else cav.SecondSolution
    with np.errstate(all="ignore"):   # an overflow is named below, with no warning
        sol = family(model, state)
        if cfg["theta"]:
            sol = sol.rotated(cfg["theta"])
    _finite_coefficients("'c1' and 'c2'", sol.coeffs)
    z = np.linspace(0.0, model.length, cfg["nz"])
    t = np.linspace(0.0, model.period, cfg["nt"])
    try:
        with np.errstate(all="ignore"):   # an overflow is named below, with no warning
            residuals = cav.maxwell_residual(sol, z, t, model.constants)
        if not np.isfinite([*residuals, *residuals.scales]).all():
            raise OverflowError("a residual is not finite")
        cav.dump_field_csv(sol, z, t, out / "field.csv")   # writes no non-finite sample
    except OverflowError as exc:
        raise ConfigError("config keys 'c1' and 'c2' give a field that is not finite: the mode "
                          "sum of the field or of its derivatives overflows") from exc
    # relative: each residual against the largest term its equation cancels
    passed = all(r <= args.tol * scale for r, scale in zip(residuals, residuals.scales))
    return {
        "quantity": "generalized-equation residuals",
        "formula": "curl E + mu0 dH/dt; curl H - eps0 dE/dt; div E; div H",
        "residuals": list(residuals),
        "scales": list(residuals.scales),
    }, passed


def cmd_quantize(args, cfg, out: Path) -> tuple:
    model = _cavity_model(cfg)
    dim, z = cfg["dim"], cfg["z"]
    kind = fq.SchemeKind(cfg["scheme"])
    t = 0.1 * model.period if cfg["t"] is None else cfg["t"]
    if not 0.0 <= z <= model.length:
        raise ConfigError(f"config key 'z' = {z!r} lies outside the cavity [0, {model.length!r}]")
    # a length so small that the mode frequencies or the field coefficients
    # overflow, or so large that the level spacing underflows, is named once the
    # field is built, with no warning before
    with np.errstate(all="ignore"):
        w_top = float(model.omegas[-1])
        if cfg["t"] is not None and math.isfinite(w_top) and not math.isfinite(w_top * t):
            raise ConfigError(f"config key 't' = {t!r} times the highest mode frequency "
                              f"{w_top!r} is not finite, so the phase exp(-i w t) is not "
                              f"defined")
        if kind is fq.SchemeKind.SPACETIME_LOCAL:
            if not 0.0 <= t <= model.period * (1 + 1e-12):
                raise ConfigError(f"config key 't' = {t!r} lies outside [0, L/c] = [0, "
                                  f"{model.period!r}], where the space-time scheme is defined")
            if dim < 3:
                raise ConfigError(f"config key 'dim' = {dim!r} must be at least 3 "
                                  f"for the space-time scheme")
        field = fq.OperatorField(model, kind, dim, z, t)
        hermiticity = field.hermiticity_defect()   # finite only where every entry is
        w_low = float(model.omegas[0])
        spacing = field.action * w_low   # the unit of the spectrum defect
    if not (math.isfinite(hermiticity) and sys.float_info.min <= spacing < math.inf):
        end, cause = (("large", "the level spacing or the ladder normalization underflows")
                      if w_low < 1.0 else
                      ("small", "the mode frequencies or the field coefficients overflow"))
        raise ConfigError(f"config key 'length' = {model.length!r} is too {end} for n_modes = "
                          f"{model.n_modes}: {cause}")
    comm_defect, spec_defect = _oscillator_defects(dim, field.action, w_low)
    checks = {
        "ladder_commutator_defect": comm_defect,
        "spectrum_defect": spec_defect,
        "hermiticity_defect": hermiticity,
    }
    if field.g_deviation is not None:
        checks["g_symmetrized_deviation"] = field.g_deviation
    for idx in range(model.n_modes):
        with open(out / f"operator_e_mode{idx + 1}.json", "w") as fh:
            fq.dump_operator_json(field.e_matrix(idx), kind, idx + 1, fh)
    return {
        "quantity": "quantization checks",
        "formula": "[a, a+] = 1 (safe block); H = action * w * (n + 1/2)",
        "checks": checks,
    }, all(v <= args.tol for v in checks.values())


def cmd_currents(args, cfg, out: Path) -> tuple:
    model, state = _model_from_cfg(cfg)
    with np.errstate(all="ignore"):   # an overflow is named below, with no warning
        current = cur.ClassicalFourCurrent(model, state, coupling=cfg["coupling"])
        field, c = cur.charge_field(model, state), model.constants.c
    _finite_coefficients("'c1', 'c2' and 'coupling'", current.coeffs, current.j4_constants[0],
                         field.coeffs)
    z = np.linspace(0.0, model.length, cfg["nz"])
    t = np.linspace(0.0, model.period, cfg["nt"])
    cont = cur.continuity_residual(current, z, t)
    charge = cur.noether_charge(field, c, t)   # the table's and the drift's
    per_t = [charge.q1, charge.q2, cur.spirality(field, c, t)]
    # rows are t-major: transpose the (z, t) grids before flattening
    j3 = (current.j3(z, t, 1) + 1j * current.j3(z, t, 2)).T.ravel()
    j4 = (current.j4(z, t, 1) + 1j * current.j4(z, t, 2)).T.ravel()
    _write_csv(out / "currents.csv",
               ["z", "t", "re_j3", "im_j3", "re_j4", "im_j4", "q1", "q2", "spirality"],
               [np.tile(z, t.size), np.repeat(t, z.size), j3.real, j3.imag,
                j4.real, j4.imag, *(np.repeat(col, z.size) for col in per_t)])
    drift = cur.relative_drift(charge)
    return {
        "quantity": "current checks",
        "formula": "d j3/dz + d j4/dx4 = 0; dQ/dt = 0",
        "continuity_residual": cont,
        "charge_drift": list(drift),
    }, all(v <= args.tol for v in (cont, *drift))


def cmd_resonance_fit(args, cfg, out: Path) -> tuple:
    if cfg["input"]:
        ns, nus = [], []
        try:
            with open(cfg["input"]) as fh:
                for row in csv.DictReader(fh):
                    ns.append(float(row["n"]))
                    nus.append(float(row["nu_n"]))
                    if not (math.isfinite(ns[-1]) and math.isfinite(nus[-1])):
                        raise ValueError(f"row {row!r} holds a non-finite number")
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad input CSV: {exc}") from exc
    else:
        ns, nus = cfg["n"] or [], cfg["nu"] or []
    if len(ns) != len(nus) or len(ns) < 2:
        raise ConfigError(f"resonance-fit needs an 'input' CSV or 'n' and 'nu' lists of "
                          f"equal length, at least 2; got {len(ns)} and {len(nus)} values")
    nu0, a_param, residuals = res.fit_dispersion(ns, nus)
    _write_csv(out / "dispersion_fit.csv", ["n", "nu_n", "residual"],
               [np.asarray(ns, dtype=float), np.asarray(nus, dtype=float), residuals])
    return {
        "quantity": "dispersion fit",
        "formula": "nu_n = nu0 - A n^2",
        "nu0": nu0,
        "curvature": a_param,
        "max_residual": float(np.max(np.abs(residuals))),
    }, None


def _solve_ssh(cfg) -> tuple:
    """(SshParams, Occupation, gap solution) of an ssh config; GapSolverError if no root."""
    ssh = _gap_solver()
    params = ssh.SshParams(
        t0=cfg["t0"], alpha1=cfg["alpha1"], alpha2=cfg["alpha2"], u=cfg["u"],
        k_spring=cfg["K_spring"], n_sites=cfg["N"], a_lattice=cfg["a"],
    )
    occ = ssh.Occupation.ground() if cfg["occupation"] == "ground" \
        else ssh.Occupation.inverted()
    return params, occ, ssh.solve_gap(params, occ, form=cfg["form"])


def cmd_ssh_solve(args, cfg, out: Path) -> tuple:
    ssh = _gap_solver()
    if cfg["u_scan"] is not None:
        u_grid = np.linspace(*cfg["u_scan"])
        if not ssh.symmetric_about_zero(u_grid):
            raise ConfigError(f"config key 'u_scan' = {cfg['u_scan']!r} must give a grid "
                              f"symmetric about 0, on which ssh-solve locates the minimum")
    else:
        span = 4.0 * abs(cfg["u"]) if cfg["u"] else 0.4
        u_grid = np.linspace(-span, span, 41)
    params, occ, sol = _solve_ssh(cfg)
    # the quasiparticle table at the primary root, on 201 points of [0, pi / 2a]
    k = np.linspace(0.0, 0.5 * math.pi / params.a_lattice, 201)
    alpha, beta, _ = ssh.bogoliubov_coeffs(params, sol.q, k)
    branches = (ssh.BRANCH_NEAR_EQ, ssh.BRANCH_SSH)
    codes = [100 * c1 + 10 * c2 + c3 for c1, c2, c3 in
             (ssh.stability_classify(params, sol.q, k, occ, branch) for branch in branches)]
    _write_csv(out / "gap_solution.csv",
               ["k", "alpha_k", "beta_k", "E_c_near_equilibrium", "E_c_ssh_like",
                "stability_near_equilibrium", "stability_ssh_like"],
               [k, alpha, beta,
                *(ssh.band_energies(params, sol.q, k, branch)[0] for branch in branches),
                *codes])
    well = ssh.ground_state_energy(params, sol.q, u_grid)
    return {
        "quantity": "self-consistent gap factor",
        "formula": "Q = 1 + coupling-sum / sqrt(eps^2 + Q^2 gap^2)",
        "q": sol.q,
        "roots": list(sol.roots),
        "residual": sol.residual,
        "regime": sol.regime,
        "z_scale": sol.zeta,
        "u0": well.u0,
        "well_depth": well.well_depth,
        "double_well": well.double_well,
    }, sol.residual <= args.tol


def cmd_ssh_sweep(args, cfg, out: Path) -> tuple:
    ssh = _gap_solver()
    if cfg["u_scan"] is None:
        raise ConfigError("ssh-sweep needs u_scan: [min, max, steps]")
    u_grid = np.linspace(*cfg["u_scan"])
    params, _, sol = _solve_ssh(cfg)
    names = ["E0_quadrature", "E0_elliptic", "E0_smallz"]
    columns = [ssh.energy_curve(ssh.ground_energy, params, sol.q, u_grid, "quadrature"),
               ssh.energy_curve(ssh.ground_energy, params, sol.q, u_grid, "elliptic"),
               ssh.energy_curve(ssh.ground_energy_smallz, params, sol.q, u_grid)]
    _write_csv(out / "ground_state.csv", ["u", *names], [u_grid, *columns])
    for name, e0 in zip(names, columns):
        ssh._check_finite(u_grid, e0, name)
    summary = {
        "quantity": "ground-state energy sweep",
        "formula": "E0(u) = band integral + 2 N K u^2",
        "q": sol.q,
        "points": len(u_grid),
    }
    if ssh.symmetric_about_zero(u_grid):
        well = ssh.locate_minimum(params, sol.q, u_grid, columns[1])
        summary.update(u0=well.u0, well_depth=well.well_depth, double_well=well.double_well)
    return summary, None


def _verify_checks(seed: int):
    """The deterministic invariant suite behind `verify-all`."""
    ssh = _gap_solver()
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, value, bound):
        checks.append((name, float(value), float(bound), value <= bound))

    # circular invariant drift + quarter-turn exactness
    add("circular_invariant_drift", np.max(_rotation_drift(rng, 300)[3]), 1e-12)
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    g = ds.dual_rotate(f, 0.5 * math.pi)
    add("quarter_turn_exchange",
        float(np.max(np.abs(g.e - f.h)) + np.max(np.abs(g.h + f.e))), 1e-15)

    # hyperbolic invariance: C' = e^{2 vt} C exactly, so the ratio W = Re C / Im C
    # holds; compared through C, against the size of the terms that form C'
    worst = 0.0
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    c_ref = ds.complex_invariant(f)
    size = f.six_vector_norm() ** 2
    vts = rng.uniform(-2, 2, size=100)
    rows = ds.FieldPair(np.tile(f.e, (100, 1)), np.tile(f.h, (100, 1)))
    c_mixed = ds.complex_invariant(ds.hyperbolic_dual(rows, vts)).tolist()
    for vt, c_inv in zip(vts.tolist(), c_mixed):
        shrink = math.exp(-2 * vt)
        worst = max(worst, abs(c_inv * shrink - c_ref) / (size * math.cosh(2 * vt) * shrink))
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
                      ("rotated_solution", cav.FirstSolution(model, state).rotated(0.7))):
        residuals = cav.maxwell_residual(sol, z, t, cst)
        add(f"maxwell_residual_{name}",
            max(r / scale for r, scale in zip(residuals, residuals.scales)), 1e-10)

    # quantization
    comm_defect, spec_defect = _oscillator_defects(8, cst.hbar, model.omegas[0])
    add("ladder_commutator", comm_defect, 1e-14)
    add("oscillator_spectrum", spec_defect, 1e-12)
    add("symmetrized_g_deviation", np.max(fq.spacetime_g_deviation(model, 8, 0.3, 0.2)), 1e-12)
    mismatch = fq.trig_ansatz_consistency(8, model.omegas[0], [0.05, 0.2])
    add("trig_ansatz_rejected", 1.0 if mismatch == 0.0 else 0.0, 0.5)

    # currents
    cur_model = cav.CavityModel(math.pi, 4, cst)
    cur_state = cav.ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                              0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)))
    current = cur.ClassicalFourCurrent(cur_model, cur_state)
    zc = np.linspace(0, cur_model.length, 48)
    tc = np.linspace(0, cur_model.period, 8)
    add("classical_continuity", cur.continuity_residual(current, zc, tc), 1e-10)
    qcur = cur.QuantizedFourCurrent(cur_model, 8)
    add("operator_continuity", cur.continuity_residual(qcur, 0.4, 0.3), 1e-10)
    rot_state = cav.ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                              np.zeros(4))
    times = np.linspace(0, 2 * math.pi / cur_model.omegas[0], 33)
    add("charge_drift",
        max(cur.charge_drift(cur.charge_field(cur_model, rot_state), cst.c, times)), 1e-8)

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
    e0 = ssh.energy_curve(ssh.ground_energy, params, 1.0, ug, "elliptic")
    add("ground_state_symmetry", float(np.max(np.abs(e0 - e0[::-1]))),
        1e-12 * float(np.max(np.abs(e0))))
    add("ground_state_route_agreement", float(np.max(np.abs(
        e0 - ssh.energy_curve(ssh.ground_energy, params, 1.0, ug, "quadrature")))), 1e-8)

    # special functions
    add("elliptic_first_at_zero", abs(elliptic_K(0.0) - 0.5 * math.pi), 1e-15)
    add("elliptic_second_at_one", abs(elliptic_E(1.0) - 1.0), 0.0)
    add("elliptic_first_lemniscatic",
        abs(elliptic_K(1 / math.sqrt(2)) - 1.8540746773013719), 1e-13)
    return checks


def cmd_verify_all(args, cfg, out: Path) -> tuple:
    checks = _verify_checks(args.seed)
    names, values, bounds, oks = zip(*checks)
    _write_csv(out / "verify.csv", ["check", "value", "bound", "status"],
               [names, values, bounds, ["pass" if ok else "FAIL" for ok in oks]])
    width = max(len(name) for name, *_ in checks)
    for name, value, bound, ok in checks:
        print(f"{name:<{width}}  {value:12.3e}  <= {bound:8.1e}  "
              f"{'pass' if ok else 'FAIL'}")
    n_fail = sum(not ok for *_, ok in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return {
        "seed": args.seed,
        "checks": {name: {"value": value, "bound": bound, "passed": bool(ok)}
                   for name, value, bound, ok in checks},
    }, n_fail == 0


class Command(NamedTuple):
    """One subcommand: the name of its handler in this module, looked up when
    the subcommand runs (so a wrapper set on the module runs instead), its
    help text, the default of its --tol (None: it has no --tol) and whether
    it takes --seed.  It takes --config when SCHEMAS has its keys.  The
    handler, called with (args, config, output directory), writes its tables
    and returns (summary, passed): the summary.json record, and whether its
    checks passed (None: it has no verdict).  outputs holds the glob
    patterns of the files besides summary.json that a run may write (the gap
    solvers' residual_curve.csv, when a scan finds no root); a run removes
    those files and summary.json of an earlier run, unless its handler finds
    a config error, and so writes each of its files anew."""

    handler: str
    help: str
    outputs: tuple
    tol: float = None
    seeded: bool = False


COMMANDS = {
    "dual-invariants": Command("cmd_dual_invariants", "invariant drift over random fields",
                               ("dual_invariants.csv",), 1e-12, seeded=True),
    "cavity-field": Command("cmd_cavity_field", "cavity solutions and residuals",
                            ("field.csv",), 1e-12),
    "quantize": Command("cmd_quantize", "ladder operators and scheme checks",
                        ("operator_e_mode*.json",), 1e-12),
    "currents": Command("cmd_currents", "4-currents, charges, spirality",
                        ("currents.csv",), 1e-8),
    "resonance-fit": Command("cmd_resonance_fit", "dispersion-law fit", ("dispersion_fit.csv",)),
    "ssh-solve": Command("cmd_ssh_solve", "self-consistent gap factor",
                         ("gap_solution.csv", "residual_curve.csv"), 1e-10),
    "ssh-sweep": Command("cmd_ssh_sweep", "ground-state energy sweep",
                         ("ground_state.csv", "residual_curve.csv")),
    "verify-all": Command("cmd_verify_all", "run the full invariant suite", ("verify.csv",),
                          seeded=True),
}


# a rejected integer flag beyond this is named by its digit count, not echoed
_ECHO_LIMIT = 2**64


def _in_range(kind: type, low, words: str, high=math.inf) -> Callable:
    """An argparse type: a value of kind from low to high (NaN is not)."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            got = repr(text)
            if type(value) is int and abs(value) > _ECHO_LIMIT:
                got = f"an integer of {len(str(abs(value)))} digits"
            raise argparse.ArgumentTypeError(f"must be {words}, got {got}")
        return value

    return parse


# the most samples whose (count, 3) float array numpy can size: 24 bytes a sample
_MAX_SAMPLES = int(np.iinfo(np.intp).max) // 24


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: it holds no handler."""
    parser = argparse.ArgumentParser(
        prog="duplexem",
        description="dually-symmetric field toolkit: invariants, cavity modes, "
                    "quantization, currents, resonance fits, gap solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name in SCHEMAS:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        if command.seeded:
            p.add_argument("--seed", type=_in_range(int, 0, "a non-negative integer"),
                           default=0, help="RNG seed")
        if command.tol is not None:
            p.add_argument("--tol", type=_in_range(float, 0.0, "a non-negative number"),
                           default=command.tol,
                           help="bound of the checks (default %(default)g)")
    sub.choices["dual-invariants"].add_argument(
        "--random", type=_in_range(int, 1, f"a sample count from 1 to {_MAX_SAMPLES}",
                                   _MAX_SAMPLES),
        default=1000, help="number of samples")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DUPLEX_EM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"config error: DUPLEX_EM_LOG={level!r} is not a logging level; expected "
              "DEBUG, INFO, WARNING, ERROR or CRITICAL", file=sys.stderr)
        return 2
    # the package logger's own handler and level, set on every call: a
    # logging.basicConfig would keep the first call's level in this process
    log.addHandler(_LOG_HANDLER)   # a no-op once added
    log.propagate = False
    log.setLevel(level)
    began = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    code = _run(args)
    log.info("%s: exit %d in %.3f s", args.command, code, time.perf_counter() - began)
    return code


def _run(args) -> int:
    """Run one parsed subcommand and write its summary.json; its exit code.

    0: the checks passed, or there are none.  1: a check failed (the summary
    holds passed: false) or the run raised a ValueError, an OSError or a
    MemoryError (the summary is {"error": reason}, next to residual_curve.csv
    when the error carries a gap scan's curve; a summary value that is not
    finite is such an error).  2: a config error, and nothing is written or
    removed.  A run that gets past its config sets aside summary.json and
    the outputs of an earlier run of the command in its directory before its
    handler starts, and removes them unless the handler finds a config error:
    no file is rewritten in place.
    """
    command, out = COMMANDS[args.command], Path(args.out)
    try:
        _make_outdir(out)
        schema = SCHEMAS.get(args.command)
        cfg = None if schema is None else _load_config(args.config, schema)
        log.debug("%s: arguments %s, config %s", args.command, vars(args), cfg)
        # an earlier run's summary.json and outputs, set aside under hidden names:
        # put back if the handler finds a config error, else removed.  No file is
        # rewritten in place, which on ext4 forces its writeback when it closes
        names = os.listdir(out)
        stale = {out / name: out / f".{name}.stale"
                 for pattern in ("summary.json", *command.outputs)
                 for name in fnmatch.filter(names, pattern)}
        for path, hidden in stale.items():
            path.rename(hidden)
        restore = False
        try:
            try:
                summary, passed = globals()[command.handler](args, cfg, out)
            except cav.SamplingError as exc:
                raise _coarse_grid(exc, cfg) from exc
        except ConfigError:
            restore = True
            raise
        finally:
            for path, hidden in stale.items():
                if restore:
                    hidden.rename(path)
                else:
                    hidden.unlink()
        if command.tol is not None:
            summary["bound"] = args.tol
        if passed is not None:
            summary["passed"] = bool(passed)
        _write_json(out / "summary.json", summary)
        return 0 if passed is None or passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write_json(out / "summary.json", {"error": str(exc)})
            curve = getattr(exc, "residual_curve", None)   # a gap scan that found no root
            if curve is not None:
                _write_csv(out / "residual_curve.csv", ["q", "residual"], list(curve))
        except OSError as err:
            print(f"error: the failure could not be recorded in {out}: {err}",
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
