"""The four workloads: seeded inputs for the duplexem CLI and checks of its outputs.

Every operation is one CLI subcommand.  `make_ops(workload, seed)` returns
the operations of one round; the same seed gives the same round.  Each
`Op.check` reads the operation's output directory and returns a list of
problems, measured against computations made here, apart from the program
(closed forms in numpy, and the mpmath oracle for the gap solver).

An operation with `fault` set repeats a known program fault on fixed
inputs, the same in every round and for every seed; it is expected to
fail, and its problems are reported as the failure reason.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

WORKLOADS = ("gap-solve", "ground-sweep", "cavity-fields", "acceptance")

GAP_POINTS = 160          # ssh-solve operations per gap-solve round
SWEEP_SETS = 8            # ssh-sweep operations per ground-sweep round
SWEEP_STEPS = 2001
SWEEP_ZETA = 3.0          # zeta = 2 alpha1 u Q / t0 at the ends of a sweep grid, for Q = 1
CAVITY_MODES = 16
CAVITY_GRID = 160
CURRENT_MODES = 12
CURRENT_GRID = (256, 16)
QUANT_MODES, QUANT_DIM = 4, 16
QUANT_ST_MODES, QUANT_ST_DIM = 3, 14
VERIFY_SEEDS = 4          # pool seeds run by verify-all per acceptance round
DUAL_SAMPLES = 10_000
RESONANCE_MODES = 10

GAP_TOL = 1e-10           # relative gap-equation residual of every reported root
ROUTE_TOL = 1e-10         # E0 route error, in units of N t0

# The seeds among 0-199 on which every verify-all check stays within a third
# of its bound at the commit this benchmark was written against.  On the
# others hyperbolic_ratio_drift (fault F1) is over or near its bound, so the
# verdict depends on the seed and flips under harmless rounding changes; F1
# is measured on the fixed seed 3 instead.
VERIFY_POOL = (
    5, 7, 8, 9, 13, 16, 21, 23, 26, 27, 28, 29, 33, 34, 41, 42, 43, 44, 45,
    47, 48, 50, 51, 52, 55, 57, 59, 62, 63, 64, 65, 67, 70, 71, 72, 76, 77,
    78, 80, 81, 83, 85, 92, 96, 97, 99, 100, 102, 104, 105, 106, 108, 109,
    110, 111, 112, 113, 120, 124, 127, 129, 130, 131, 134, 135, 138, 139,
    145, 146, 148, 151, 153, 155, 158, 159, 160, 163, 165, 166, 168, 171,
    175, 176, 177, 178, 179, 180, 181, 184, 185, 186, 187, 188, 189, 190,
    192, 193, 195, 196, 198, 199,
)


@dataclass
class Op:
    label: str
    argv: list            # subcommand and flags; run.py adds --out and --config
    config: dict          # JSON config, or None
    check: callable       # check(out_dir, exit_code) -> list of problems
    fault: str = None     # "F1".."F5": fixed inputs that show a known fault
    twin: int = None      # index of an op whose outputs must be byte-identical


def _summary(out: Path) -> dict:
    with open(out / "summary.json") as fh:
        return json.load(fh)


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# gap solver


def _coupling(p: dict) -> float:
    delta = -1.0 if p["occupation"] == "ground" else 1.0
    return delta * 2.0 * p["N"] * p["u"] * p["alpha2"] / (math.pi * p["t0"])


def _gap_root_problems(p: dict, roots) -> list:
    from oracle import kernel_I
    problems = []
    coef = _coupling(p)
    spread = p["N"] * abs(p["alpha2"]) / (math.pi * abs(p["alpha1"]))
    for q in roots:
        kernel = kernel_I(2.0 * p["alpha1"] * p["u"] * q / p["t0"])
        if p["form"] == "full":
            res = abs(1.0 + coef * q * kernel - q) / max(1.0, abs(q))
            if abs(q - 1.0) > spread * (1 + 1e-12) + 1e-12:
                problems.append(f"root {q!r} outside |Q-1| <= {spread:.6g}")
        else:
            res = abs(coef * kernel - 1.0)
        if not res <= GAP_TOL:
            problems.append(f"root {q!r}: gap residual {res:.3e} > {GAP_TOL:g}")
    return problems


def _u0_problems(p: dict, summary: dict) -> list:
    """A reported double well must sit at a local minimum of the oracle E0(u)."""
    from oracle import ground_energy
    if not summary.get("double_well"):
        return []
    q, u0 = summary["q"], summary["u0"]
    step = 1e-4 * u0
    e_mid = ground_energy(p, q, u0)
    if ground_energy(p, q, u0 - step) < e_mid or ground_energy(p, q, u0 + step) < e_mid:
        return [f"u0 = {u0!r} is not a local minimum of E0(u) (double_well true)"]
    return []


def _check_ssh_solve(p: dict, out: Path, rc: int) -> list:
    summary = _summary(out)
    if rc != 0:
        return [f"exit {rc}: " + summary.get("error", f"residual {summary.get('residual')}")]
    problems = _gap_root_problems(p, summary["roots"])
    if summary["q"] not in summary["roots"]:
        problems.append("q is not one of the reported roots")
    k, alpha, beta, _, e_ssh = _table(out / "gap_solution.csv")[:, :5].T
    if np.max(np.abs(alpha**2 + beta**2 - 1.0)) > 1e-13:
        problems.append("alpha^2 + beta^2 != 1 in gap_solution.csv")
    expect = np.hypot(2.0 * p["t0"] * np.cos(k * p["a"]),
                      summary["q"] * 4.0 * p["alpha1"] * p["u"] * np.sin(k * p["a"]))
    if np.max(np.abs(e_ssh - expect)) > 1e-13 * np.max(np.abs(expect)):
        problems.append("E_c_ssh_like != hypot(eps_k, Q Delta_k)")
    return problems + _u0_problems(p, summary)


def _u_reach(p: dict) -> float:
    """A half-width past every minimum of E0(u).

    J'(zeta) <= 3 pi / 8, so dE0/du > 0 once u > 3 |alpha1 Q| / (4 K); |Q| is
    bounded by 1 + N |alpha2| / (pi |alpha1|) in the full form (zeta I <= 1)
    and by C t0 / (2 |alpha1 u|) in the reduced one.  The 1.5 margin keeps
    the minimum off the last grid points.
    """
    if p["form"] == "full":
        q_max = 1.0 + p["N"] * abs(p["alpha2"]) / (math.pi * abs(p["alpha1"]))
    else:
        q_max = _coupling(p) * p["t0"] / (2.0 * abs(p["alpha1"] * p["u"]))
    return max(4.0 * abs(p["u"]), 1.5 * 0.75 * abs(p["alpha1"]) * q_max / p["K_spring"])


def _symmetric_scan(reach: float, steps: int) -> list:
    """u_scan [-U, U, steps] with U >= reach and a centre point exactly 0.

    ground_state_energy keeps the points u >= 0; np.linspace(-U, U, steps)
    leaves its centre at -4.4e-16 for many U, which drops u = 0 and skips
    the refinement of a minimum at the first positive point.  U a multiple
    of odd / 4096, with odd the odd part of (steps - 1) / 2, makes the
    spacing a dyadic fraction and the centre exactly 0.
    """
    odd = (steps - 1) // 2
    while odd % 2 == 0:
        odd //= 2
    quantum = odd / 4096
    u = quantum * math.ceil(reach / quantum)
    return [-u, u, steps]


def _gap_point(rng, form: str) -> dict:
    p = {
        "t0": rng.uniform(0.5, 2.0), "alpha1": rng.uniform(0.3, 2.0),
        "u": rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.3),
        "K_spring": rng.uniform(0.5, 2.0), "N": 2 * int(rng.integers(25, 100)),
        "a": 1.0, "form": form,
    }
    if form == "full":
        p["occupation"] = "ground" if rng.uniform() < 0.5 else "inverted"
        p["alpha2"] = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5)
    else:
        # ground occupation with u * alpha2 < 0: the coupling C is positive and
        # C I(zeta) = 1 has a root; C >= 0.2 keeps it at zeta > 1e-2
        p["occupation"] = "ground"
        coef = rng.uniform(0.2, 3.0)
        p["alpha2"] = -coef * math.pi * p["t0"] / (2.0 * p["N"] * p["u"])
    p["u_scan"] = _symmetric_scan(_u_reach(p), 41)
    return p


SSH_DEFAULTS = {"t0": 1.0, "alpha1": 1.0, "alpha2": 0.2, "u": 0.1, "K_spring": 1.0,
                "N": 100, "a": 1.0, "occupation": "ground", "form": "full"}


def _gap_solve(rng) -> list:
    ops = []
    for i in range(GAP_POINTS):
        p = _gap_point(rng, "reduced" if i % 4 == 3 else "full")
        ops.append(Op(f"ssh-solve#{i}", ["ssh-solve"], p, partial(_check_ssh_solve, p)))
    # F5: the root lies at zeta ~ 2e-5, where gap_kernel loses ~8 digits
    f5 = {"form": "reduced", "u": -0.07, "alpha2": 0.02}
    ops.append(Op("ssh-solve#F5", ["ssh-solve"], f5,
                  partial(_check_ssh_solve, dict(SSH_DEFAULTS, **f5)), fault="F5"))
    return ops


def _check_ssh_sweep(p: dict, out: Path, rc: int) -> list:
    from oracle import ground_energy_array
    if rc != 0:
        return [f"exit {rc}"]
    summary = _summary(out)
    problems = _gap_root_problems(p, [summary["q"]])
    u, e_quad, e_ell, e_small = _table(out / "ground_state.csv").T
    if len(u) != p["u_scan"][2] or summary["points"] != len(u):
        problems.append(f"{len(u)} rows for {p['u_scan'][2]} u points")
    scale = p["N"] * p["t0"]
    ref = ground_energy_array(p, summary["q"], u)
    for name, col in (("E0_elliptic", e_ell), ("E0_quadrature", e_quad)):
        err = float(np.max(np.abs(col - ref))) / scale
        if not err <= ROUTE_TOL:
            problems.append(f"{name} off the oracle by {err:.3e} N t0")
    if np.max(np.abs(u + u[::-1])) > 1e-12 * np.max(np.abs(u)):
        problems.append("u column is not symmetric")
    for name, col in (("E0_quadrature", e_quad), ("E0_elliptic", e_ell), ("E0_smallz", e_small)):
        if np.max(np.abs(col - col[::-1])) > 1e-12 * np.max(np.abs(col)):
            problems.append(f"{name} is not even in u")
    return problems + _u0_problems(p, summary)


def _ground_sweep(rng) -> list:
    ops = []
    for i in range(SWEEP_SETS):
        # weak coupling keeps |Q - 1| <= 0.1, so every grid spans zeta from 0
        # to ~3 (both branches, and the same work per point for every seed);
        # K is drawn large enough that the u0 bound of _u_reach lies inside
        p = {"t0": rng.uniform(0.5, 2.0), "alpha1": rng.uniform(0.5, 2.0),
             "N": 2 * int(rng.integers(25, 100)), "a": 1.0, "form": "full",
             "occupation": "ground" if i % 2 == 0 else "inverted"}
        p["alpha2"] = rng.choice([-1.0, 1.0]) * 0.1 * math.pi * p["alpha1"] / p["N"] \
            * rng.uniform(0.2, 1.0)
        reach = SWEEP_ZETA * p["t0"] / (2.0 * p["alpha1"])
        p["u"] = reach * rng.uniform(0.05, 0.5)
        p["K_spring"] = 1.125 * p["alpha1"] * 1.1 / reach * rng.uniform(1.0, 2.0)
        p["u_scan"] = _symmetric_scan(reach, SWEEP_STEPS)
        ops.append(Op(f"ssh-sweep#{i}", ["ssh-sweep"], p, partial(_check_ssh_sweep, p)))
    # F4: E0 still falls at the grid edge u = 0.4, which is reported as u0
    f4 = {"form": "reduced", "u": -0.1, "u_scan": [-0.4, 0.4, 41]}
    ops.append(Op("ssh-sweep#F4", ["ssh-sweep"], f4,
                  partial(_check_ssh_sweep, dict(SSH_DEFAULTS, **f4)), fault="F4"))
    return ops


# ---------------------------------------------------------------------------
# cavity fields, currents, quantization


SI = {"c": 299_792_458.0, "eps0": 8.8541878128e-12, "mu0": 1.25663706212e-6}
SYMMETRIC = {"c": 1.0, "eps0": 1.0, "mu0": 1.0}
CAVITY_DEFAULTS = {"length": 1.0, "n_modes": 4, "units": "symmetric",
                   "c1": [[0.5, 0.0]] * 4, "c2": [[0.5, 0.0]] * 4,
                   "solution": "first", "theta": 0.0, "nz": 64, "nt": 64}


def _modes(cfg: dict):
    """(k, omega, c1, c2, constants) of a cavity config; unit masses, V = L."""
    cst = SI if cfg["units"] == "si" else SYMMETRIC
    k = np.arange(1, cfg["n_modes"] + 1) * math.pi / cfg["length"]
    c1 = np.array([complex(*c) for c in cfg["c1"]])
    c2 = np.array([complex(*c) for c in cfg["c2"]])
    return k, k * cst["c"], c1, c2, cst


def _expected_field(cfg: dict, z, t) -> np.ndarray:
    """The six field components at the sample points, as columns ex ey ez hx hy hz."""
    k, omega, c1, c2, cst = _modes(cfg)
    amp_e = np.sqrt(2.0 * omega**2 / (cfg["length"] * cst["eps0"]))
    amp_h = np.sqrt(2.0 * omega**2 / (cfg["length"] * cst["mu0"]))
    ph = np.exp(1j * np.outer(t, omega))                  # (points, modes)
    q = c1 * ph + c2 / ph
    dq = 1j * omega * (c1 * ph - c2 / ph)
    sin, cos = np.sin(np.outer(z, k)), np.cos(np.outer(z, k))
    if cfg["solution"] == "first":
        ex = np.sum(amp_e * q * sin, axis=1)
        hy = np.sum(amp_e * cst["eps0"] / k * dq * cos, axis=1)
    else:  # second family: q'' = -q and q' = -dq/dt / omega
        ex = -np.sum(amp_e * q * sin, axis=1)
        hy = -np.sum(amp_h / omega * dq * cos, axis=1)
    zero = np.zeros_like(ex)
    ct, st = math.cos(cfg["theta"]), math.sin(cfg["theta"])
    # dual rotation: E' = cos E + sin H, H' = cos H - sin E
    return np.stack([ct * ex, st * hy, zero, -st * ex, ct * hy, zero], axis=1)


def _check_cavity_field(cfg: dict, out: Path, rc: int) -> list:
    summary = _summary(out)
    data = _table(out / "field.csv")
    if rc != 0:
        worst = max(summary["residuals"])
        scale = float(np.max(np.abs(data[:, 2:])))
        return [f"exit {rc}: residual {worst:.4g} > {summary['bound']:g} "
                f"(field terms ~{scale:.2g}, relative {worst / scale:.1e})"]
    nz, nt = cfg["nz"], cfg["nt"]
    if data.shape != (nz * nt, 14):
        return [f"field.csv has shape {data.shape}"]
    z, t = data[:, 0], data[:, 1]
    period = cfg["length"] / _modes(cfg)[4]["c"]
    if not (np.array_equal(z[::nt], np.linspace(0.0, cfg["length"], nz))
            and np.array_equal(t[:nt], np.linspace(0.0, period, nt))):
        return ["field.csv grid is not z-major on linspace(0, L) x linspace(0, L/c)"]
    got = data[:, 2::2] + 1j * data[:, 3::2]
    expect = _expected_field(cfg, z, t)
    err = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
    problems = [] if err <= 1e-12 else [f"field.csv off the mode sum by {err:.2e} relative"]
    if not summary["passed"]:
        problems.append("summary not passed")
    return problems


def _coeffs(rng, n):
    return [[float(x), float(y)] for x, y in 0.3 * rng.normal(size=(n, 2))]


def _check_currents(cfg: dict, out: Path, rc: int) -> list:
    if rc != 0:
        return [f"exit {rc}"]
    data = _table(out / "currents.csv")
    nz, nt = cfg["nz"], cfg["nt"]
    if data.shape != (nz * nt, 9):
        return [f"currents.csv has shape {data.shape}"]
    z, t = data[:, 0], data[:, 1]
    k, omega, c1, c2, _ = _modes(cfg)
    kappa = 8.0 * cfg["coupling"] / cfg["length"]          # 8 coupling / (c V)
    w3 = omega**3
    cross = c1 * np.conj(c2) * np.exp(2j * np.outer(t, omega))
    j3_2 = -1j * kappa * np.sum(w3 * np.sin(2 * np.outer(z, k)) * (cross + np.conj(cross)), axis=1)
    j4_1 = 1j * kappa * np.sum(w3 * (np.abs(c1) ** 2 - np.abs(c2) ** 2))
    j4_2 = 1j * kappa * np.sum(w3 * np.cos(2 * np.outer(z, k)) * (cross - np.conj(cross)), axis=1)
    j3 = 1j * j3_2                                        # j3^(1) = 0
    j4 = j4_1 + 1j * j4_2
    got = np.stack([data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]])
    expect = np.stack([j3, j4])
    err = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
    problems = [] if err <= 1e-12 else [f"j3/j4 off the closed forms by {err:.2e} relative"]
    q1, q2, spin = data[:, 6], data[:, 7], data[:, 8]
    scale = float(np.max(np.hypot(q1, q2)))
    for name, col in (("q1", q1), ("q2", q2), ("spirality", spin)):
        drift = float(np.max(col) - np.min(col)) / scale
        if drift > 1e-10:
            problems.append(f"{name} drifts in t by {drift:.2e} of the charge scale")
    if not _summary(out)["passed"]:
        problems.append("summary not passed")
    return problems


def _ladder(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return a, a.conj().T


def _check_quantize(cfg: dict, out: Path, rc: int) -> list:
    if rc != 0:
        return [f"exit {rc}"]
    problems = [] if _summary(out)["passed"] else ["summary not passed"]
    dim, length, z, t = cfg["dim"], cfg["length"], cfg["z"], cfg["t"]
    a, ad = _ladder(dim)
    for mode in range(1, cfg["n_modes"] + 1):
        with open(out / f"operator_e_mode{mode}.json") as fh:
            data = json.load(fh)
        size = data["dim"]          # dim, or dim^2 on the space-time tensor space
        mat = np.array([complex(re, im) for re, im in data["entries"]]).reshape(size, size)
        scale = np.max(np.abs(mat))
        if np.max(np.abs(mat - mat.conj().T)) > 1e-14 * scale:
            problems.append(f"mode {mode} operator is not Hermitian")
        w = k = mode * math.pi / length   # symmetric units: hbar = lambda0 = c = eps0 = 1
        if cfg["scheme"] == "time_local":
            expect = math.sqrt(w / length) * math.sin(k * z) \
                * (ad * np.exp(1j * w * t) + a * np.exp(-1j * w * t))
        elif cfg["scheme"] == "space_local":
            expect = 1j * math.sqrt(w / length) * math.sin(w * t) \
                * (ad * np.exp(1j * k * z) - a * np.exp(-1j * k * z))
        else:
            continue
        if np.max(np.abs(mat - expect)) > 1e-14 * scale:
            problems.append(f"mode {mode} operator differs from the closed form")
    return problems


def _cavity_fields(rng) -> list:
    # two field operations per family: six of the ten that pass, so the
    # median operation is a cavity-field one whatever the others take
    ops = []
    for i in range(6):
        solution = ("first", "second")[i % 2]
        angle = float(rng.uniform(0.1, 2 * math.pi - 0.1)) if i >= 4 else 0.0
        cfg = {"length": 1.0, "n_modes": CAVITY_MODES, "units": "symmetric",
               "c1": _coeffs(rng, CAVITY_MODES), "c2": _coeffs(rng, CAVITY_MODES),
               "solution": solution, "theta": angle, "nz": CAVITY_GRID, "nt": CAVITY_GRID}
        ops.append(Op(f"cavity-field#{i}-{solution}{'-rotated' if angle else ''}",
                      ["cavity-field"], cfg, partial(_check_cavity_field, cfg)))
    nz, nt = CURRENT_GRID
    cfg = {"length": math.pi, "n_modes": CURRENT_MODES, "units": "symmetric",
           "c1": _coeffs(rng, CURRENT_MODES), "c2": _coeffs(rng, CURRENT_MODES),
           "nz": nz, "nt": nt, "coupling": float(rng.uniform(0.5, 2.0))}
    ops.append(Op("currents", ["currents"], cfg, partial(_check_currents, cfg)))
    for scheme in ("time_local", "space_local", "spacetime_local"):
        modes, dim = (QUANT_ST_MODES, QUANT_ST_DIM) if scheme == "spacetime_local" \
            else (QUANT_MODES, QUANT_DIM)
        cfg = {"length": 1.0, "n_modes": modes, "units": "symmetric", "dim": dim,
               "scheme": scheme, "z": float(rng.uniform(0.05, 0.95)),
               "t": float(rng.uniform(0.05, 0.95))}
        ops.append(Op(f"quantize#{scheme}", ["quantize"], cfg, partial(_check_quantize, cfg)))
    # F3: a correct SI field fails the absolute residual bound
    f3 = {"units": "si"}
    ops.append(Op("cavity-field#si", ["cavity-field"], f3,
                  partial(_check_cavity_field, dict(CAVITY_DEFAULTS, **f3)), fault="F3"))
    return ops


# ---------------------------------------------------------------------------
# acceptance


def _check_verify(out: Path, rc: int) -> list:
    with open(out / "verify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failing = [f"{row['check']} {float(row['value']):.3e} > {float(row['bound']):.0e}"
               for row in rows if row["status"] != "pass"]
    if rc != 0 and not failing:
        failing.append(f"exit {rc}")
    return failing


def _check_dual_invariants(samples: int, out: Path, rc: int) -> list:
    if rc != 0:
        return [f"exit {rc}"]
    data = _table(out / "dual_invariants.csv")
    if data.shape != (samples, 5):
        return [f"dual_invariants.csv has shape {data.shape}"]
    k_ref, k_rot = data[:, 2], data[:, 3]
    drift = np.abs(k_rot - k_ref) / np.maximum(np.abs(k_ref), 1e-300)
    worst = float(np.max(drift))
    return [] if worst <= 1e-12 else [f"invariant drift {worst:.2e} > 1e-12"]


def _check_resonance(nu0: float, curvature: float, out: Path, rc: int) -> list:
    if rc != 0:
        return [f"exit {rc}"]
    summary = _summary(out)
    err = max(abs(summary["nu0"] - nu0), abs(summary["curvature"] - curvature))
    return [] if err <= 1e-10 else [f"fit misses (nu0, A) by {err:.2e}"]


def _acceptance(rng, seed: int) -> list:
    ops = []
    first = seed % len(VERIFY_POOL)
    seeds = [VERIFY_POOL[(first + i) % len(VERIFY_POOL)] for i in range(VERIFY_SEEDS)]
    for s in seeds:
        ops.append(Op(f"verify-all#{s}", ["verify-all", "--seed", str(s)], None, _check_verify))
    ops.append(Op(f"verify-all#{seeds[0]}-again", ["verify-all", "--seed", str(seeds[0])],
                  None, _check_verify, twin=0))
    # F1: W = Re C / Im C is ill-conditioned for this seed (Im C = -1.4e-3)
    ops.append(Op("verify-all#3", ["verify-all", "--seed", "3"], None, _check_verify,
                  fault="F1"))
    ops.append(Op("dual-invariants", ["dual-invariants", "--random", str(DUAL_SAMPLES),
                                      "--seed", str(int(rng.integers(2**31)))],
                  None, partial(_check_dual_invariants, DUAL_SAMPLES)))
    nu0, curvature = float(rng.uniform(1.0, 10.0)), float(rng.uniform(1e-3, 0.05))
    ns = list(range(RESONANCE_MODES))
    ops.append(Op("resonance-fit", ["resonance-fit"],
                  {"n": ns, "nu": [nu0 - curvature * n * n for n in ns]},
                  partial(_check_resonance, nu0, curvature)))
    return ops


def make_ops(workload: str, seed: int) -> list:
    """The operations of one round of `workload` for `seed`."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([index, seed])
    if workload == "gap-solve":
        return _gap_solve(rng)
    if workload == "ground-sweep":
        return _ground_sweep(rng)
    if workload == "cavity-fields":
        return _cavity_fields(rng)
    return _acceptance(rng, seed)
