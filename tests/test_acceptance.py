"""Acceptance criteria, one test per numbered requirement.

Each test prints a single pass/fail line (visible with pytest -s or on
failure) and asserts its stated tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from duplexem import cavity as cav
from duplexem import currents as cur
from duplexem import dualsym as ds
from duplexem import fockquant as fq
from duplexem import resonance as res
from duplexem import sshliquid as ssh
from duplexem.cli import main as cli_main
from duplexem.constants import PhysicalConstants
from duplexem.elliptic import elliptic_E, elliptic_K

CST = PhysicalConstants.symmetric()


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_dual_invariant_conservation():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
        theta = rng.uniform(0.0, 2 * math.pi)
        k0 = ds.invariants(f).k_inv
        k1 = ds.invariants(ds.dual_rotate(f, theta)).k_inv
        worst = max(worst, abs(k1 - k0) / max(abs(k0), 1e-300))
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    g = ds.dual_rotate(f, 0.5 * math.pi)
    exchange_exact = np.array_equal(g.e, f.h) and np.array_equal(g.h, -f.e)
    _report("1 dual-invariant conservation",
            worst <= 1e-12 and exchange_exact,
            f"max drift {worst:.2e}, quarter-turn exact {exchange_exact}")


def test_criterion_02_hyperbolic_lorentz_bridge():
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        e0, h0 = 1.0, 0.6
        f = ds.FieldPair(np.array([e0, 0, 0]), np.array([0, h0, 0]))
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        em, hm = ds.hyperbolic_boost_magnitudes(f, math.atanh(beta),
                                                (1, 0, 0), (0, 1, 0))
        worst = max(worst, abs(em - gamma * (e0 + beta * h0)),
                    abs(hm - gamma * (h0 - beta * e0)))
        boosted = ds.lorentz_boost_fields(f, beta)
        worst = max(worst, abs(boosted.e[0] - gamma * (e0 + beta * h0)))
    rng = np.random.default_rng(101)
    f = ds.FieldPair(rng.normal(size=3), rng.normal(size=3))
    w0 = ds.invariants(f).w
    w_worst = 0.0
    for vt in rng.uniform(-2.0, 2.0, size=100):
        w1 = ds.invariants(ds.hyperbolic_dual(f, vt)).w
        w_worst = max(w_worst, abs(w1 - w0) / abs(w0))
    _report("2 hyperbolic dual vs boost",
            worst <= 1e-12 and w_worst <= 1e-12,
            f"magnitude defect {worst:.2e}, ratio drift {w_worst:.2e}")


def test_criterion_03_maxwell_residuals():
    rng = np.random.default_rng(102)
    model = cav.CavityModel(length=1.0, n_modes=8, constants=CST)
    state = cav.ModeState(
        0.4 * (rng.normal(size=8) + 1j * rng.normal(size=8)),
        0.4 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
    z = np.linspace(0.0, model.length, 64)
    t = np.linspace(0.0, model.period, 64)
    worst = 0.0
    for sol in (cav.FirstSolution(model, state),
                cav.SecondSolution(model, state),
                cav.FirstSolution(model, state).rotated(0.9),
                cav.SecondSolution(model, state).rotated(2.2)):
        worst = max(worst, *cav.maxwell_residual(sol, z, t, CST))
    _report("3 cavity Maxwell residuals", worst <= 1e-10, f"max {worst:.2e}")


def test_criterion_04_quantization():
    model = cav.CavityModel(length=1.0, n_modes=2, constants=CST)
    dim = 8
    a, ad = fq.make_ladder(dim)
    comm_defect = float(np.max(np.abs(
        fq.safe_block(fq.commutator(a, ad)) - np.eye(dim - 1))))
    w = model.omegas[0]
    ham = fq.mode_hamiltonian_matrix(dim, CST.hbar, w)
    spec_defect = float(np.max(np.abs(
        np.diag(ham).real[:7] - CST.hbar * w * (np.arange(7) + 0.5))))
    g_dev = np.max(fq.spacetime_local_operators(model, dim, 0.4, 0.2)[2])
    trig_mismatch = fq.trig_ansatz_consistency(dim, w, [0.05, 0.2])
    ok = (comm_defect <= 1e-14 and spec_defect <= 1e-12 and g_dev <= 1e-12
          and trig_mismatch != 0.0)
    _report("4 truncated-basis quantization", ok,
            f"[a,a+] {comm_defect:.2e}, spectrum {spec_defect:.2e}, "
            f"g {g_dev:.2e}, trig mismatch {trig_mismatch:.2e}")


def test_criterion_05_currents():
    rng = np.random.default_rng(103)
    model = cav.CavityModel(length=math.pi, n_modes=4, constants=CST)
    state = cav.ModeState(
        0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
        0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)))
    z = np.linspace(0.0, model.length, 48)
    t = np.linspace(0.0, model.period, 8)
    cont = cur.continuity_residual(cur.ClassicalFourCurrent(model, state), z, t)

    c1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    equal_mod = cav.ModeState(c1, c1 * np.exp(1j * rng.normal(size=4)))
    j4_gauge = float(np.max(np.abs(
        cur.ClassicalFourCurrent(model, equal_mod).j4(z, t, 1))))

    op_cont = cur.continuity_residual(cur.QuantizedFourCurrent(model, 8), 0.4, 0.3)

    rotating = cav.ModeState(0.4 * (rng.normal(size=4) + 1j * rng.normal(size=4)),
                             np.zeros(4))
    fieldset = cur.FieldFunctionSet.from_cavity(model, rotating)
    times = np.linspace(0.0, 2 * math.pi / model.omegas[0], 32)
    drift = max(cur.charge_drift(fieldset, times))
    ok = cont <= 1e-10 and j4_gauge <= 1e-12 and op_cont <= 1e-10 and drift <= 1e-8
    _report("5 current continuity and charges", ok,
            f"classical {cont:.2e}, gauge-j4 {j4_gauge:.2e}, "
            f"operator {op_cont:.2e}, drift {drift:.2e}")


def test_criterion_06_charge_ratio():
    lo = cur.charge_ratio_estimate(1.2e4, 1.0)
    hi = cur.charge_ratio_estimate(1.6e4, 1.0)
    ok = (abs(lo - math.sqrt(1.2e4)) == 0.0
          and abs(hi - math.sqrt(1.6e4)) == 0.0
          and round(lo) == 110 and round(hi) == 126
          and 110 <= round(lo) <= 130 and 110 <= round(hi) <= 130)
    _report("6 charge-quantum ratio estimate", ok,
            f"sqrt ratios {lo:.4f}, {hi:.4f}")


def test_criterion_07_resonance():
    p = res.ResonanceParams(gamma_e=1.0, spin=0.5, tau=2.0, e1=3.0,
                            nu0=5.0, a_param=0.01)
    even = max(abs(res.mode_amplitude(p, n, 1.0)) for n in (2, 4, 6))
    a1 = abs(res.mode_amplitude(p, 1, 2 * math.pi * res.dispersion(p, 1)))
    a3 = abs(res.mode_amplitude(p, 3, 2 * math.pi * res.dispersion(p, 3)))
    ratio_defect = abs(a1 / a3 - 3.0)
    ns = np.arange(0, 8)
    nus = [res.dispersion(p, n) for n in ns]
    nu0_fit, a_fit, _ = res.fit_dispersion(ns, nus)
    fit_defect = max(abs(nu0_fit - p.nu0), abs(a_fit - p.a_param))
    ok = even == 0.0 and ratio_defect <= 1e-12 and fit_defect <= 1e-10
    _report("7 resonance shapes", ok,
            f"even {even:.1e}, ratio defect {ratio_defect:.2e}, fit {fit_defect:.2e}")


def test_criterion_08_gap_solver():
    free = abs(ssh.solve_gap(ssh.SshParams(
        t0=1.0, alpha1=1.0, alpha2=0.0, u=0.1, n_sites=100)).q - 1.0)

    rng = np.random.default_rng(104)
    agree = 0.0
    for _ in range(20):
        p = ssh.SshParams(t0=rng.uniform(0.5, 2.0), alpha1=rng.uniform(0.3, 2.0),
                          alpha2=rng.choice([-1, 1]) * rng.uniform(0.01, 0.5),
                          u=rng.choice([-1, 1]) * rng.uniform(0.01, 0.3),
                          n_sites=int(rng.integers(25, 100)) * 2)
        agree = max(agree, abs(ssh.solve_gap(p, method="elliptic").q
                               - ssh.solve_gap(p, method="quadrature").q))

    n_sites, a2 = 100, 0.08
    p_exact = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=a2,
                            u=-2.0 / (n_sites * a2), n_sites=n_sites)
    sol = ssh.solve_gap(p_exact, form="reduced")
    exact_defect = abs(abs(max(sol.roots)) - a2 * n_sites / 4.0)

    # approximants against the solver in their own regimes
    n_sites, a2 = 100, 0.1
    approx_defect = 0.0
    for big_b, side in ((0.95, "small"), (1.05, "large")):
        p = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=a2,
                          u=2.0 * big_b / (n_sites * a2), n_sites=n_sites)
        q_true = max(ssh.solve_gap(p, occ=ssh.Occupation.inverted(),
                                   form="reduced").roots)
        ap = ssh.gap_approximations(p)
        if side == "small":
            approx_defect = max(approx_defect, abs(ap.q_small - q_true) / q_true)
        else:
            approx_defect = max(approx_defect,
                                min(abs(x - q_true) / q_true for x in ap.q_large_pair))
    ok = (free <= 1e-10 and agree <= 1e-8 and exact_defect <= 1e-10
          and approx_defect <= 0.10)
    _report("8 self-consistent gap factor", ok,
            f"free {free:.2e}, methods {agree:.2e}, exact case {exact_defect:.2e}, "
            f"approximants {approx_defect:.3f}")


def test_criterion_09_ground_state():
    p = ssh.SshParams(t0=1.0, alpha1=1.0, alpha2=0.1, u=0.1,
                      n_sites=100, k_spring=2.0)
    q = 1.0
    grid = np.linspace(-0.45, 0.45, 31)
    curve = ssh.ground_state_energy(p, q, grid)
    sym = float(np.max(np.abs(curve.e0 - curve.e0[::-1])))
    route = float(np.max(np.abs(curve.e0 - curve.e0_quadrature)))
    assert all(abs(ssh.zeta_of(dataclasses.replace(p, u=u), q)) < 1.0 for u in grid)
    u_small = 0.05  # zeta = 0.1
    expansion = abs(ssh.ground_energy(p, q, u_small)
                    - ssh.ground_energy_smallz(p, q, u_small)) \
        / abs(ssh.ground_energy(p, q, u_small))
    ok = (sym <= 1e-12 and route <= 1e-8 and curve.double_well
          and curve.u0 > 0.0 and expansion <= 0.01)
    _report("9 double-well ground state", ok,
            f"symmetry {sym:.2e}, routes {route:.2e}, u0 {curve.u0:.4f}, "
            f"small-gap error {expansion:.4f}")


# quad asked for 1e-15 warns that roundoff stops it short of that
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_10_elliptic_integrals():
    v1 = abs(elliptic_K(0.0) - 0.5 * math.pi)
    v2 = abs(elliptic_E(0.0) - 0.5 * math.pi)
    v3 = abs(elliptic_E(1.0) - 1.0)
    k = 1.0 / math.sqrt(2.0)
    oracle, _ = integrate.quad(
        lambda y: 1.0 / math.sqrt(1.0 - (k * math.sin(y)) ** 2),
        0.0, 0.5 * math.pi, epsabs=1e-15, epsrel=1e-15)
    v4 = abs(elliptic_K(k) - oracle)
    ok = v1 <= 1e-15 and v2 <= 1e-15 and v3 == 0.0 and v4 <= 1e-13
    _report("10 elliptic integrals", ok,
            f"K(0) {v1:.1e}, E(0) {v2:.1e}, E(1) {v3:.1e}, lemniscatic {v4:.2e}")


def test_criterion_11_deterministic_verification(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code1 = cli_main(["verify-all", "--seed", "42", "--out", str(out1)])
    code2 = cli_main(["verify-all", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()
    same = ((out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()
            and (out1 / "summary.json").read_bytes()
            == (out2 / "summary.json").read_bytes())
    ok = code1 == 0 and code2 == 0 and same
    _report("11 deterministic verify-all", ok,
            f"exit codes {code1}/{code2}, byte-identical {same}")
