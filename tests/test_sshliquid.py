import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from duplexem import sshliquid
from duplexem.cli import _verify_checks
from duplexem.sshliquid import (BRANCH_NEAR_EQ, BRANCH_SSH, GapSolverError,
                                Occupation, SshParams, _band_kernel,
                                _scan_roots,
                                band_energies, bogoliubov_coeffs, energy_curve,
                                gap_approximations, gap_kernel, gap_residual,
                                gap_residual_discrete, ground_energy,
                                ground_energy_smallz, ground_state_energy,
                                solve_gap, solve_gap_discrete,
                                stability_classify, Well, WellEdgeError, zeta_of)


def base_params(**kw):
    defaults = dict(t0=1.0, alpha1=1.0, alpha2=0.2, u=0.1, k_spring=1.0,
                    n_sites=100, a_lattice=1.0)
    defaults.update(kw)
    return SshParams(**defaults)


# --- Bogoliubov coefficients ----------------------------------------------


def test_no_mixing_when_gap_closed():
    p = base_params()
    alpha, beta, prod = bogoliubov_coeffs(p, 1.3, 0.0)  # k = 0: gap term zero
    assert prod == pytest.approx(0.0, abs=1e-15)
    beta_sq = float(beta) ** 2
    assert min(abs(beta_sq), abs(beta_sq - 1.0)) <= 1e-15


def test_maximal_mixing_at_band_center():
    p = base_params()
    k = 0.5 * math.pi / p.a_lattice  # eps_k = 0
    for q in (0.7, -1.2):
        alpha, beta, prod = bogoliubov_coeffs(p, q, k)
        assert float(alpha) ** 2 == pytest.approx(0.5, rel=1e-14)
        assert float(beta) ** 2 == pytest.approx(0.5, rel=1e-14)
        gap = 4 * p.alpha1 * p.u * math.sin(k * p.a_lattice)
        assert prod == pytest.approx(0.5 * math.copysign(1.0, q * gap), rel=1e-14)


def test_product_identity_random():
    rng = np.random.default_rng(0)
    p = base_params()
    for _ in range(200):
        k = rng.uniform(0.01, 0.49) * math.pi
        q = rng.uniform(-3, 3)
        alpha, beta, prod = bogoliubov_coeffs(p, q, k)
        assert abs(prod**2 - alpha**2 * beta**2) <= 1e-14
        assert abs(alpha**2 + beta**2 - 1.0) <= 1e-14


def test_undimerized_convention():
    p = base_params(u=0.0)
    alpha, beta, prod = bogoliubov_coeffs(p, 2.0, 0.3)
    assert float(alpha) == 1.0 and float(beta) == 0.0 and float(prod) == 0.0


# --- gap equation -----------------------------------------------------------


def test_kernel_elliptic_matches_quadrature():
    for zeta in (0.2, 0.7, 0.999, 1.0, 1.001, 1.8, 4.0):
        assert gap_kernel(zeta, "elliptic") == pytest.approx(
            gap_kernel(zeta, "quadrature"), rel=1e-11)


def _from_bits(bits):
    """The float64 whose bit pattern is the integer bits."""
    return np.array(bits, dtype=np.uint64).view(float).tolist()


def _node_count_switches():
    """|zeta| on both sides of three steps of the trapezoid node count, at
    w = min(|zeta|, 1/|zeta|) where (ln 2 + 40 - ln w) / 2.4 crosses m: the
    three largest bit patterns of one count and the three smallest of the next."""
    def steps(z):
        return math.ceil((sshliquid._LN2 + sshliquid._REACH + abs(float(np.log(z))))
                         / (16.0 * sshliquid._STEP))

    zetas = []
    for m, side in itertools.product((17, 18, 290), (-1.0, 1.0)):   # w, then 1 / w
        guess = math.exp(side * (2.4 * m - math.log(2.0) - 40.0))   # 0.8986, 0.0815, ...
        lo, hi = np.array([guess * (1.0 - 1e-9), guess * (1.0 + 1e-9)]).view(np.int64).tolist()
        assert steps(_from_bits(lo)) != steps(_from_bits(hi))
        while hi - lo > 1:   # bisect the bit patterns, which order positive floats
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if steps(_from_bits(mid)) == steps(_from_bits(lo)) else (lo, mid)
        zetas += _from_bits(np.arange(lo - 2, hi + 3))
    return zetas


def _branch_switch_zetas():
    """zeta at 0, at 1, on both sides of each edge past which the Carlson body
    hands over to the asymptotes and of three steps of the trapezoid node
    count, and negated."""
    zetas = [0.0, 5e-324, 1e-160, 1e-3, 0.5, 2.0, 1e4, 1e8, 1e160, 1.7e308]
    for z in (1e-150, 1.0, 1e150):
        zetas += [z * (1.0 + e) for e in (-1e-6, -1e-12, -2.0**-52, 0.0, 2.0**-52, 1e-12, 1e-6)]
    zetas = np.array(zetas + _node_count_switches())
    return np.concatenate([zetas, -zetas])


def test_branch_switch_points_cover_both_sides():
    za = np.abs(_branch_switch_zetas())
    for edge in (1e-150, 1.0, 1e150):
        assert np.sum(za < edge) >= 4 and np.sum(za > edge) >= 4
        assert np.sum((za < edge) & (za > 0.999 * edge)) >= 4
        assert np.sum((za > edge) & (za < 1.001 * edge)) >= 4
    assert np.sum(za == 1.0) >= 2 and np.sum(za == 0.0) >= 2


def test_array_kernels_match_scalar_bit_for_bit():
    # a number takes the bare ufuncs, an array with far points the asymptote
    # select; both give the same bits, with no warning at the limits.  The
    # quadrature route gives each point its own node count, in blocks of rows
    zetas = _branch_switch_zetas()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (gap_kernel, _band_kernel):
            for method in ("elliptic", "quadrature"):
                assert kernel(zetas, method).tolist() == \
                    [kernel(z, method) for z in zetas.tolist()]
    for method in ("elliptic", "quadrature"):
        assert gap_kernel(0.0, method) == math.inf and _band_kernel(0.0, method) == -1.0
    assert gap_kernel(1.0) == 0.25 * math.pi and _band_kernel(1.0) == 0.0


_ANY_FLOAT = st.integers(0, 2**64 - 1).map(_from_bits)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=_ANY_FLOAT, y=_ANY_FLOAT)
@example(x=0.0, y=-0.0)
@example(x=-0.0, y=math.inf)
@example(x=5e-324, y=math.nan)
@example(x=-2.2250738585072e-308, y=1.0)
@example(x=math.inf, y=1e300)
@example(x=-math.inf, y=1e-300)
@example(x=math.nan, y=0.0)
@example(x=_from_bits(0x7FF0000000000001), y=2.0)   # a signalling nan
@example(x=_from_bits(0xFFF800000000BEEF), y=0.5)   # a negative quiet nan with a payload
@example(x=1e300, y=5e-324)
@example(x=-1e-300, y=1.7976931348623157e308)
@example(x=1.7976931348623157e308, y=0.8986)
def test_one_number_takes_the_bits_of_its_array_row(x, y):
    # a finite nonzero number takes its own row of nodes, and 0, +-inf and nan
    # the array code: I and J are those of its row in an array, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = sshliquid._trapezoid_kernels(x)
        pair = sshliquid._trapezoid_kernels(np.array([x, y]))
    assert [np.float64(value).tobytes() for value in one] == [row[:1].tobytes() for row in pair]


def test_both_routes_take_the_limits_at_zero_infinite_and_nan_zeta():
    # the quadrature route gave I(nan) = inf and J(+-inf) = nan: it started A at
    # inf, and w A was 0 * inf at w = 0
    zetas = [0.0, -0.0, math.inf, -math.inf, math.nan]
    limits = {gap_kernel: [math.inf, math.inf, 0.0, 0.0, math.nan],
              _band_kernel: [-1.0, -1.0, math.inf, math.inf, math.nan]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (kernel, expected), method in itertools.product(limits.items(),
                                                            ("elliptic", "quadrature")):
            numbers = [kernel(zeta, method) for zeta in zetas]
            assert np.array_equal(numbers, expected, equal_nan=True)
            assert np.array_equal(kernel(np.array(zetas), method), expected, equal_nan=True)


# each kernel route and its bound against the 40-digit table: relative for I,
# relative to max(1, |J|) for J
ROUTE_BOUNDS = (("elliptic", 1e-15), ("quadrature", 4e-15))


def _kernel_table():
    """zeta and 40-digit mpmath values of I and J (tests/make_kernel_table.py)."""
    lines = Path(__file__).with_name("kernel_table.csv").read_text().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T


def test_array_kernels_match_mpmath_table():
    # every zeta of the table, both signs: 1e-9..0.99 and 1.1..1e4 (the old scipy
    # grid), 0.99..1.1 with 1 +- 2^-52, 1 +- 1e-5, and 1e8..1.7e308 with the edges
    zeta, big_i, big_j = _kernel_table()
    assert {0.0, 5e-324, 1.0 - 2.0**-52, 1.0 + 2.0**-52, 1.0 - 1e-5, 1.0 + 1e-5,
            1e9, 1e154, 1.7e308} <= set(zeta.tolist())
    assert np.sum((zeta > 0.99) & (zeta < 1.1)) >= 100 and np.sum(zeta >= 1e8) >= 60
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (method, bound), z in itertools.product(ROUTE_BOUNDS, (zeta, -zeta)):
            values_i, values_j = gap_kernel(z, method), _band_kernel(z, method)
            assert values_i.tolist() == [gap_kernel(x, method) for x in z.tolist()]
            assert values_j.tolist() == [_band_kernel(x, method) for x in z.tolist()]
            assert values_i[0] == big_i[0] == math.inf
            assert np.max(np.abs(values_i[1:] - big_i[1:]) / big_i[1:]) <= bound
            assert np.max(np.abs(values_j - big_j) / np.maximum(1.0, np.abs(big_j))) <= bound


def test_soft_plus_is_its_argument_from_the_threshold_on():
    # the trapezoid oracle skips logaddexp(0, y) at y >= _SOFT_EXACT, where it is y
    # bit for bit; its ln x^2 stays below 2 (ln 2 + _REACH + 745) < 1600
    start = sshliquid._SOFT_EXACT
    y = np.concatenate([np.linspace(start, 1600.0, 1_000_001),
                        start + np.arange(10_000) * np.spacing(start),
                        np.geomspace(start, 1e308, 10_000)])
    assert np.array_equal(np.logaddexp(0.0, y), y)


@pytest.mark.parametrize("zeta, reference", [
    # 40-digit mpmath values of (K(m) - E(m)) / m^2, m = sqrt(1 - zeta^2)
    (1.01e-5, 11.889269496121067),
    (1e-4, 9.5966348025708345),
    (1e-3, 7.2940548606441285),
])
def test_kernel_precision_at_small_zeta(zeta, reference):
    # small zeta, where a kernel that recomputes zeta from m = 1 - zeta^2 loses ~8 digits
    for value in (gap_kernel(zeta), gap_kernel(-zeta),
                  *gap_kernel(np.array([zeta, -zeta]))):
        assert abs(value - reference) <= 1e-15 * reference


@pytest.mark.parametrize("form, alpha2, grid", [
    ("full", 0.3, np.linspace(-12.0, 12.0, 49)),            # Q = 0 on the grid
    ("full", 0.0, np.linspace(-3.0, 3.0, 7)),                # no coupling
    ("reduced", -0.3, np.geomspace(1e-9, 40.0, 60)),
    ("reduced", -0.3, -np.geomspace(1e-9, 40.0, 60)),
])
def test_array_residual_matches_pointwise(form, alpha2, grid):
    p = base_params(alpha2=alpha2, u=0.1)
    for occ in (Occupation.ground(), Occupation.inverted()):
        assert gap_residual(p, grid, occ, form=form).tolist() == \
            [gap_residual(p, q, occ, form=form) for q in grid.tolist()]
        few = grid[::6]
        assert gap_residual(p, few, occ, "quadrature", form).tolist() == \
            [gap_residual(p, q, occ, "quadrature", form) for q in few.tolist()]


def test_full_residual_is_one_at_q_zero():
    # Q I(zeta(Q)) -> 0 although I(0) is infinite; no invalid-value warning on the way
    p = base_params(alpha2=0.3, u=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("elliptic", "quadrature"):
            for q in (0.0, -0.0):
                value = gap_residual(p, q, method=method)
                assert type(value) is float and value == 1.0
            assert gap_residual(p, np.array([-0.0, 0.0]), method=method).tolist() == [1.0, 1.0]


def test_both_routes_are_finite_at_tiny_zeta():
    # I's integrand peaks in a width zeta at y = pi/2; in s, cot y = zeta sinh s,
    # that peak is a plateau out to s = ln(2/zeta), which the quadrature's nodes
    # must reach.  40-digit mpmath values (kernel_table.csv)
    cases = [(1e-10, 23.41214529106034742275527256394520691493,
              -0.9999999999999999996513178206340947632517),
             (1e-300, 691.1618222593335957991728088130168560448, -1.0)]
    for (zeta, big_i, big_j), (method, bound) in itertools.product(cases, ROUTE_BOUNDS):
        for z in (zeta, -zeta):
            assert abs(gap_kernel(z, method) - big_i) <= bound * big_i
            assert abs(_band_kernel(z, method) - big_j) <= bound


def test_kernel_value_at_unity():
    assert gap_kernel(1.0) == pytest.approx(math.pi / 4, abs=1e-15)


def test_free_limit_recovers_unity():
    sol = solve_gap(base_params(alpha2=0.0))
    assert abs(sol.q - 1.0) <= 1e-10
    assert sol.residual <= 1e-10


def test_self_consistency_residual():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = base_params(alpha2=rng.uniform(0.05, 0.4),
                        u=rng.choice([-1, 1]) * rng.uniform(0.02, 0.25))
        sol = solve_gap(p)
        assert sol.residual <= 1e-10
        assert abs(gap_residual(p, sol.q)) <= 1e-10


def test_methods_agree_on_random_parameters():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = SshParams(t0=rng.uniform(0.5, 2.0), alpha1=rng.uniform(0.3, 2.0),
                      alpha2=rng.choice([-1, 1]) * rng.uniform(0.01, 0.5),
                      u=rng.choice([-1, 1]) * rng.uniform(0.01, 0.3),
                      n_sites=int(rng.integers(25, 100)) * 2)
        q_ell = solve_gap(p, method="elliptic").q
        q_quad = solve_gap(p, method="quadrature").q
        assert abs(q_ell - q_quad) <= 1e-8


def _full_quadrature_scan_roots(p, occ, form, monkeypatch):
    """solve_gap(method="quadrature").roots and the roots of a scan of the
    quadrature residual itself over the same grid."""
    grids = []
    residual = sshliquid.gap_residual

    def recording(p, q, *args, **kwargs):
        if np.ndim(q):
            grids.append(q)
        return residual(p, q, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sshliquid, "gap_residual", recording)
        roots = solve_gap(p, occ, method="quadrature", form=form).roots
    (grid,) = grids
    vals = gap_residual(p, grid, occ, "quadrature", form)
    scanned = _scan_roots(lambda q: gap_residual(p, q, occ, "quadrature", form),
                          lambda grid: vals, grid, "quadrature", "no root")
    if form == "reduced":   # one root in |Q| and its mirror
        scanned = [-r for r in reversed(scanned)] + scanned
    return roots, tuple(scanned)


def test_elliptic_brackets_give_the_full_quadrature_scan_roots(monkeypatch):
    # the sets verify-all --seed 42 solves on both routes
    sets = []
    solve = sshliquid.solve_gap

    def recording(p, *args, **kwargs):
        if kwargs.get("method") == "quadrature":
            sets.append(p)
        return solve(p, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sshliquid, "solve_gap", recording)
        _verify_checks(42)
    assert len(sets) == 5
    n_sites, a2 = 100, 0.08
    cases = [(p, Occupation.ground(), "full") for p in sets] + [
        (base_params(alpha2=a2, u=-2.0 / (n_sites * a2)), Occupation.ground(), "reduced"),
        (base_params(alpha2=0.3, u=0.1), Occupation.inverted(), "full"),  # three roots
    ]
    for p, occ, form in cases:
        refined, scanned = _full_quadrature_scan_roots(p, occ, form, monkeypatch)
        assert refined == scanned and len(refined) >= 1


def test_quadrature_bracket_without_sign_change_is_named(monkeypatch):
    kernel = sshliquid.gap_kernel

    def shifted(zeta, method="elliptic"):
        return kernel(zeta, method) + (1.0 if method == "quadrature" else 0.0)

    monkeypatch.setattr(sshliquid, "gap_kernel", shifted)
    n_sites, a2 = 100, 0.08   # the exact case: C I(zeta) = 1 at Q = +-2, C = 1.27
    p = base_params(alpha2=a2, u=-2.0 / (n_sites * a2))
    with pytest.raises(GapSolverError) as err:
        solve_gap(p, method="quadrature", form="reduced")
    grid, vals = err.value.residual_curve
    assert vals.tolist() == gap_residual(p, grid, form="reduced").tolist()   # the elliptic scan
    i = int(np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[0])
    a, b = grid[i:i + 2].tolist()
    message = str(err.value)
    assert "quadrature" in message and f"[{a!r}, {b!r}]" in message
    for end in (a, b):
        assert repr(gap_residual(p, end, method="quadrature", form="reduced")) in message


def test_reduced_quadrature_solve_skips_the_tiny_gap_kernel():
    # the reduced scan reaches |zeta| = 2e-10 on the elliptic route alone; the
    # quadrature route, accurate there too, is evaluated only on the bracket
    # of the root
    p = base_params(alpha2=-0.3, u=0.1)
    q_quad = solve_gap(p, method="quadrature", form="reduced").q
    q_ell = solve_gap(p, form="reduced").q
    assert abs(q_quad - q_ell) <= 1e-12 * abs(q_ell)


def test_exact_case_factor():
    # ground state with u = -2 t0 / (N alpha2) puts the root pair exactly at
    # |Q| = alpha2 N / (4 alpha1); the printed positive sign is one of the pair
    n_sites, a2 = 100, 0.08
    p = base_params(alpha2=a2, u=-2.0 / (n_sites * a2), n_sites=n_sites)
    sol = solve_gap(p, form="reduced")
    target = a2 * n_sites / 4.0
    assert len(sol.roots) > 1
    assert abs(max(sol.roots) - target) <= 1e-10
    assert abs(min(sol.roots) + target) <= 1e-10
    assert sol.regime == "exact_case"
    assert abs(abs(zeta_of(p, max(sol.roots))) - 1.0) <= 1e-9


def test_reduced_form_reports_missing_root():
    # ground-state occupations need u * alpha2 < 0 for a reduced-form root
    p = base_params(alpha2=0.2, u=0.1)
    with pytest.raises(GapSolverError) as err:
        solve_gap(p, form="reduced")
    grid, vals = err.value.residual_curve
    assert len(grid) == len(vals) > 0
    assert vals.tolist() == [gap_residual(p, q, form="reduced") for q in grid.tolist()]


def test_scan_roots_takes_exact_zeros_of_the_scan():
    # the scan q (q - 2) (q + 0.75) is exactly 0 at the grid points 0 and 2, the
    # last, which are roots as they stand; fn, 1e-3 above it, refines only the
    # bracket of -0.75 (a refinement on [0, 0.5] would find fn's root near 7e-4)
    def scan(q):
        return q * (q - 2.0) * (q + 0.75)

    roots = _scan_roots(lambda q: scan(q) + 1e-3, scan, np.linspace(-1.0, 2.0, 7), "test",
                        "no root")
    assert roots[1:] == [0.0, 2.0]
    assert roots[0] == pytest.approx(-0.75, abs=1e-3)
    assert scan(roots[0]) + 1e-3 == pytest.approx(0.0, abs=1e-15)


def test_scan_roots_keeps_non_finite_scan_values_in_its_curve():
    # under the command line's policy: (-1e200)^3 overflows, 1/0 divides by zero and
    # sqrt(-0.5) is invalid; the pair (-inf, inf) bounds no bracket, and the one
    # finite value has no neighbour to change sign against
    grid = np.array([-1e200, 0.0, 1.0, 3.0])

    def scan(q):
        return 1.0 / q + q ** 3 + np.sqrt(2.5 - q)

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(GapSolverError, match="^no root$") as err:
            _scan_roots(scan, scan, grid, "test", "no root")
    curve_grid, vals = err.value.residual_curve
    assert curve_grid is grid
    np.testing.assert_array_equal(vals, [-math.inf, math.inf, 2.0 + math.sqrt(1.5), math.nan])


def test_discrete_solver_reports_missing_root(monkeypatch):
    monkeypatch.setattr(sshliquid, "gap_residual_discrete",
                        lambda p, q, occ=None, n_k=64: 1.0 + q * q)
    with pytest.raises(GapSolverError, match="^no discrete-sum root inside the bracket$") as err:
        solve_gap_discrete(base_params())
    grid, vals = err.value.residual_curve
    assert len(grid) == 600 and vals.tolist() == (1.0 + grid * grid).tolist()


def test_gap_kernel_lies_above_its_log_floor():
    # I(zeta) >= ln(4/zeta) - 1 is why the reduced scan may start at
    # |zeta| = 2 e^{-1-1/C}: below it C I(zeta) >= 1 + C ln 2 > 1
    zeta = np.geomspace(1e-300, 1e300, 20001)
    kernel = gap_kernel(zeta)
    # to rounding: a few ulp of ln(4/zeta), which reaches 692
    assert np.all(kernel >= np.log(4.0 / zeta) - 1.0 - 1e-15 * np.maximum(1.0, kernel))


def test_reduced_root_at_weak_coupling():
    # C = 0.0255: the root sits at zeta ~ 1e-17, far below the old scan floor
    # |Q| = 1e-9; there I = ln 4 - ln|zeta| - 1 to rounding, so the root is
    # zeta = 4 e^{-1-1/C} in closed form
    p = base_params(alpha2=0.02, u=-0.02)
    coef = 2.0 * p.n_sites * abs(p.u) * p.alpha2 / (math.pi * p.t0)
    q = 4.0 * math.exp(-1.0 - 1.0 / coef) / abs(zeta_of(p, 1.0))
    sol = solve_gap(p, form="reduced")
    assert sol.roots == pytest.approx((-q, q), rel=1e-14)
    assert sol.q == sol.roots[0] and sol.residual <= 1e-15


@pytest.mark.parametrize("kw", [
    dict(alpha2=0.00112, u=-0.02),                                # C ~ 1/701, Q ~ 1e-303
    dict(t0=1e-6, u=-1.0, alpha2=math.pi * 1e-6 / (200 * 702)),   # C ~ 1/702, Q ~ 1e-311
])
def test_reduced_root_near_the_underflow_of_q(kw):
    # the stop of the root refinement stays relative to the root at roots
    # where an absolute floor such as 1e-300 would not be negligible, and
    # where Q itself is subnormal; 1/C ~ 700 leaves the closed form good to ~1e-13
    p = base_params(**kw)
    coef = 2.0 * p.n_sites * abs(p.u) * p.alpha2 / (math.pi * p.t0)
    q = 4.0 * math.exp(-1.0 - 1.0 / coef) / abs(zeta_of(p, 1.0))
    sol = solve_gap(p, form="reduced")
    assert sol.roots == pytest.approx((-q, q), rel=1e-12, abs=0.0)
    assert sol.residual <= 1e-10


def test_regime_report():
    p = base_params(alpha2=0.2, u=0.1)
    sol = solve_gap(p)
    assert sol.regime in ("modulus_lt_1", "modulus_gt_1", "exact_case")
    assert sol.zeta == pytest.approx(zeta_of(p, sol.q))


def test_discrete_sum_converges_to_continuum():
    p = base_params(t0=1.0, alpha1=0.8, alpha2=0.2, u=0.12, n_sites=80)
    q_cont = solve_gap(p).q
    diffs = [abs(solve_gap_discrete(p, n_k=n) - q_cont) for n in (32, 64, 128, 256)]
    assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))


def test_discrete_oracle_residual_definition():
    # trapezoid sum against direct adaptive integration of the same kernel
    p = base_params(alpha2=0.3, u=0.15)
    q = 0.8
    zeta = zeta_of(p, q)

    def integrand(k):
        eps = 2 * p.t0 * math.cos(k)
        gap = 4 * p.alpha1 * p.u * math.sin(k)
        return q * gap * math.sin(k) / math.hypot(eps, q * gap)

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2, epsabs=1e-13)
    expected = 1.0 + (p.alpha2 / (2 * p.alpha1)) * (-1.0) * 2 * (p.n_sites / math.pi) * val - q
    assert gap_residual_discrete(p, q, n_k=4001) == pytest.approx(expected, abs=1e-9)


# --- closed-form approximants ----------------------------------------------


def test_small_form_arithmetic():
    # radicand forced to 9 gives exactly t0 / (2u)
    p = base_params(t0=1.0, alpha1=1.0, alpha2=0.2, u=1.0, n_sites=10)
    # 25 - 32/(N u alpha2) = 9  <=>  N u alpha2 = 2
    assert p.n_sites * p.u * p.alpha2 == pytest.approx(2.0)
    ap = gap_approximations(p)
    assert ap.q_small == pytest.approx(p.t0 / (2 * p.u), rel=1e-14)


def test_large_form_limit_pair():
    # vanishing 80 a1 t0 / (9 N u alpha2) leaves the pair {0, -3 alpha2 N / 8}
    p = base_params(alpha2=0.5, u=1e9, n_sites=1000)
    ap = gap_approximations(p)
    base = -3 * p.alpha2 * p.n_sites / 8.0
    vals = sorted(ap.q_large_pair)
    assert vals[0] == pytest.approx(base, rel=1e-6)
    assert vals[1] == pytest.approx(0.0, abs=1e-4)


def test_negative_radicand_flags_inapplicable():
    # N u alpha2 = 0.1 makes 32 t0 alpha1 / (N u alpha2) = 320 > 25
    p = base_params(alpha2=0.1, u=0.01, n_sites=100)
    ap = gap_approximations(p)
    assert ap.q_small is None and not ap.q_small_valid


def test_small_form_tracks_solver_in_regime():
    # validity regime: |zeta| just below 1; the approximant's sign convention
    # is realized by the inverted population with u, alpha2 > 0
    n_sites, a2, big_b = 100, 0.1, 0.95
    p = base_params(alpha2=a2, u=2.0 * big_b / (n_sites * a2), n_sites=n_sites)
    sol = solve_gap(p, occ=Occupation.inverted(), form="reduced")
    q_true = max(sol.roots)
    ap = gap_approximations(p)
    assert ap.q_small_valid
    assert abs(ap.q_small - q_true) / q_true <= 0.10


def test_large_form_tracks_solver_in_regime():
    n_sites, a2, big_b = 100, 0.1, 1.05
    p = base_params(alpha2=a2, u=2.0 * big_b / (n_sites * a2), n_sites=n_sites)
    sol = solve_gap(p, occ=Occupation.inverted(), form="reduced")
    q_true = max(sol.roots)
    assert abs(zeta_of(p, q_true)) > 1.0
    ap = gap_approximations(p)
    best = min(abs(x - q_true) / q_true for x in ap.q_large_pair)
    assert best <= 0.10


# --- quasiparticle branches --------------------------------------------------


def test_ssh_branch_recovers_textbook_spectrum():
    p = base_params(alpha2=0.0)
    k = np.linspace(0.0, math.pi / 2, 33)
    e_c, e_v = band_energies(p, 1.0, k, BRANCH_SSH)
    eps = 2 * p.t0 * np.cos(k)
    gap = 4 * p.alpha1 * p.u * np.sin(k)
    assert np.allclose(e_c, np.hypot(eps, gap), atol=1e-14)
    assert np.array_equal(e_v, -e_c)


def test_band_edges_at_zone_start():
    p = base_params()
    e_ssh, _ = band_energies(p, 0.9, 0.0, BRANCH_SSH)
    e_near, _ = band_energies(p, 0.9, 0.0, BRANCH_NEAR_EQ)
    assert float(e_ssh) == pytest.approx(2 * p.t0, rel=1e-14)
    assert float(e_near) == pytest.approx(-2 * p.t0, rel=1e-14)


def test_particle_hole_symmetry():
    rng = np.random.default_rng(3)
    p = base_params()
    k = rng.uniform(0, math.pi / 2, size=64)
    for branch in (BRANCH_SSH, BRANCH_NEAR_EQ):
        e_c, e_v = band_energies(p, 1.4, k, branch)
        assert np.array_equal(e_v, -e_c)


def test_near_equilibrium_branch_changes_sign():
    # E_c crosses zero where Q |gap| = |eps|
    p = base_params(u=0.2)
    q = 1.5
    k = np.linspace(1e-3, math.pi / 2 - 1e-3, 2001)
    e_c, _ = band_energies(p, q, k, BRANCH_NEAR_EQ)
    assert e_c[0] < 0 < e_c[-1]
    crossing = k[np.argmin(np.abs(e_c))]
    eps = 2 * p.t0 * math.cos(crossing)
    gap = 4 * p.alpha1 * p.u * math.sin(crossing)
    assert abs(q * abs(gap) - abs(eps)) <= 1e-2


def test_unknown_branch_rejected():
    with pytest.raises(ValueError):
        band_energies(base_params(), 1.0, 0.3, "bogus")


# --- stability conditions -----------------------------------------------------


def test_ssh_branch_needs_inversion():
    p = base_params()
    k = np.linspace(0.05, math.pi / 2 - 0.05, 21)
    _, _, cond3_ground = stability_classify(p, 1.0, k, Occupation.ground(), BRANCH_SSH)
    assert not np.any(cond3_ground)
    _, _, cond3_inv = stability_classify(p, 1.0, k, Occupation.inverted(), BRANCH_SSH)
    assert np.all(cond3_inv)


def test_second_condition_branch_independent():
    p = base_params()
    k = np.linspace(0.05, math.pi / 2 - 0.05, 21)
    occ = Occupation.ground()
    _, cond2_a, _ = stability_classify(p, 1.3, k, occ, BRANCH_SSH)
    _, cond2_b, _ = stability_classify(p, 1.3, k, occ, BRANCH_NEAR_EQ)
    assert np.array_equal(cond2_a, cond2_b)


def test_near_equilibrium_branch_admissible_near_ground():
    p = base_params(u=0.3, alpha1=1.5)
    k = np.linspace(0.0, 0.5 * math.pi / p.a_lattice, 201)
    cond3 = stability_classify(p, solve_gap(p).q, k, Occupation.ground(), BRANCH_NEAR_EQ)[2]
    assert np.any(cond3)


# --- ground-state energy -------------------------------------------------------


def test_energy_at_undimerized_point():
    p = base_params(n_sites=60)
    assert ground_energy(p, 1.0, 0.0) == pytest.approx(
        4 * p.n_sites * p.t0 / math.pi, rel=1e-14)

    def integrand(k):
        return -abs(2 * p.t0 * math.cos(k))

    val, _ = integrate.quad(integrand, 0, math.pi / 2, epsabs=1e-13)
    oracle = -(2 * p.n_sites / math.pi) * (-val)
    assert ground_energy(p, 1.0, 0.0) == pytest.approx(-oracle, rel=1e-12)


def test_energy_symmetric_in_u():
    p = base_params(k_spring=2.0)
    grid = np.linspace(-0.3, 0.3, 31)
    e0 = energy_curve(ground_energy, p, 1.0, grid, "elliptic")
    assert np.max(np.abs(e0 - e0[::-1])) <= 1e-12 * np.max(np.abs(e0))


def test_elliptic_route_matches_quadrature():
    p = base_params(k_spring=2.0)
    q = 1.0
    for u in np.linspace(-0.45, 0.45, 13):
        assert abs(zeta_of(dataclasses.replace(p, u=u), q)) < 1.0
        assert abs(ground_energy(p, q, u, "elliptic")
                   - ground_energy(p, q, u, "quadrature")) <= 1e-8


def test_array_energies_match_pointwise():
    # u up to 0.6 puts zeta = 2 u on both sides of 1
    p = base_params(k_spring=2.0)
    q = 1.0
    u = np.concatenate([np.linspace(-0.6, 0.6, 49), [1e-7, -1e-7, 5e-6, 0.5]])
    assert ground_energy(p, q, u).tolist() == [ground_energy(p, q, x) for x in u.tolist()]
    few = u[::6]
    assert ground_energy(p, q, few, "quadrature").tolist() == \
        [ground_energy(p, q, x, "quadrature") for x in few.tolist()]
    small = ground_energy_smallz(p, q, u)
    assert small.tolist() == [ground_energy_smallz(p, q, x) for x in u.tolist()]
    assert small[24] == 4 * p.n_sites * p.t0 / math.pi      # u = 0
    # below |u| ~ 1e-308 the log overflows, but the -u^2 log u term is 0 in double
    tiny = ground_energy_smallz(p, q, np.array([5e-324, -2.2e-313, 1e-200]))
    assert tiny == pytest.approx(small[24], rel=1e-15)


@st.composite
def _u_grids(draw):
    """u grids of odd and even count, mirrored or not, either way round, with
    repeated points and +-0.0; zeta = 2 u Q reaches both sides of 1."""
    grid = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))
    if draw(st.booleans()):   # an exact mirror, with or without a centre
        grid = [-u for u in reversed(grid)] + draw(st.sampled_from([[], [0.0], [-0.0]])) + grid
    grid += draw(st.lists(st.sampled_from(grid + [0.0, -0.0]), max_size=4))
    return np.array(grid[::-1] if draw(st.booleans()) else grid)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(u_grid=_u_grids(), q=st.sampled_from([1.0, 0.93, -1.07]))
def test_curve_columns_match_pointwise_energies_bit_for_bit(u_grid, q):
    # each column is computed on the distinct |u| and read back per point
    p = base_params(k_spring=2.0)
    points = u_grid.tolist()
    for energy, *route in [(ground_energy, "elliptic"), (ground_energy, "quadrature"),
                           (ground_energy_smallz,)]:
        assert energy_curve(energy, p, q, u_grid, *route).tobytes() == \
            np.array([energy(p, q, u, *route) for u in points]).tobytes()


def test_small_gap_expansion_accuracy():
    p = base_params(k_spring=2.0)
    q = 1.0
    u = 0.05  # zeta = 0.1
    assert zeta_of(dataclasses.replace(p, u=u), q) == pytest.approx(0.1)
    full = ground_energy(p, q, u)
    approx = ground_energy_smallz(p, q, u)
    assert abs(full - approx) / abs(full) <= 0.01


def test_double_well_detected():
    # the -u^2 log u band term beats the elastic term at small u
    p = base_params(k_spring=2.0, n_sites=100)
    grid = np.linspace(-0.4, 0.4, 41)
    well = ground_state_energy(p, 1.0, grid)
    assert well.double_well
    assert well.u0 > 0.0
    assert well.well_depth > 0.0
    assert ground_energy(p, 1.0, well.u0) < ground_energy(p, 1.0, 0.0)


def test_minimum_next_to_inexact_grid_centre_is_refined():
    # np.linspace leaves this grid's centre at -4.4e-16; the grid argmin is
    # the first positive point, and the refined minimum lies below it
    p = base_params(t0=0.94011, alpha1=1.07618, alpha2=0.25285, u=-0.023257,
                    k_spring=1.71428, n_sites=58)
    q = solve_gap(p, Occupation.inverted()).q
    grid = np.linspace(-3.7697658239079703, 3.7697658239079703, 41)
    assert -1e-15 < grid[20] < 0.0
    well = ground_state_energy(p, q, grid)
    assert well.double_well
    assert well.u0 == pytest.approx(0.186834, abs=1e-6)
    assert well.u0 != pytest.approx(grid[21], abs=1e-4)


def test_minimum_beyond_grid_edge_is_an_error():
    # E0 still falls at u = 0.4 = 4 |u|: the edge point is no minimum
    p = base_params(u=-0.1)
    q = solve_gap(p, form="reduced").q
    grid = np.linspace(-0.4, 0.4, 41)
    with pytest.raises(WellEdgeError, match=r"edge \|u\| = 0\.4 .*widen u_scan"):
        ground_state_energy(p, q, grid)
    assert ground_energy(p, q, 0.4 + 1e-4) < ground_energy(p, q, 0.4)
    wider = ground_state_energy(p, q, np.linspace(-8.0, 8.0, 41))
    assert wider.double_well and 0.4 < wider.u0 < 7.6


def test_flat_curve_reports_no_well():
    # a stiff lattice keeps the minimum at u = 0
    p = base_params(k_spring=500.0)
    grid = np.linspace(-0.2, 0.2, 21)
    assert ground_state_energy(p, 0.2, grid) == Well(0.0, 0.0, False)


def test_asymmetric_grid_rejected():
    p = base_params()
    with pytest.raises(ValueError):
        ground_state_energy(p, 1.0, np.linspace(-0.1, 0.3, 11))


# --- parameter validation ------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        base_params(t0=-1.0)
    with pytest.raises(ValueError):
        base_params(n_sites=101)
    with pytest.raises(ValueError):
        base_params(alpha1=0.0)
    with pytest.raises(ValueError):
        Occupation(n_c=1.5, n_v=0.0)
