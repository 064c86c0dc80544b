"""Fermi-liquid generalization of the dimerized tight-binding chain.

Band structure epsilon_k = 2 t0 cos(ka) with a dimerization gap
Delta_k = 4 alpha1 u sin(ka); a pairwise interaction alpha2 renormalizes
the gap by a self-consistent enhancement factor Q,

    Q = 1 + (alpha2 / 2 alpha1) sum_{k,s} Q Delta_k sin(ka)
            / sqrt(eps_k^2 + Q^2 Delta_k^2) * (n_c - n_v).

Everything is controlled by the dimensionless combination
zeta = 2 alpha1 u Q / t0: the continuum kernel

    I(zeta) = int_0^{pi/2} sin^2 y / sqrt(cos^2 y + zeta^2 sin^2 y) dy

is Carlson's symmetric integral R_D(0, zeta^2, 1) / 3 on both sides of
|zeta| = 1 (DLMF 19.25.1), and so is the band kernel J of the ground-state
energy; one body over scipy's elliprd ufunc serves a number and an array.
The quadrature route, its independent oracle, takes both kernels by the
trapezoid rule in s, cot y = w sinh s, on whole arrays.  The solver scans
for sign changes on the elliptic route and refines each bracket it finds
with brentq on the chosen route's own residual, so the quadrature route
still yields its own roots.

Two quasiparticle branches come out of the extremum conditions:
"ssh_like" with energies +-sqrt(eps^2 + Q^2 Delta^2) (stable only under
population inversion) and "near_equilibrium" with energies
+-(Q^2 Delta^2 - eps^2)/sqrt(eps^2 + Q^2 Delta^2).  The ground-state
energy of the near-equilibrium branch is a symmetric double well in u
(a -u^2 log u term beats the elastic u^2 term at small u).

Natural units a_lattice = 1 are the default; couplings are in energy
units per length of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize  # noqa: F401
from scipy.special import elliprd

# bench/tracing.py wraps quad, elliptic_K and elliptic_E under these module
# attributes, as it wraps brentq and minimize_scalar through optimize, so
# they stay although nothing here calls them.
from .elliptic import elliptic_E, elliptic_K  # noqa: F401


@dataclass(frozen=True)
class SshParams:
    t0: float
    alpha1: float
    alpha2: float
    u: float
    k_spring: float = 1.0
    n_sites: int = 100
    a_lattice: float = 1.0

    def __post_init__(self):
        if self.t0 <= 0:
            raise ValueError("hopping t0 must be positive")
        if self.alpha1 == 0:
            raise ValueError("one-particle coupling alpha1 must be nonzero")
        if self.n_sites < 2 or self.n_sites % 2:
            raise ValueError("n_sites must be a positive even number")
        if self.a_lattice <= 0:
            raise ValueError("lattice constant must be positive")


@dataclass(frozen=True)
class Occupation:
    """Uniform band occupations; delta = n_c - n_v drives the gap equation."""

    n_c: float
    n_v: float

    def __post_init__(self):
        for n in (self.n_c, self.n_v):
            if not 0.0 <= n <= 1.0:
                raise ValueError("occupations live in [0, 1]")

    @classmethod
    def ground(cls) -> "Occupation":
        return cls(n_c=0.0, n_v=1.0)

    @classmethod
    def inverted(cls) -> "Occupation":
        return cls(n_c=1.0, n_v=0.0)

    @property
    def delta(self) -> float:
        return self.n_c - self.n_v


class GapSolverError(ValueError):
    def __init__(self, message, residual_curve=None):
        super().__init__(message)
        self.residual_curve = residual_curve


class WellEdgeError(ValueError):
    """The minimum of E0(u) lies beyond the u grid: E0 still falls at its edge."""


BRANCH_SSH = "ssh_like"
BRANCH_NEAR_EQ = "near_equilibrium"


def eps_k(p: SshParams, k):
    return 2.0 * p.t0 * np.cos(k * p.a_lattice)


def delta_k(p: SshParams, k):
    return 4.0 * p.alpha1 * p.u * np.sin(k * p.a_lattice)


def zeta_of(p: SshParams, q: float) -> float:
    """Dimensionless gap scale 2 alpha1 u Q / t0."""
    return 2.0 * p.alpha1 * p.u * q / p.t0


def bogoliubov_coeffs(p: SshParams, q: float, k):
    """(alpha_k, beta_k, alpha_k * beta_k).

    beta^2 = (1 + eps/E)/2, alpha^2 = (1 - eps/E)/2 with
    E = sqrt(eps^2 + Q^2 Delta^2); the product is Q Delta / (2 E).  The
    point eps = Delta = 0 is degenerate; u = 0 uses the no-mixing
    convention (alpha, beta) = (1, 0).
    """
    k = np.asarray(k, dtype=float)
    eps = eps_k(p, k)
    dlt = delta_k(p, k)
    if p.u == 0.0:
        alpha = np.ones_like(eps)
        beta = np.zeros_like(eps)
        return alpha, beta, alpha * beta
    energy = np.hypot(eps, q * dlt)
    if np.any(energy == 0.0):
        raise ValueError("degenerate point eps_k = Delta_k = 0")
    beta_sq = 0.5 * (1.0 + eps / energy)
    alpha_sq = 0.5 * (1.0 - eps / energy)
    product = 0.5 * q * dlt / energy
    alpha = np.sqrt(alpha_sq)
    # beta carries the product's sign so that alpha * beta matches it
    beta = np.where(product >= 0.0, 1.0, -1.0) * np.sqrt(beta_sq)
    return alpha, beta, product


# Past these |zeta|, zeta^2 or R_D leaves the normal floats (R_D(0, 1, zeta^2)
# overflows near |zeta| = 1e-154, elliprd returns nan near 1e154); there the
# kernels take their leading asymptotes, which are exact in double.
_EDGES = (1e-150, 1e150)
_LN2 = math.log(2.0)
_LN4_MINUS_1 = math.log(4.0) - 1.0


def _carlson(zeta, body, below, above):
    """body(|zeta|) for a number or an array, by ufuncs over elliprd; |zeta|
    outside _EDGES takes below(|zeta|) or above(|zeta|) instead.

    A number inside the edges goes straight to the bare ufuncs.
    """
    za = np.abs(zeta)
    far = (za < _EDGES[0]) | (za > _EDGES[1])
    if not (far.any() if far.ndim else far):
        return body(za)
    with np.errstate(divide="ignore", over="ignore"):  # I(0) = inf; 1/|zeta| unused below 1
        edge = np.where(za < 1.0, below(za), above(za))
        return np.where(far, edge, body(np.where(far, 1.0, za)))[()]


# The trapezoid oracle's step in s and reach past s = ln(2/w), where its integrands
# fall as e^{-3s} and e^{-s}; blocks of at most _BLOCK (zeta, node) cells bound its memory.
_STEP, _REACH, _BLOCK = 0.15, 40.0, 8192


def _trapezoid_kernels(zeta):
    """(I, J) for a number or an array by the trapezoid rule, the oracle that
    shares no code with the elliptic route.

    With x = cot y = w sinh s and w = min(|zeta|, 1/|zeta|), the even integrals
    A(w) = int_0^inf (1 + x^2)^(-3/2) ds and C(w) = int_0^inf x^2 (1 + x^2)^(-3/2) ds
    give I = A and J = zeta^2 A - C for |zeta| <= 1, I = C / |zeta| and
    J = |zeta| C - w A above.  Both integrands are analytic in |Im s| < pi/2, so
    the rule converges geometrically (Trefethen & Weideman, SIAM Rev. 56:385,
    2014); they are computed in ln x, so nothing overflows down to 5e-324.
    Each point's node count, a multiple of 16 past ln(2/w) + _REACH, depends
    on its own w only: a number gives the same bits alone as in an array.
    """
    za = np.abs(np.asarray(zeta, dtype=float))
    flat = za.ravel()
    with np.errstate(divide="ignore"):   # zeta = 0: ln w = -inf, no nodes, A = inf, C = 1
        ln_w = -np.abs(np.log(flat))
    counts = 16.0 * np.ceil((_LN2 + _REACH - ln_w) / (16.0 * _STEP))
    a, c = np.full(flat.shape, math.inf), np.ones(flat.shape)
    for n in np.unique(counts[np.isfinite(counts)]).astype(int).tolist():
        s = _STEP * np.arange(1, n + 1)
        # ln sinh s = s - ln 2 + ln(1 - e^{-2s}), whose last term rounds away past s = 30
        ln_sinh = np.where(s < 30.0, np.log(np.sinh(np.minimum(s, 30.0))), s - _LN2)
        rows, per = np.flatnonzero(counts == n), max(1, _BLOCK // n)
        for block in (rows[i:i + per] for i in range(0, rows.size, per)):
            ln_x2 = 2.0 * (ln_w[block, None] + ln_sinh)
            ln_a = -1.5 * np.logaddexp(0.0, ln_x2)   # ln (1 + x^2)^(-3/2)
            a[block] = _STEP * (0.5 + np.sum(np.exp(ln_a), axis=-1))   # s = 0 adds 1/2
            c[block] = _STEP * np.sum(np.exp(ln_x2 + ln_a), axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # in branches discarded
        big_i = np.where(flat > 1.0, c / flat, a)
        big_j = np.where(flat > 1.0, flat * c - np.exp(ln_w) * a,
                         np.where(flat == 0.0, -1.0, flat * flat * a - c))
    return big_i.reshape(za.shape)[()], big_j.reshape(za.shape)[()]


def gap_kernel(zeta, method: str = "elliptic"):
    """I(zeta) = int_0^{pi/2} sin^2 y / sqrt(cos^2 y + zeta^2 sin^2 y) dy, for
    a number or an array; even in zeta, log-divergent at zeta -> 0.

    The elliptic route is Carlson's I = R_D(0, zeta^2, 1) / 3 (DLMF 19.25.1);
    beyond the edges I = ln 4 - ln|zeta| - 1 below and 1/|zeta| above.
    """
    if method == "quadrature":
        return _trapezoid_kernels(zeta)[0]
    if method != "elliptic":
        raise ValueError(f"unknown kernel method {method!r}")
    return _carlson(zeta, lambda za: elliprd(0.0, za * za, 1.0) / 3.0,
                    lambda za: _LN4_MINUS_1 - np.log(za), lambda za: 1.0 / za)


def _coupling_coefficient(p: SshParams, occ: Occupation) -> float:
    """delta_occ * 2 N u alpha2 / (pi t0): the continuum prefactor of Q I(zeta)."""
    return occ.delta * 2.0 * p.n_sites * p.u * p.alpha2 / (math.pi * p.t0)


def gap_residual(p: SshParams, q, occ: Occupation = None,
                 method: str = "elliptic", form: str = "full"):
    """Self-consistency residual at trial Q: a float for a number, an array for an array.

    form="full":    1 + C * Q * I(zeta(Q)) - Q          (C the coupling coefficient)
    form="reduced": C * I(zeta(Q)) - 1                  (strong-coupling normal form)
    """
    occ = occ or Occupation.ground()
    coef = _coupling_coefficient(p, occ)
    q = np.asarray(q, dtype=float)[()]   # a number: a numpy scalar, cheaper than 0-d
    zeta = zeta_of(p, q)
    if form == "full":
        term = 0.0
        if coef != 0.0:
            # I(0) is infinite: Q = 0 takes I(1) instead, so that Q * I is 0 there;
            # any other zeta is left as it is (zeta + 0)
            term = coef * q * gap_kernel(zeta + (q == 0.0), method)
        res = 1.0 + term - q
    elif form == "reduced":
        if (q == 0.0).any():
            raise ValueError("reduced residual is undefined at Q = 0")
        if coef == 0.0:
            res = np.full(q.shape, -1.0)[()]
        else:
            res = coef * gap_kernel(zeta, method) - 1.0
    else:
        raise ValueError(f"unknown form {form!r}")
    return res if isinstance(res, np.ndarray) else float(res)


def gap_residual_discrete(p: SshParams, q, occ: Occupation = None, n_k: int = 64):
    """Brillouin-sum residual: trapezoid k-grid on [0, pi/2a], spin factor 2.

    The lattice sum that the continuum integral of `gap_residual` replaces,
    kept as the oracle the tests compare the continuum solver against.  q may
    be an array; a number q gives a float.
    """
    occ = occ or Occupation.ground()
    q = np.asarray(q, dtype=float)
    k = np.linspace(0.0, 0.5 * math.pi / p.a_lattice, n_k)
    w = np.full(n_k, k[1] - k[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    gap = q[..., None] * delta_k(p, k)    # one row of k per Q
    energy = np.hypot(eps_k(p, k), gap)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with a zero, replaced by 0
        integrand = np.where(np.any(energy == 0.0, axis=-1, keepdims=True), 0.0,
                             gap * np.sin(k * p.a_lattice) / energy)
    total = 2.0 * (p.n_sites * p.a_lattice / math.pi) * np.sum(w * integrand, axis=-1)
    res = 1.0 + (p.alpha2 / (2.0 * p.alpha1)) * occ.delta * total - q
    return res if np.ndim(res) else float(res)


@dataclass
class GapSolution:
    q: float
    roots: tuple
    residual: float
    regime: str
    zeta: float


def _scan_roots(fn, grid, vals, route):
    """Roots of fn over the brackets where vals, a scan of grid, vanishes or
    changes sign between finite neighbours, each refined by brentq to a
    tolerance relative to the root alone, so that a root of 1e-303 or of 1e-10
    is fixed as well as one of 1; a subnormal root, below 2.2e-308, only to
    the spacing 4.9e-324 of the subnormal numbers.

    vals may come from another route than fn; a bracket over which fn keeps
    its sign raises GapSolverError naming the route, the bracket and fn at
    both ends, and one on which brentq does not converge raises it naming
    the route and the bracket, each with (grid, vals) as its residual curve.
    """
    fa, fb = vals[:-1], vals[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite pairs are masked out
        hits = np.flatnonzero(np.isfinite(fa) & np.isfinite(fb)
                              & ((fa == 0.0) | (fa * fb < 0.0)))
    roots = []
    for i in hits.tolist():
        a, b = grid[i], grid[i + 1]
        if vals[i] == 0.0:
            roots.append(a)
            continue
        # refined in s = Q / scale, scale the power of two at or above the
        # bracket: exact, so a normal root takes the same steps as in Q, but
        # the stop rtol |s| stays normal where Q, and rtol |Q|, would not be
        scale = math.ldexp(1.0, math.frexp(max(abs(a), abs(b)))[1])
        try:
            roots.append(scale * optimize.brentq(lambda s: fn(scale * s), a / scale, b / scale,
                                                 xtol=5e-324, rtol=8.9e-16))
        except ValueError:
            ra, rb = fn(a), fn(b)
            if not ra * rb > 0.0:  # brentq's own sign test passed: another fault
                raise
            raise GapSolverError(
                f"the {route} residual keeps its sign over the scanned bracket "
                f"[{float(a)!r}, {float(b)!r}]: {float(ra)!r} and {float(rb)!r} at its ends",
                residual_curve=(grid, vals)) from None
        except RuntimeError as exc:   # brentq's iteration cap
            raise GapSolverError(
                f"brentq did not converge on the {route} residual over the scanned bracket "
                f"[{float(a)!r}, {float(b)!r}]: {exc}", residual_curve=(grid, vals)) from None
    if len(grid) and vals[-1] == 0.0:
        roots.append(grid[-1])
    # deduplicate nearby refinements
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


def _regime(zeta: float) -> str:
    az = abs(zeta)
    if abs(az - 1.0) <= 1e-9:
        return "exact_case"
    return "modulus_lt_1" if az < 1.0 else "modulus_gt_1"


def _scan_grid(p: SshParams, form: str, coef: float) -> np.ndarray:
    """The trial Q a gap solve scans, within |Q| <= max(10 N |alpha2 / alpha1|, 10).

    The full form scans 600 points of a uniform grid.  The reduced form's
    kernel diverges at Q = 0, so it scans magnitudes logarithmically.  At a
    coupling coefficient C > 0 it scans 300 positive Q from the floor
    |zeta| = 2 e^{-1-1/C}: I(zeta) >= ln(4/|zeta|) - 1, so C I(zeta) > 1 below
    it; GapSolverError if that floor underflows.  At C <= 0, where C I(zeta)
    = 1 has no root, it scans 300 magnitudes of each sign from 1e-9.
    """
    qmax = max(10.0 * abs(p.alpha2) * p.n_sites / abs(p.alpha1), 10.0)
    if form == "full":
        return np.linspace(-qmax, qmax, 600)
    if coef <= 0.0:
        mags = np.geomspace(max(1e-9, 1e-12 * (2.0 * qmax)), qmax, 300)
        return np.concatenate([-mags[::-1], mags])
    zeta_floor = 2.0 * math.exp(-1.0 - 1.0 / coef)
    if zeta_floor < np.finfo(float).tiny:
        raise GapSolverError(f"the reduced-form root lies below |zeta| = 2 exp(-1 - 1/C), "
                             f"which underflows at the coupling coefficient C = {coef!r}")
    return np.geomspace(zeta_floor / abs(zeta_of(p, 1.0)), qmax, 300)


def solve_gap(p: SshParams, occ: Occupation = None, method: str = "elliptic",
              form: str = "full") -> GapSolution:
    """Solve the self-consistency equation for the enhancement factor Q.

    The residual is scanned on the elliptic route over the grid of
    `_scan_grid`; every sign change found there is refined by brentq on the
    residual of `method`, and all those roots are returned.  The reduced
    form at C > 0 falls with |Q| and is even in Q: its one root in |Q| is
    returned with its mirror as the pair (-Q, Q).  The primary root is
    the one closest to the noninteracting value Q = 1 for the full form, and
    the largest-magnitude root for the reduced form; `residual` is
    |residual| there on `method`.  Raises :class:`GapSolverError` with the
    scanned elliptic residual curve when no root lies on the scanned range,
    or when the residual of `method` keeps its sign over a bracket of the
    scan, and without a curve when the reduced form's floor underflows.
    """
    occ = occ or Occupation.ground()
    coef = _coupling_coefficient(p, occ)

    def fn(q):
        return gap_residual(p, q, occ, method, form)

    grid = _scan_grid(p, form, coef)
    vals = gap_residual(p, grid, occ, "elliptic", form)
    mirrored = form == "reduced" and coef > 0.0
    roots = _scan_roots(fn, grid, vals, method)
    if mirrored:
        roots = [-r for r in reversed(roots)] + roots
    if not roots:
        raise GapSolverError("no root of the gap equation inside the bracket",
                             residual_curve=(grid, vals))
    if form == "full":
        primary = min(roots, key=lambda r: abs(r - 1.0))
    else:
        primary = max(roots, key=abs)
    zeta = zeta_of(p, primary)
    return GapSolution(q=primary, roots=tuple(roots), residual=abs(fn(primary)),
                       regime=_regime(zeta), zeta=zeta)


def solve_gap_discrete(p: SshParams, occ: Occupation = None, n_k: int = 64) -> float:
    """Root of the Brillouin-sum residual (oracle for the continuum solver)."""
    occ = occ or Occupation.ground()
    grid = _scan_grid(p, "full", 0.0)
    vals = gap_residual_discrete(p, grid, occ, n_k)
    roots = _scan_roots(lambda q: gap_residual_discrete(p, q, occ, n_k), grid, vals,
                        "discrete-sum")
    if not roots:
        raise GapSolverError("no discrete-sum root inside the bracket",
                             residual_curve=(grid, vals))
    return min(roots, key=lambda r: abs(r - 1.0))


@dataclass(frozen=True)
class GapApproximations:
    q_small: float          # None when the radicand is negative
    q_small_valid: bool
    q_large_pair: tuple     # (plus, minus), or None when the radicand is negative


def gap_approximations(p: SshParams) -> GapApproximations:
    """Closed-form approximants of the reduced gap equation.

    Below the gap scale:  Q ~ (t0 / 6u) sqrt(25 - 32 t0 alpha1 / (N u alpha2)),
    valid while sqrt(.)/3 < 1.  Above it:
    Q ~ (-3 alpha2 N / 16)(1 +- sqrt(1 + 80 alpha1 t0 / (9 N u alpha2))).
    A negative radicand marks the approximation inapplicable (None).
    """
    if p.u == 0.0 or p.alpha2 == 0.0:
        raise ValueError("approximants need nonzero u and alpha2")
    small_rad = 25.0 - 32.0 * p.t0 * p.alpha1 / (p.n_sites * p.u * p.alpha2)
    if small_rad >= 0.0:
        q_small = (p.t0 / (6.0 * p.u)) * math.sqrt(small_rad)
        small_valid = math.sqrt(small_rad) / 3.0 < 1.0
    else:
        q_small, small_valid = None, False
    large_rad = 1.0 + 80.0 * p.alpha1 * p.t0 / (9.0 * p.n_sites * p.u * p.alpha2)
    q_large = None
    if large_rad >= 0.0:
        root = math.sqrt(large_rad)
        base = -3.0 * p.alpha2 * p.n_sites / 16.0
        q_large = (base * (1.0 + root), base * (1.0 - root))
    return GapApproximations(q_small, small_valid, q_large)


def band_energies(p: SshParams, q: float, k, branch: str):
    """(E_c, E_v) along k for one quasiparticle branch; E_v = -E_c."""
    k = np.asarray(k, dtype=float)
    eps = eps_k(p, k)
    gap = q * delta_k(p, k)
    energy = np.hypot(eps, gap)
    if branch == BRANCH_SSH:
        e_c = energy
    elif branch == BRANCH_NEAR_EQ:
        with np.errstate(invalid="ignore", divide="ignore"):
            e_c = np.where(energy > 0.0, (gap**2 - eps**2) / np.where(energy == 0, 1, energy), 0.0)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return e_c, -e_c


def stability_classify(p: SshParams, q: float, k, occ: Occupation, branch: str):
    """The three sufficient minimum conditions, evaluated pointwise in k.

    The third condition forces the ssh_like branch into the inverted-
    population sector: its bracket is positive, so n_c > n_v is required.
    The second condition is branch-independent.
    """
    k = np.asarray(k, dtype=float)
    eps = eps_k(p, k)
    gap2 = (q * delta_k(p, k)) ** 2
    energy = np.sqrt(eps**2 + gap2)
    safe = np.where(energy == 0.0, 1.0, energy)
    delta_occ = occ.delta

    lhs1 = eps * (1.0 - eps / safe) if branch == BRANCH_SSH \
        else eps * (1.0 + eps / safe)
    rhs1 = gap2 / safe
    if delta_occ < 0:
        cond1 = lhs1 < rhs1
    elif delta_occ > 0:
        cond1 = lhs1 > rhs1
    else:
        cond1 = np.zeros_like(lhs1, dtype=bool)

    cond2 = (eps**2 / safe - 2.0 * gap2 / safe) ** 2 - eps**2 + 0.25 * gap2 > 0.0

    bracket3 = (3.0 * gap2 + 4.0 * eps**2) / safe if branch == BRANCH_SSH \
        else (3.0 * gap2 - 4.0 * eps**2) / safe
    cond3 = bracket3 * delta_occ > 0.0
    return cond1, cond2, cond3


# ---------------------------------------------------------------------------
# ground-state energy of the near-equilibrium branch


def _band_kernel(zeta, method: str = "elliptic"):
    """J(zeta) = int_0^{pi/2} (zeta^2 sin^2 y - cos^2 y) / sqrt(cos^2 y + zeta^2 sin^2 y) dy,
    for a number or an array; J(0) = -1.

    The elliptic route is J = zeta^2 (R_D(0, zeta^2, 1) - R_D(0, 1, zeta^2)) / 3,
    whose second term is the cos^2 integral (DLMF 19.25.1 with y -> pi/2 - y),
    free of cancellation; beyond the edges J = -1 below and |zeta| above.
    """
    if method == "quadrature":
        return _trapezoid_kernels(zeta)[1]
    if method != "elliptic":
        raise ValueError(f"unknown kernel method {method!r}")

    def body(za):
        z2 = za * za
        return z2 * (elliprd(0.0, z2, 1.0) - elliprd(0.0, 1.0, z2)) / 3.0

    return _carlson(zeta, body, lambda za: -1.0, lambda za: za)


def ground_energy(p: SshParams, q: float, u, method: str = "elliptic"):
    """E0(u) of the near-equilibrium branch at fixed Q, plus elastic energy.

    u may be an array, on which both routes evaluate J whole; a number u
    gives a float.  Where 2 N K u^2 overflows, E0 is inf (nan at u = 0),
    without a numpy warning: the callers check that E0 is finite.
    """
    u = np.asarray(u, dtype=float)[()]   # a number: a numpy scalar, cheaper than 0-d
    zeta = 2.0 * p.alpha1 * u * q / p.t0   # zeta_of at dimerization u
    band = _band_kernel(zeta, method)
    if not u.ndim:   # float arithmetic warns of nothing, and costs no errstate per call
        return _plus_elastic(p, float(band), float(u))
    with np.errstate(over="ignore", invalid="ignore"):   # 2 N K may overflow: inf * 0 at u = 0
        return _plus_elastic(p, band, u)


def _plus_elastic(p: SshParams, band, u):
    """-(4 N t0 / pi) J + 2 N K u^2: E0 from the band kernel J, for a float or an array."""
    return -(4.0 * p.n_sites * p.t0 / math.pi) * band + 2.0 * p.n_sites * p.k_spring * u * u


def ground_energy_smallz(p: SshParams, q: float, u):
    """Small-gap expansion: the -u^2 log u well plus the elastic term; u may be an array."""
    u = np.asarray(u, dtype=float)
    qa = abs(q * p.alpha1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # u = 0, replaced below
        log_term = np.log(2.0 * p.t0 / (qa * np.abs(u)))
        # the log is +inf where qa |u| < 2 t0 / 1.8e308, so that quad, its
        # square, is 0: the -u^2 log u term is 0 there, not inf * 0 = nan
        log_term = np.where(log_term == math.inf, 0.0, log_term)
        quad = 4.0 * qa * qa * u * u / p.t0
        per_site = (4.0 * p.t0 / math.pi
                    - (6.0 / math.pi) * log_term * quad
                    + 28.0 * qa * qa * u * u / (math.pi * p.t0))
        energy = p.n_sites * per_site + 2.0 * p.n_sites * p.k_spring * u * u
    energy = np.where(u == 0.0, 4.0 * p.n_sites * p.t0 / math.pi, energy)
    return energy if energy.ndim else float(energy)


def symmetric_about_zero(u_grid) -> bool:
    """Whether u_grid is its own mirror about u = 0, to 1e-12 times the larger
    of 1 and its largest |u|."""
    return bool(np.max(np.abs(u_grid + u_grid[::-1]))
                <= 1e-12 * max(1.0, np.max(np.abs(u_grid))))


def energy_curve(energy, p: SshParams, q: float, u_grid, *route) -> np.ndarray:
    """The column energy(p, q, u, *route) over a u grid, in one call over its
    distinct |u|: u enters E0 only as |zeta| and u * u, so E0(-u) is E0(u)
    bit for bit, and a mirrored grid costs half."""
    magnitudes, inverse = np.unique(np.abs(u_grid), return_inverse=True)
    return energy(p, q, magnitudes, *route)[inverse]


@dataclass(frozen=True)
class Well:
    """The minimum +-u0 of E0(u) and its depth below E0(0); a flat curve: 0, 0, False."""
    u0: float
    well_depth: float
    double_well: bool


def locate_minimum(p: SshParams, q: float, u_grid: np.ndarray, e0: np.ndarray) -> Well:
    """The minimum of E0(u) on a grid symmetric about 0, from its elliptic column e0.

    The curve is even in u (u enters through zeta^2 and u^2), so the
    points at or above 0 are taken in increasing order, with u = 0 put
    in front when no point lies there (a grid of even count).  A minimum
    at the first of them is a flat curve, reported with double_well =
    False; one at the last raises WellEdgeError; any other is refined
    by golden-section search between its neighbours.  An E0 that is not
    finite, at those points or at the refined minimum, raises ValueError.
    """
    if not symmetric_about_zero(u_grid):
        raise ValueError("u grid must be symmetric about 0")
    tol = 1e-12 * max(1.0, np.max(np.abs(u_grid)))
    e_at_zero = ground_energy(p, q, 0.0, "elliptic")
    order = np.argsort(u_grid, kind="stable")
    # np.linspace(-U, U, n) can leave its centre at -4e-16; keeping it gives
    # a minimum at the first positive point a bracket to refine in
    pos = order[u_grid[order] >= -tol]
    u_pos, e_pos = u_grid[pos], e0[pos]
    if u_pos[0] > tol:
        u_pos, e_pos = np.insert(u_pos, 0, 0.0), np.insert(e_pos, 0, e_at_zero)
    _check_finite(np.append(u_pos, 0.0), np.append(e_pos, e_at_zero))
    i_min = int(np.argmin(e_pos))
    u0 = float(u_pos[i_min])
    if 0 < i_min == len(u_pos) - 1:
        raise WellEdgeError(f"E0(u) is still falling at the edge |u| = {u0!r} of the "
                            f"u grid; widen u_scan past it")
    if i_min > 0:
        res = optimize.minimize_scalar(
            lambda u: ground_energy(p, q, u, "elliptic"),
            bracket=(u_pos[i_min - 1], u_pos[i_min], u_pos[i_min + 1]),
            method="golden", options={"xtol": 1e-12})
        u0 = float(abs(res.x))
    e_at_min = ground_energy(p, q, u0, "elliptic")
    _check_finite(np.array([u0]), np.array([e_at_min]))
    well_depth = e_at_zero - e_at_min
    double = bool(u0 > 1e-9 * max(1.0, np.max(np.abs(u_grid)))
                  and well_depth > 1e-12 * max(1.0, abs(e_at_zero)))
    if not double:
        u0 = 0.0
        well_depth = 0.0
    return Well(u0, well_depth, double)


def _check_finite(u, e0, column=None):
    """ValueError naming the first u at which E0 is not finite: in the named
    column of a sweep, or else at a point of the minimum search, where np.argmin
    would read a nan or an infinity as a minimum."""
    bad = ~np.isfinite(e0)
    if bad.any():
        raise ValueError(f"{column or 'E0(u)'} is not finite at u = {float(u[bad][0])!r} "
                         f"(E0 = {float(e0[bad][0])!r})"
                         + ("" if column else ", so no minimum can be located"))


def ground_state_energy(p: SshParams, q: float, u_grid) -> Well:
    """The dimerization minimum of E0 over a symmetric u grid."""
    u_grid = np.asarray(u_grid, dtype=float)
    return locate_minimum(p, q, u_grid, energy_curve(ground_energy, p, q, u_grid, "elliptic"))
