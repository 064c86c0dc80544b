"""Mode quantization on a truncated number basis, in three schemes.

Time-local ladder operators carry exp(-i w t) phases and the action
constant hbar; space-local ones carry exp(-i k z) phases and the spatial
action constant lambda0; the space-time scheme works on the tensor product
of a z-factor and a t-factor space and its canonical "constant" is the
operator-valued commutator whose symmetrized form reduces to the scalar
-hbar*lambda0.

Truncation breaks [a, a+] = 1 in the top number state; every operator
identity here is therefore asserted on the "safe block" that excludes the
highest state of each factor space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cavity import CavityModel


class SchemeKind(Enum):
    TIME_LOCAL = "time_local"
    SPACE_LOCAL = "space_local"
    SPACETIME_LOCAL = "spacetime_local"


@dataclass(frozen=True)
class QuantizationScheme:
    kind: SchemeKind
    hbar: float
    lambda0: float

    @property
    def action_constant(self) -> float:
        """hbar, lambda0 or their (negated) product, by scheme."""
        if self.kind is SchemeKind.TIME_LOCAL:
            return self.hbar
        if self.kind is SchemeKind.SPACE_LOCAL:
            return self.lambda0
        return -self.hbar * self.lambda0


@dataclass(frozen=True)
class FockOperator:
    dim: int
    entries: np.ndarray


def make_ladder(dim: int):
    """Annihilation and creation matrices; a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return FockOperator(dim, a), FockOperator(dim, a.conj().T)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def safe_block(m: np.ndarray, exclude: int = 1) -> np.ndarray:
    """Drop the top `exclude` number states (rows and columns)."""
    n = m.shape[0] - exclude
    return m[:n, :n]


def tensor_safe_mask(dim: int, exclude: int = 1) -> np.ndarray:
    """Boolean mask of tensor-basis states safe in both factors."""
    keep = np.arange(dim) < dim - exclude
    return np.kron(keep, keep).astype(bool)


def tensor_safe_block(m: np.ndarray, dim: int, exclude: int = 1) -> np.ndarray:
    mask = tensor_safe_mask(dim, exclude)
    return m[np.ix_(mask, mask)]


def time_local_operators(model: CavityModel, dim: int, t: float):
    """Per-mode (a(t), a+(t)) with a(t) = a(0) exp(-i w t)."""
    a0, ad0 = make_ladder(dim)
    out = []
    for w in model.omegas:
        out.append((a0.entries * np.exp(-1j * w * t),
                    ad0.entries * np.exp(1j * w * t)))
    return out


def space_local_operators(model: CavityModel, dim: int, z: float):
    """Per-mode (a''(z), a''+(z)) with a''(z) = a(0) exp(-i k z)."""
    if not 0.0 <= z <= model.length:
        raise ValueError("z outside the cavity")
    a0, ad0 = make_ladder(dim)
    out = []
    for k in model.wavenumbers:
        out.append((a0.entries * np.exp(-1j * k * z),
                    ad0.entries * np.exp(1j * k * z)))
    return out


def mode_hamiltonian_matrix(dim: int, action: float, omega: float) -> np.ndarray:
    """action * omega * (n + 1/2) on the truncated basis."""
    n = np.arange(dim)
    return np.diag(action * omega * (n + 0.5)).astype(complex)


def space_hamiltonian(model: CavityModel, dim: int, z: float, lambda0: float):
    """Per-mode position-indexed Hamiltonians lambda0 w (a''+ a'' + 1/2)."""
    ops = space_local_operators(model, dim, z)
    return [lambda0 * w * (ad @ a + 0.5 * np.eye(dim))
            for w, (a, ad) in zip(model.omegas, ops)]


def trig_ansatz_consistency(dim: int, omega: float, times) -> dict:
    """Consistency check ruling out a+(t) = a+(0) cos(w t).

    That ansatz forces (a+(0) - a(0))^{-1} (a+(0) + a(0)) = tan(w t) * id
    with a time-independent left side; evaluating the implied right side at
    two different times exposes the contradiction.
    """
    a0, ad0 = make_ladder(dim)
    lhs = np.linalg.solve(ad0.entries - a0.entries, ad0.entries + a0.entries)
    rhs = [math.tan(omega * t) for t in times]
    mismatch = max(float(np.max(np.abs(lhs - r * np.eye(dim)))) for r in rhs)
    spread = max(rhs) - min(rhs)
    return {
        "lhs_time_independent": True,
        "rhs_values": rhs,
        "rhs_spread": spread,
        "mismatch": mismatch,
        "consistent": bool(spread == 0.0 and mismatch == 0.0),
    }


def quadrature_pair(a: np.ndarray, ad: np.ndarray, mass: float, omega: float,
                    action: float):
    """(q, p) built from a ladder pair with the given action constant."""
    q = math.sqrt(action / (2.0 * mass * omega)) * (ad + a)
    p = 1j * math.sqrt(action * mass * omega / 2.0) * (ad - a)
    return q, p


def spacetime_local_operators(model: CavityModel, dim: int, z: float, t: float,
                              hbar: float = None, lambda0: float = None):
    """Per-mode space-time ladder pairs on the (z-factor) x (t-factor) space.

    Returns one dict per mode with the ladder matrices, the ordered
    canonical products g1, g2 (the index-swapped pair g3, g4 coincides with
    them), the average of all four (the scalar -hbar*lambda0 times identity
    on the safe block), the deviation from that scalar, and the formal
    ladder commutator obtained by substituting the symmetrized average into
    the canonical algebra (equal to -i times identity; the literal
    tensor-product commutator of a and adag stays operator-valued).
    """
    if dim < 3:
        raise ValueError("dim < 3 leaves no informative safe block")
    if not 0.0 <= z <= model.length:
        raise ValueError("z outside the cavity")
    if not 0.0 <= t <= model.period * (1 + 1e-12):
        raise ValueError("t outside [0, T]")
    hbar = model.constants.hbar if hbar is None else hbar
    lambda0 = model.constants.lambda0 if lambda0 is None else lambda0
    eye = np.eye(dim, dtype=complex)
    mask = tensor_safe_mask(dim)
    out = []
    for w, k, m in zip(model.omegas, model.wavenumbers, model.masses):
        a0, ad0 = make_ladder(dim)
        az = a0.entries * np.exp(-1j * k * z)
        adz = ad0.entries * np.exp(1j * k * z)
        at = a0.entries * np.exp(-1j * w * t)
        adt = ad0.entries * np.exp(1j * w * t)
        qz, pz = quadrature_pair(az, adz, m, w, lambda0)
        qt, pt = quadrature_pair(at, adt, m, w, hbar)
        qzt = np.kron(qz, qt)
        pzt = np.kron(pz, pt)
        norm = math.sqrt(2.0 * hbar * lambda0 * m * w)
        a_zt = (m * w * qzt + 1j * pzt) / norm
        ad_zt = (m * w * qzt - 1j * pzt) / norm

        g1 = -1j * (hbar * np.kron(pz @ qz, eye) + lambda0 * np.kron(eye, pt @ qt))
        g2 = 1j * (hbar * np.kron(qz @ pz, eye) + lambda0 * np.kron(eye, qt @ pt))
        # the index-swapped pair (g3, g4) coincides with (g1, g2) on the diagonal
        g_avg = 0.25 * (g1 + g2 + g1 + g2)
        target = -hbar * lambda0
        dev_matrix = g_avg - target * np.eye(dim * dim)
        deviation = float(np.max(np.abs(dev_matrix[np.ix_(mask, mask)])))
        formal = (1j / (hbar * lambda0)) * g_avg
        out.append({
            "a": a_zt,
            "adag": ad_zt,
            "q": qzt,
            "p": pzt,
            "g1": g1, "g2": g2,
            "g_avg": g_avg,
            "g_scalar": target,
            "g_deviation": deviation,
            "formal_commutator": formal,
        })
    return out


class OperatorField:
    """Hermitian operator-valued E and H fields for one quantization scheme.

    Per-mode matrices; modes are independent (delta_ab commutators), so no
    cross-mode tensor products are formed.  The ladder pairs of all modes
    are built once per (z, t) and reused until another point is asked for.
    """

    def __init__(self, model: CavityModel, scheme: QuantizationScheme, dim: int):
        self.model = model
        self.scheme = scheme
        self.dim = dim
        self._point, self._pairs_at_point, self._ops_at_point = None, None, None

    def _pairs(self, z: float, t: float):
        if self._point != (z, t):
            kind = self.scheme.kind
            ops = None
            if kind is SchemeKind.TIME_LOCAL:
                pairs = time_local_operators(self.model, self.dim, t)
            elif kind is SchemeKind.SPACE_LOCAL:
                pairs = space_local_operators(self.model, self.dim, z)
            else:
                ops = spacetime_local_operators(self.model, self.dim, z, t,
                                                self.scheme.hbar, self.scheme.lambda0)
                pairs = [(op["a"], op["adag"]) for op in ops]
            self._point, self._pairs_at_point, self._ops_at_point = (z, t), pairs, ops
        return self._pairs_at_point

    def g_deviation(self, z: float, t: float) -> float:
        """Space-time scheme: the largest deviation of the symmetrized canonical
        products from their scalar over the modes, from the build the matrices use."""
        if self.scheme.kind is not SchemeKind.SPACETIME_LOCAL:
            raise ValueError("g_deviation needs the space-time scheme")
        self._pairs(z, t)
        return max(op["g_deviation"] for op in self._ops_at_point)

    def e_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        md = self.model
        w = md.omegas[alpha_idx]
        k = md.wavenumbers[alpha_idx]
        a, ad = self._pairs(z, t)[alpha_idx]
        kind = self.scheme.kind
        if kind is SchemeKind.TIME_LOCAL:
            coef = math.sqrt(self.scheme.hbar * w / (md.volume * md.constants.eps0))
            return coef * math.sin(k * z) * (ad + a)
        if kind is SchemeKind.SPACE_LOCAL:
            coef = math.sqrt(self.scheme.lambda0 * w / (md.period * md.constants.eps0))
            return 1j * coef * math.sin(w * t) * (ad - a)
        m = md.masses[alpha_idx]
        amp = math.sqrt(2.0 * w**2 * m / (md.constants.eps0 * md.volume * md.period))
        coef = amp * math.sqrt(self.scheme.hbar * self.scheme.lambda0 / (2 * m * w))
        return coef * (ad + a)

    def h_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        md = self.model
        w = md.omegas[alpha_idx]
        k = md.wavenumbers[alpha_idx]
        a, ad = self._pairs(z, t)[alpha_idx]
        kind = self.scheme.kind
        if kind is SchemeKind.TIME_LOCAL:
            coef = math.sqrt(self.scheme.hbar * w / (md.volume * md.constants.mu0))
            return 1j * coef * math.cos(k * z) * (ad - a)
        if kind is SchemeKind.SPACE_LOCAL:
            coef = math.sqrt(self.scheme.lambda0 * w / (md.period * md.constants.mu0))
            return -coef * math.cos(w * t) * (ad + a)
        m = md.masses[alpha_idx]
        amp = math.sqrt(2.0 * w**2 * m / (md.constants.mu0 * md.volume * md.period))
        coef = amp * math.sqrt(self.scheme.hbar * self.scheme.lambda0 / (2 * m * w))
        return 1j * coef * (ad - a)

    def hermiticity_defect(self, z: float, t: float) -> float:
        worst = 0.0
        for idx in range(self.model.n_modes):
            for mat in (self.e_matrix(idx, z, t), self.h_matrix(idx, z, t)):
                worst = max(worst, float(np.max(np.abs(mat - mat.conj().T))))
        return worst

    def vacuum_e(self, z: float, t: float = 0.0) -> complex:
        return sum(self.e_matrix(idx, z, t)[0, 0] for idx in range(self.model.n_modes))

    def vacuum_e_squared(self, z: float, t: float = 0.0) -> float:
        total = 0.0
        for idx in range(self.model.n_modes):
            m = self.e_matrix(idx, z, t)
            total += float((m @ m)[0, 0].real)
        return total


def assemble_field_operators(model: CavityModel, scheme: QuantizationScheme,
                             dim: int) -> OperatorField:
    return OperatorField(model, scheme, dim)


def heisenberg_residual(model: CavityModel, dim: int, alpha_idx: int,
                        t: float, dt: float = None) -> float:
    """|finite-difference da/dt - (1/i hbar)[a, H]| on the safe block."""
    hbar = model.constants.hbar
    w = model.omegas[alpha_idx]
    dt = dt if dt is not None else 1e-6 / w
    a_m = time_local_operators(model, dim, t - dt)[alpha_idx][0]
    a_p = time_local_operators(model, dim, t + dt)[alpha_idx][0]
    fd = (a_p - a_m) / (2 * dt)
    a_t = time_local_operators(model, dim, t)[alpha_idx][0]
    ham = mode_hamiltonian_matrix(dim, hbar, w)
    heis = commutator(a_t, ham) / (1j * hbar)
    return float(np.max(np.abs(safe_block(fd - heis))))


def dump_operator_json(matrix: np.ndarray, scheme: SchemeKind, mode: int, fh):
    """Serialize one operator: dim, scheme, mode, row-major (re, im) pairs."""
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float).reshape(-1, 2)
    # one json.dumps call: json.dump(fh) always takes the pure-Python encoder
    fh.write(json.dumps({
        "dim": int(matrix.shape[0]),
        "scheme": scheme.value,
        "mode": int(mode),
        "entries": pairs.tolist(),
    }, separators=(",", ":"), sort_keys=True))
