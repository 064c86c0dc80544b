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
from enum import Enum

import numpy as np

from .cavity import CavityModel


class SchemeKind(Enum):
    TIME_LOCAL = "time_local"
    SPACE_LOCAL = "space_local"
    SPACETIME_LOCAL = "spacetime_local"


def make_ladder(dim: int):
    """Annihilation and creation matrices; a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    return a, a.conj().T


def phased_ladders(rates, x: float, dim: int):
    """Every mode's (a0 exp(-i r x), a0+ exp(i r x)), stacked as two
    (modes, dim, dim) arrays: (r, x) = (w, t) gives the time-local ladders,
    (k, z) the space-local ones."""
    a0, ad0 = make_ladder(dim)
    rates = np.asarray(rates, dtype=float)[:, None, None]
    return a0 * np.exp(-1j * rates * x), ad0 * np.exp(1j * rates * x)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def safe_block(m: np.ndarray) -> np.ndarray:
    """Drop the top number state (its row and column)."""
    n = m.shape[0] - 1
    return m[:n, :n]


def tensor_safe_block(m: np.ndarray, dim: int) -> np.ndarray:
    """Keep the tensor-basis states safe in both factors (rows and columns)."""
    keep = np.arange(dim) < dim - 1
    mask = np.kron(keep, keep).astype(bool)
    return m[np.ix_(mask, mask)]


def _check_inside(model: CavityModel, z: float):
    if not 0.0 <= z <= model.length:
        raise ValueError("z outside the cavity")


def mode_hamiltonian_matrix(dim: int, action: float, omega: float) -> np.ndarray:
    """action * omega * (n + 1/2) on the truncated basis."""
    n = np.arange(dim)
    return np.diag(action * omega * (n + 0.5)).astype(complex)


def trig_ansatz_consistency(dim: int, omega: float, times) -> dict:
    """Consistency check ruling out a+(t) = a+(0) cos(w t).

    That ansatz forces (a+(0) - a(0))^{-1} (a+(0) + a(0)) = tan(w t) * id
    with a time-independent left side; evaluating the implied right side at
    two different times exposes the contradiction.
    """
    a0, ad0 = make_ladder(dim)
    lhs = np.linalg.solve(ad0 - a0, ad0 + a0)
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
    """(q, p) built from a ladder pair with the given action constant; the
    space-time scheme builds its factor quadratures from it."""
    q = math.sqrt(action / (2.0 * mass * omega)) * (ad + a)
    p = 1j * math.sqrt(action * mass * omega / 2.0) * (ad - a)
    return q, p


def spacetime_local_operators(model: CavityModel, dim: int, z: float, t: float):
    """Per-mode space-time ladder pairs on the (z-factor) x (t-factor) space.

    Returns one dict per mode with the ladder matrices ``a`` and ``adag``,
    ``g_deviation``, the largest deviation on the safe block of the average
    of the ordered canonical products g1, g2 (the index-swapped pair g3, g4
    coincides with them) from the scalar -hbar*lambda0, relative to
    hbar*lambda0 so that it reads the same in any unit system, and
    ``formal_commutator``, the ladder commutator obtained by substituting
    that average into the canonical algebra (equal to -i times identity on
    the safe block; the literal tensor-product commutator of a and adag
    stays operator-valued).  hbar and lambda0 are the model's constants.
    """
    if dim < 3:
        raise ValueError("dim < 3 leaves no informative safe block")
    _check_inside(model, z)
    if not 0.0 <= t <= model.period * (1 + 1e-12):
        raise ValueError("t outside [0, T]")
    hbar, lambda0 = model.constants.hbar, model.constants.lambda0
    eye = np.eye(dim, dtype=complex)
    az, adz = phased_ladders(model.wavenumbers, z, dim)
    at, adt = phased_ladders(model.omegas, t, dim)
    target = -hbar * lambda0
    out = []
    for i, (w, m) in enumerate(zip(model.omegas, model.masses)):
        qz, pz = quadrature_pair(az[i], adz[i], m, w, lambda0)
        qt, pt = quadrature_pair(at[i], adt[i], m, w, hbar)
        qzt = np.kron(qz, qt)
        pzt = np.kron(pz, pt)
        norm = math.sqrt(2.0 * hbar * lambda0 * m * w)
        g1 = -1j * (hbar * np.kron(pz @ qz, eye) + lambda0 * np.kron(eye, pt @ qt))
        g2 = 1j * (hbar * np.kron(qz @ pz, eye) + lambda0 * np.kron(eye, qt @ pt))
        g_avg = 0.25 * (g1 + g2 + g1 + g2)
        dev_matrix = g_avg - target * np.eye(dim * dim)
        out.append({
            "a": (m * w * qzt + 1j * pzt) / norm,
            "adag": (m * w * qzt - 1j * pzt) / norm,
            "g_deviation": float(np.max(np.abs(tensor_safe_block(dev_matrix, dim)))
                                 / (hbar * lambda0)),
            "formal_commutator": (1j / (hbar * lambda0)) * g_avg,
        })
    return out


def _time_local_terms(md: CavityModel, w, k, m, z, t):
    cst = md.constants
    return ((math.sqrt(cst.hbar * w / (md.volume * cst.eps0)) * math.sin(k * z), +1),
            (1j * math.sqrt(cst.hbar * w / (md.volume * cst.mu0)) * math.cos(k * z), -1))


def _space_local_terms(md: CavityModel, w, k, m, z, t):
    cst = md.constants
    return ((1j * math.sqrt(cst.lambda0 * w / (md.period * cst.eps0)) * math.sin(w * t), -1),
            (-math.sqrt(cst.lambda0 * w / (md.period * cst.mu0)) * math.cos(w * t), +1))


def _spacetime_local_terms(md: CavityModel, w, k, m, z, t):
    cst = md.constants
    scale = math.sqrt(cst.hbar * cst.lambda0 / (2 * m * w))
    amp_e = math.sqrt(2.0 * w**2 * m / (cst.eps0 * md.volume * md.period))
    amp_h = math.sqrt(2.0 * w**2 * m / (cst.mu0 * md.volume * md.period))
    return (amp_e * scale, +1), (1j * (amp_h * scale), -1)


# Every field matrix is coef * (a+ + sign * a).  Per scheme, the ((coef, sign)
# of E, (coef, sign) of H) of one mode from its w, k and mass at the point (z, t).
_FIELD_TERMS = {
    SchemeKind.TIME_LOCAL: _time_local_terms,
    SchemeKind.SPACE_LOCAL: _space_local_terms,
    SchemeKind.SPACETIME_LOCAL: _spacetime_local_terms,
}


class OperatorField:
    """Hermitian operator-valued E and H fields for one quantization scheme.

    Per-mode matrices; modes are independent (delta_ab commutators), so no
    cross-mode tensor products are formed.  The ladder pairs of all modes
    are built once per (z, t) and reused until another point is asked for.
    """

    def __init__(self, model: CavityModel, kind: SchemeKind, dim: int):
        self.model = model
        self.kind = kind
        self.dim = dim
        self._point, self._ladders, self._g_deviation = None, None, None

    def _pairs(self, z: float, t: float):
        if self._point != (z, t):
            md = self.model
            _check_inside(md, z)
            if self.kind is SchemeKind.SPACETIME_LOCAL:
                ops = spacetime_local_operators(md, self.dim, z, t)
                self._ladders = [(op["a"], op["adag"]) for op in ops]
                self._g_deviation = max(op["g_deviation"] for op in ops)
            else:
                rates, x = (md.omegas, t) if self.kind is SchemeKind.TIME_LOCAL \
                    else (md.wavenumbers, z)
                self._ladders = list(zip(*phased_ladders(rates, x, self.dim)))
            self._point = (z, t)
        return self._ladders

    def g_deviation(self, z: float, t: float) -> float:
        """Space-time scheme: the largest deviation of the symmetrized canonical
        products from their scalar over the modes, from the build the matrices use."""
        if self.kind is not SchemeKind.SPACETIME_LOCAL:
            raise ValueError("g_deviation needs the space-time scheme")
        self._pairs(z, t)
        return self._g_deviation

    def _matrix(self, field: int, alpha_idx: int, z: float, t: float) -> np.ndarray:
        """Field 0 (E) or 1 (H) of one mode: coef * (a+ + sign * a)."""
        a, ad = self._pairs(z, t)[alpha_idx]
        md = self.model
        coef, sign = _FIELD_TERMS[self.kind](md, md.omegas[alpha_idx], md.wavenumbers[alpha_idx],
                                             md.masses[alpha_idx], z, t)[field]
        return coef * (ad + a if sign > 0 else ad - a)

    def e_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return self._matrix(0, alpha_idx, z, t)

    def h_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return self._matrix(1, alpha_idx, z, t)

    def hermiticity_defect(self, z: float, t: float) -> float:
        worst = 0.0
        for idx in range(self.model.n_modes):
            for mat in (self.e_matrix(idx, z, t), self.h_matrix(idx, z, t)):
                worst = max(worst, float(np.max(np.abs(mat - mat.conj().T))))
        return worst


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
