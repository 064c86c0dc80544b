"""Mode quantization on a truncated number basis, in three schemes.

Time-local ladder operators carry exp(-i w t) phases and the action
constant hbar; space-local ones carry exp(-i k z) phases and the spatial
action constant lambda0; the space-time scheme works on the tensor product
of a z-factor and a t-factor space and its canonical "constant" is the
operator-valued commutator whose symmetrized form reduces to the scalar
-hbar*lambda0.

Every mode is built at once: ladders, quadratures and field operators are
(modes, n, n) stacks, with n = dim, or dim^2 on the space-time tensor space.

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
    """Keep the tensor-basis states safe in both factors (rows and columns),
    of one matrix or of each matrix of a stack."""
    keep = np.arange(dim) < dim - 1
    mask = np.kron(keep, keep).astype(bool)
    return m[..., mask, :][..., mask]


def _check_inside(model: CavityModel, z: float):
    if not 0.0 <= z <= model.length:
        raise ValueError("z outside the cavity")


def mode_hamiltonian_matrix(dim: int, action: float, omega: float) -> np.ndarray:
    """action * omega * (n + 1/2) on the truncated basis."""
    n = np.arange(dim)
    return np.diag(action * omega * (n + 0.5)).astype(complex)


def trig_ansatz_consistency(dim: int, omega: float, times) -> float:
    """The mismatch of the ansatz a+(t) = a+(0) cos(w t): 0 exactly when it holds.

    The ansatz forces (a+(0) - a(0))^{-1} (a+(0) + a(0)) = tan(w t) * id with
    a time-independent left side, which is no multiple of the identity; the
    mismatch is the largest entry of left minus right side over the times.
    """
    a0, ad0 = make_ladder(dim)
    lhs = np.linalg.solve(ad0 - a0, ad0 + a0)
    return max(float(np.max(np.abs(lhs - math.tan(omega * t) * np.eye(dim)))) for t in times)


def quadrature_pair(a: np.ndarray, ad: np.ndarray, mass, omega, action: float):
    """(q, p) of stacked ladder pairs, with mass and omega broadcast against
    them; the space-time scheme builds its factor quadratures from it."""
    q = np.sqrt(action / (2.0 * mass * omega)) * (ad + a)
    p = 1j * np.sqrt(action * mass * omega / 2.0) * (ad - a)
    return q, p


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each matrix of the stack a with b (a stack or one matrix)."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    size = prod.shape[-4] * prod.shape[-3]
    return prod.reshape(prod.shape[:-4] + (size, size))


def spacetime_local_operators(model: CavityModel, dim: int, z: float, t: float):
    """Every mode's space-time ladder pair on the (z-factor) x (t-factor) space.

    Returns ``(a, adag, g_deviation)``: the ladders as two (modes, dim^2,
    dim^2) stacks and, per mode, the largest deviation on the safe block of
    the average of the ordered canonical products g1, g2 (the index-swapped
    pair g3, g4 coincides with them) from the scalar -hbar*lambda0, relative
    to hbar*lambda0 so that it reads the same in any unit system.  The literal
    tensor-product commutator of a and adag stays operator-valued.
    """
    if dim < 3:
        raise ValueError("dim < 3 leaves no informative safe block")
    _check_inside(model, z)
    if not 0.0 <= t <= model.period * (1 + 1e-12):
        raise ValueError("t outside [0, T]")
    hbar, lambda0 = model.constants.hbar, model.constants.lambda0
    w, m = model.omegas[:, None, None], model.masses[:, None, None]
    eye = np.eye(dim, dtype=complex)
    qz, pz = quadrature_pair(*phased_ladders(model.wavenumbers, z, dim), m, w, lambda0)
    qt, pt = quadrature_pair(*phased_ladders(model.omegas, t, dim), m, w, hbar)
    g1 = -1j * (hbar * _kron(pz @ qz, eye) + lambda0 * _kron(eye, pt @ qt))
    g2 = 1j * (hbar * _kron(qz @ pz, eye) + lambda0 * _kron(eye, qt @ pt))
    dev = 0.25 * (g1 + g2 + g1 + g2) + hbar * lambda0 * np.eye(dim * dim)
    g_deviation = np.max(np.abs(tensor_safe_block(dev, dim)), axis=(1, 2)) / (hbar * lambda0)
    del g1, g2, dev   # freed before the ladder stacks are built
    qzt, pzt = m * w * _kron(qz, qt), 1j * _kron(pz, pt)
    norm = np.sqrt(2.0 * hbar * lambda0 * m * w)
    return (qzt + pzt) / norm, (qzt - pzt) / norm, g_deviation


def _field_terms(model: CavityModel, kind: SchemeKind, z: float, t: float):
    """(coefficient, ladder sum) of E and of H at (z, t): each coefficient an
    array over the modes, each sum np.add (a+ + a) or np.subtract (a+ - a)."""
    cst, w, k = model.constants, model.omegas, model.wavenumbers
    if kind is SchemeKind.TIME_LOCAL:
        return ((np.sqrt(cst.hbar * w / (model.volume * cst.eps0)) * np.sin(k * z), np.add),
                (1j * np.sqrt(cst.hbar * w / (model.volume * cst.mu0)) * np.cos(k * z),
                 np.subtract))
    if kind is SchemeKind.SPACE_LOCAL:
        return ((1j * np.sqrt(cst.lambda0 * w / (model.period * cst.eps0)) * np.sin(w * t),
                 np.subtract),
                (-np.sqrt(cst.lambda0 * w / (model.period * cst.mu0)) * np.cos(w * t), np.add))
    m = model.masses
    w2 = np.float_power(w, 2)   # libm pow, as a scalar w**2; w * w differs in the last bit
    scale = np.sqrt(cst.hbar * cst.lambda0 / (2 * m * w))
    amp_e = np.sqrt(2.0 * w2 * m / (cst.eps0 * model.volume * model.period))
    amp_h = np.sqrt(2.0 * w2 * m / (cst.mu0 * model.volume * model.period))
    return (amp_e * scale, np.add), (1j * (amp_h * scale), np.subtract)


class OperatorField:
    """Hermitian operator-valued E and H fields for one quantization scheme.

    Modes are independent (delta_ab commutators), so no cross-mode tensor
    products are formed.  E and H are read-only (modes, n, n) stacks,
    coef * (a+ + a) and coef * (a+ - a) (swapped in the space-local scheme),
    built once per (z, t) and reused until another point is asked for.
    """

    def __init__(self, model: CavityModel, kind: SchemeKind, dim: int):
        self.model, self.kind, self.dim = model, kind, dim
        self._point, self._fields, self._g_deviation = None, None, None

    def _stacks(self, z: float, t: float) -> np.ndarray:
        """The (2, modes, n, n) array of the E and the H stack at (z, t)."""
        if self._point != (z, t):
            md = self.model
            _check_inside(md, z)
            if self.kind is SchemeKind.SPACETIME_LOCAL:
                a, ad, deviation = spacetime_local_operators(md, self.dim, z, t)
                self._g_deviation = float(np.max(deviation))
            else:
                rates, x = (md.omegas, t) if self.kind is SchemeKind.TIME_LOCAL \
                    else (md.wavenumbers, z)
                a, ad = phased_ladders(rates, x, self.dim)
            fields = np.empty((2,) + a.shape, dtype=complex)
            for out, (coef, ladder_sum) in zip(fields, _field_terms(md, self.kind, z, t)):
                np.multiply(coef[:, None, None], ladder_sum(ad, a), out=out)
            fields.flags.writeable = False
            self._point, self._fields = (z, t), fields
        return self._fields

    def g_deviation(self, z: float, t: float) -> float:
        """Space-time scheme: the largest g deviation over the modes at (z, t)."""
        if self.kind is not SchemeKind.SPACETIME_LOCAL:
            raise ValueError("g_deviation needs the space-time scheme")
        self._stacks(z, t)
        return self._g_deviation

    def e_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return self._stacks(z, t)[0, alpha_idx]

    def h_matrix(self, alpha_idx: int, z: float, t: float) -> np.ndarray:
        return self._stacks(z, t)[1, alpha_idx]

    def hermiticity_defect(self, z: float, t: float) -> float:
        """The largest entry of X - X+ over every mode's E and H."""
        fields = self._stacks(z, t)
        defect = fields.conj().swapaxes(-1, -2)
        defect -= fields
        return float(np.max(np.abs(defect)))


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
