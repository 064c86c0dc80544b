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

from .cavity import CavityModel, _inside
from .tables import gather_lines

_JSON_PAIRS = 4096   # matrix entries gathered and written at a time by dump_operator_json


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


def quadrature_pair(a: np.ndarray, ad: np.ndarray, omega, action: float):
    """(q, p) of stacked ladder pairs of unit-mass oscillators, with omega
    broadcast against them; the space-time scheme builds its factor
    quadratures from it."""
    q = np.sqrt(action / (2.0 * omega)) * (ad + a)
    p = 1j * np.sqrt(action * omega / 2.0) * (ad - a)
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
    _inside(z, model.length)
    if not 0.0 <= t <= model.period * (1 + 1e-12):
        raise ValueError("t outside [0, T]")
    hbar, lambda0 = model.constants.hbar, model.constants.lambda0
    w = model.omegas[:, None, None]
    eye = np.eye(dim, dtype=complex)
    qz, pz = quadrature_pair(*phased_ladders(model.wavenumbers, z, dim), w, lambda0)
    qt, pt = quadrature_pair(*phased_ladders(model.omegas, t, dim), w, hbar)
    g1 = -1j * (hbar * _kron(pz @ qz, eye) + lambda0 * _kron(eye, pt @ qt))
    g2 = 1j * (hbar * _kron(qz @ pz, eye) + lambda0 * _kron(eye, qt @ pt))
    dev = 0.25 * (g1 + g2 + g1 + g2) + hbar * lambda0 * np.eye(dim * dim)
    g_deviation = np.max(np.abs(tensor_safe_block(dev, dim)), axis=(1, 2)) / (hbar * lambda0)
    del g1, g2, dev   # freed before the ladder stacks are built
    qzt, pzt = w * _kron(qz, qt), 1j * _kron(pz, pt)
    norm = np.sqrt(2.0 * hbar * lambda0 * w)
    return (qzt + pzt) / norm, (qzt - pzt) / norm, g_deviation


def _field_terms(model: CavityModel, kind: SchemeKind, dim: int, z: float, t: float):
    """The one dispatch on the scheme, at (z, t): the (modes, n, n) ladder
    stacks a and adag, the scheme's action constant, the largest g deviation
    over the modes (None outside the space-time scheme), and the (coefficient,
    ladder sum) of E and of H: each coefficient an array over the modes, each
    sum np.add (a+ + a) or np.subtract (a+ - a)."""
    cst, w, k = model.constants, model.omegas, model.wavenumbers
    if kind is SchemeKind.SPACETIME_LOCAL:
        a, ad, deviation = spacetime_local_operators(model, dim, z, t)
        w2 = np.float_power(w, 2)   # libm pow, as a scalar w**2; w * w differs in the last bit
        scale = np.sqrt(cst.hbar * cst.lambda0 / (2 * w))
        amp_e = np.sqrt(2.0 * w2 / (cst.eps0 * model.length * model.period))
        amp_h = np.sqrt(2.0 * w2 / (cst.mu0 * model.length * model.period))
        return (a, ad, cst.hbar, float(np.max(deviation)),
                ((amp_e * scale, np.add), (1j * (amp_h * scale), np.subtract)))
    _inside(z, model.length)
    if kind is SchemeKind.TIME_LOCAL:
        return (*phased_ladders(w, t, dim), cst.hbar, None,
                ((np.sqrt(cst.hbar * w / (model.length * cst.eps0)) * np.sin(k * z), np.add),
                 (1j * np.sqrt(cst.hbar * w / (model.length * cst.mu0)) * np.cos(k * z),
                  np.subtract)))
    return (*phased_ladders(k, z, dim), cst.lambda0, None,
            ((1j * np.sqrt(cst.lambda0 * w / (model.period * cst.eps0)) * np.sin(w * t),
              np.subtract),
             (-np.sqrt(cst.lambda0 * w / (model.period * cst.mu0)) * np.cos(w * t), np.add)))


class OperatorField:
    """Hermitian operator-valued E and H fields of one quantization scheme at
    one point (z, t).

    Modes are independent (delta_ab commutators), so no cross-mode tensor
    products are formed.  The constructor builds E and H once, as one
    read-only (2, modes, n, n) array of the stacks coef * (a+ + a) and
    coef * (a+ - a) (swapped in the space-local scheme).  action is the
    scheme's action constant; g_deviation the largest g deviation over the
    modes in the space-time scheme, None in the others.
    """

    def __init__(self, model: CavityModel, kind: SchemeKind, dim: int, z: float, t: float):
        a, ad, self.action, self.g_deviation, terms = _field_terms(model, kind, dim, z, t)
        self._fields = np.empty((2,) + a.shape, dtype=complex)
        for out, (coef, ladder_sum) in zip(self._fields, terms):
            np.multiply(coef[:, None, None], ladder_sum(ad, a), out=out)
        self._fields.flags.writeable = False

    def e_matrix(self, alpha_idx: int) -> np.ndarray:
        return self._fields[0, alpha_idx]

    def h_matrix(self, alpha_idx: int) -> np.ndarray:
        return self._fields[1, alpha_idx]

    def hermiticity_defect(self) -> float:
        """The largest entry of X - X+ over every mode's E and H."""
        defect = self._fields.conj().swapaxes(-1, -2)
        defect -= self._fields
        return float(np.max(np.abs(defect)))


def dump_operator_json(matrix: np.ndarray, scheme: SchemeKind, mode: int, fh):
    """Serialize one operator: dim, scheme, mode, row-major (re, im) pairs.

    The bytes are those of one sorted-key, compact ``json.dumps`` of the
    object.  Each distinct number (compared bit for bit, so -0.0 and 0.0
    stay apart) is rendered once, by one ``json.dumps`` of them all, so
    NaN, Infinity and every repr keep json's exact text; the pairs are then
    gathered from those records _JSON_PAIRS at a time, so no Python float
    or string per entry is built."""
    values = np.ascontiguousarray(matrix, dtype=complex).view(float)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(float).tolist(), separators=(",", ":"))[1:-1].split(",")
    records = np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)  # NUL-padded
    pairs = index.reshape(-1, 2)
    fh.write(f'{{"dim":{int(matrix.shape[0])},"entries":[')
    for start in range(0, len(pairs), _JSON_PAIRS):
        chunk = pairs[start:start + _JSON_PAIRS]
        text = gather_lines(len(chunk), [b",[", (records, chunk[:, 0]), b",",
                                         (records, chunk[:, 1]), b"]"])
        fh.write(text[0 if start else 1:].tobytes().decode())   # no comma before the first
    fh.write(f'],"mode":{int(mode)},"scheme":{json.dumps(scheme.value)}}}')
