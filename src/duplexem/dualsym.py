"""Dual (circular) and hyperbolic dual transformations of (E, H) pairs.

The circular transformation mixes electric and magnetic vectors by an angle
theta; the hyperbolic one uses cosh/sinh with an imaginary coupling and
contains the Lorentz field transformation as the special case
tanh(vartheta) = v/c in the orthogonal-axes geometry.

Scalar products here are unconjugated bilinear forms, sum_k a_k b_k, also
for complex vectors; that is the form entering all the invariants.  A
conjugated norm is available separately for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FieldPair:
    """Ordered pair of 3-vectors (e, h), real or complex, or a batch of n
    such pairs as two (n, 3) arrays, one pair per row."""

    e: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.e))
        h = np.atleast_1d(np.asarray(self.h))
        if e.shape != h.shape or e.shape[-1:] != (3,) or e.ndim > 2:
            raise ValueError("FieldPair components must be 3-vectors or (n, 3) batches of them")
        if not (np.all(np.isfinite(e.real)) and np.all(np.isfinite(h.real))
                and np.all(np.isfinite(np.imag(e))) and np.all(np.isfinite(np.imag(h)))):
            raise ValueError("FieldPair components must be finite")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "h", h)

    def six_vector_norm(self):
        """Conjugated norm of the stacked (e, h) 6-vector: a float for one
        pair, an (n,) array of one norm per row for a batch."""
        norm = np.sqrt(np.sum(np.abs(self.e) ** 2, axis=-1) + np.sum(np.abs(self.h) ** 2, axis=-1))
        return norm if norm.ndim else float(norm)


@dataclass(frozen=True)
class InvariantSet:
    """The invariants of one pair, or arrays of them, one per row of a batch."""

    i1p: float
    i2p: float
    k_inv: float
    i1h: float
    i2h: float
    w: float = None  # None when i2h == 0; in a batch nan there


def bilinear_dot(a, b):
    """Unconjugated scalar product sum_k a_k b_k, per row of (n, 3) arrays."""
    return np.sum(np.asarray(a) * np.asarray(b), axis=-1)


def _snap(x: float) -> float:
    # quarter-turn angles land within one trig ulp of {0, +-1}; snapping
    # there makes the field exchange at theta = pi/2 exact
    for target in (0.0, 1.0, -1.0):
        if abs(x - target) <= 4e-16:
            return target
    return x


def dual_rotate(f: FieldPair, theta) -> FieldPair:
    """Circular mix: (E cos + H sin, H cos - E sin).

    theta is one angle, or for a batch an (n,) array of one angle per row;
    cos and sin of each angle go through math and _snap.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim and theta.shape != f.e.shape[:-1]:
        raise ValueError("dual_rotate takes one angle or one per row of the batch")
    angles = theta.ravel().tolist()
    c = np.array([_snap(math.cos(x)) for x in angles]).reshape(theta.shape + (1,))
    s = np.array([_snap(math.sin(x)) for x in angles]).reshape(theta.shape + (1,))
    return FieldPair(c * f.e + s * f.h, c * f.h - s * f.e)


def hyperbolic_dual(f: FieldPair, vartheta: float) -> FieldPair:
    """Hyperbolic mix: (E cosh + iH sinh, -iE sinh + H cosh)."""
    ch, sh = math.cosh(vartheta), math.sinh(vartheta)
    e = ch * np.asarray(f.e, dtype=complex) + 1j * sh * np.asarray(f.h, dtype=complex)
    h = -1j * sh * np.asarray(f.e, dtype=complex) + ch * np.asarray(f.h, dtype=complex)
    return FieldPair(e, h)


def invariants(f: FieldPair, theta: float = 0.0, vartheta: float = 0.0) -> InvariantSet:
    """Invariants of the circular family at theta and the hyperbolic family at vartheta.

    The generator is the complex combination C = E^2 - H^2 + 2i(E.H); both
    transformations only rescale it (by exp(-2i theta) and exp(2 vartheta)),
    so the invariant pair is its (Re, Im) decomposition.  For real fields
    Re C = E^2 - H^2 and Im C = 2 E.H; the decomposition stays meaningful
    for the complex pairs produced by the hyperbolic mix.

    i1p, i2p rotate into each other with 2*theta and k_inv = i1p^2 + i2p^2
    = |C|^2 is angle-independent.  i1h, i2h carry the hyperbolic weight
    exp(2*vartheta); their ratio w drops every rapidity factor (None when
    i2h vanishes, nan in those rows of a batch).
    """
    c_inv = complex_invariant(f)
    re_c, im_c = c_inv.real, c_inv.imag
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    i1p = re_c * c2 + im_c * s2
    i2p = im_c * c2 - re_c * s2
    k_inv = i1p * i1p + i2p * i2p
    w_e2 = math.exp(2 * vartheta)
    i1h = re_c * w_e2
    i2h = im_c * w_e2
    if np.ndim(i2h):
        w = np.divide(i1h, i2h, out=np.full(i2h.shape, np.nan), where=i2h != 0.0)
    else:
        w = i1h / i2h if i2h != 0.0 else None
    return InvariantSet(i1p=i1p, i2p=i2p, k_inv=k_inv, i1h=i1h, i2h=i2h, w=w)


def complex_invariant(f: FieldPair):
    """The combination E^2 - H^2 + 2i(E.H), the generator of both invariant sets:
    a complex number for one pair, a complex array for a batch."""
    c_inv = (bilinear_dot(f.e, f.e) - bilinear_dot(f.h, f.h)
             + 2j * bilinear_dot(f.e, f.h))
    return c_inv if c_inv.ndim else complex(c_inv)


def lorentz_boost_fields(f: FieldPair, beta: float, axis=(0.0, 0.0, 1.0)) -> FieldPair:
    """Boost the field pair with velocity v = beta * c along ``axis``.

    Transverse parts:  E'' = gamma (E + (1/c)[H x V]),
                       H'' = gamma (H - (1/c)[E x V]);
    components along the boost axis are unchanged.  This is a proper field
    transformation, so composing two boosts equals one boost at the summed
    rapidity.  In the orthogonal-axes geometry both transverse magnitudes
    grow as gamma(|E| + beta |H|) and gamma(|H| + beta |E|); the mixed-sign
    magnitude pair (gamma(|E| + beta |H|), gamma(|H| - beta |E|)) belongs to
    the hyperbolic dual route, see :func:`hyperbolic_boost_magnitudes` --
    that sign pattern is not realizable by any composing vector map.
    """
    if abs(beta) >= 1.0:
        raise ValueError("|beta| must be < 1")
    if f.e.ndim != 1:   # np.dot below would mix the rows of a batch
        raise ValueError("lorentz_boost_fields takes one pair, not a batch")
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)

    def boost(vec, cross):
        par = np.dot(vec, n) * n
        return par + gamma * (vec - par + beta * cross)

    e = boost(f.e, np.cross(f.h, n))
    h = boost(f.h, -np.cross(f.e, n))
    return FieldPair(e, h)


def hyperbolic_boost_magnitudes(f: FieldPair, vartheta: float, e_axis, h_axis):
    """Boost magnitudes carried by the hyperbolic-dual image of a real pair.

    For real E along ``e_axis`` and H along ``h_axis`` (orthogonal unit
    vectors), the transformed pair stores the boosted electric magnitude in
    (Re e'' . e_axis) + (Im e'' . h_axis) and the boosted magnetic one in
    (Re h'' . h_axis) + (Im h'' . e_axis); those equal
    gamma(|E| + beta |H|) and gamma(|H| - beta |E|) at tanh(vartheta) = beta.
    """
    if f.e.ndim != 1:   # np.dot below would mix the rows of a batch
        raise ValueError("hyperbolic_boost_magnitudes takes one pair, not a batch")
    ea = np.asarray(e_axis, dtype=float)
    ha = np.asarray(h_axis, dtype=float)
    ea, ha = ea / np.linalg.norm(ea), ha / np.linalg.norm(ha)
    g = hyperbolic_dual(f, vartheta)
    e_mag = float(np.dot(g.e.real, ea) + np.dot(g.e.imag, ha))
    h_mag = float(np.dot(g.h.real, ha) + np.dot(g.h.imag, ea))
    return e_mag, h_mag
