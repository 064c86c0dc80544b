"""Dually-symmetric electrodynamics toolkit.

Subpackages cover field-pair transformation groups and invariants,
classical cavity solutions with their quaternion four-sector packing, mode
quantization on truncated number bases, 4-currents and gauge charges,
resonance observables, and the Fermi-liquid gap solver for a dimerized
chain.
"""

import importlib

from .constants import PhysicalConstants
from .dualsym import (FieldPair, InvariantSet, dual_rotate, hyperbolic_dual, invariants,
                      lorentz_boost_fields)
from .elliptic import elliptic_E, elliptic_K

__all__ = [
    "PhysicalConstants",
    "FieldPair", "InvariantSet",
    "dual_rotate", "hyperbolic_dual", "invariants", "lorentz_boost_fields",
    "elliptic_E", "elliptic_K",
]

__version__ = "0.1.0"


def __getattr__(name):
    """`duplexem.sshliquid` on first access: the gap solver, the one module
    that loads scipy, is imported only when something asks for it."""
    if name == "sshliquid":
        return importlib.import_module(f"{__name__}.sshliquid")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
