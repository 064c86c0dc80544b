"""Physical constants, in SI or in symmetric (c = eps0 = mu0 = 1) units.

The space-quantization constant lambda0 has the dimension of an action,
like hbar.  Its numerical value is an independent setting; the default
simply reuses hbar's value.
"""

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class PhysicalConstants:
    c: float
    eps0: float
    mu0: float
    hbar: float
    lambda0: float = None  # defaults to hbar

    def __post_init__(self):
        if self.lambda0 is None:
            object.__setattr__(self, "lambda0", self.hbar)

    @property
    def z0(self) -> float:
        """Characteristic vacuum impedance sqrt(mu0/eps0)."""
        return math.sqrt(self.mu0 / self.eps0)

    @classmethod
    def si(cls) -> "PhysicalConstants":
        return cls(
            c=299_792_458.0,
            eps0=8.8541878128e-12,
            mu0=1.25663706212e-6,
            hbar=1.054571817e-34,
        )

    @classmethod
    def symmetric(cls) -> "PhysicalConstants":
        """Unit system with c, eps0, mu0 and hbar (so also lambda0) all equal to 1."""
        return cls(c=1.0, eps0=1.0, mu0=1.0, hbar=1.0)
