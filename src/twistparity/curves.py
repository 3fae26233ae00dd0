"""Curve descriptions: an odd-degree separable polynomial over Q.

A ``CurveSpec`` is the hyperelliptic model y^2 = f(x).  The torsion prime
is fixed to 2 for every global operation; the permutation-module oracle
is the only consumer that accepts other primes, and it takes them
directly rather than through a curve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInputError
from .ratpoly import RatPoly, discriminant, real_root_signature

__all__ = ["CurveSpec", "curve_hash"]


@dataclass(frozen=True)
class CurveSpec:
    f: RatPoly
    p: int = 2
    declared_factors: tuple = field(default_factory=tuple)
    # computed once per curve; read through discriminant(), real_root_signature(), curve_hash()
    _discriminant: Fraction = field(init=False, repr=False, compare=False)
    _signature: tuple = field(init=False, repr=False, compare=False)
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p != 2:
            raise InvalidInputError("global operations require p = 2")
        if self.f.degree < 3 or self.f.degree % 2 == 0:
            raise InvalidInputError("f must have odd degree >= 3")
        disc = discriminant(self.f)
        if disc == 0:
            raise InvalidInputError("f must be separable")
        object.__setattr__(self, "_discriminant", disc)
        object.__setattr__(self, "_signature", real_root_signature(self.f))
        key = hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]
        object.__setattr__(self, "_key", key)
        if self.declared_factors:
            object.__setattr__(self, "declared_factors", tuple(self.declared_factors))
            prod = RatPoly.one()
            for g in self.declared_factors:
                if not isinstance(g, RatPoly) or g.degree < 1:
                    raise InvalidInputError("declared factors must be nonconstant polynomials")
                prod = prod * g
            if prod.degree != self.f.degree:
                raise InvalidInputError("declared factor degrees do not sum to deg(f)")
            # product must equal f up to a nonzero rational constant
            scaled = prod * (self.f.lead / prod.lead)
            if scaled != self.f:
                raise InvalidInputError("declared factors do not multiply to f")

    @property
    def degree(self) -> int:
        return self.f.degree

    def discriminant(self) -> Fraction:
        return self._discriminant

    def real_root_signature(self) -> tuple:
        """(real root count, k1, k2) of f; see ``ratpoly.real_root_signature``."""
        return self._signature

    def canonical_text(self) -> str:
        cs = ",".join(str(c) for c in self.f.coeffs)
        return f"p={self.p};f=[{cs}]"

    def __str__(self):
        return f"y^2 = {self.f}"


def curve_hash(curve: CurveSpec) -> str:
    """Stable 16-hex-digit key for caches and reports."""
    return curve._key
