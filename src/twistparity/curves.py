"""Curve descriptions: an odd-degree separable polynomial over Q.

A ``CurveSpec`` is the hyperelliptic model y^2 = f(x).  Every global
operation works with the 2-torsion, so the torsion prime is 2 throughout;
the curve file format still names it on its 'p = 2' line.  A curve is
split at its rational roots when it is built, so reducibility is read once.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .ratpoly import RatPoly, integer_part, rational_roots, sturm_invariants
from .report import sha256_text

__all__ = ["CurveSpec", "curve_hash"]


class CurveSpec:
    # discriminant and signature, from one remainder sequence, and key are
    # computed once per curve and read through discriminant(),
    # real_root_signature() and curve_hash(); parts holds (primitive integer
    # coefficients, their int discriminant): ((-num, den), 1) per rational root,
    # then what is left of each declared factor, or of f, when not constant;
    # frobenius reads it at every prime, and torsion and galois_classify
    # count it; Sigma is computed on first use in frobenius
    __slots__ = ("f", "declared_factors", "parts", "_discriminant", "_sigma", "_signature", "_key")

    def __init__(self, f: RatPoly, declared_factors: tuple = ()):
        if f.degree < 3 or f.degree % 2 == 0:
            raise InvalidInputError("f must have odd degree >= 3")
        disc, self._signature = sturm_invariants(f)
        if disc == 0:
            raise InvalidInputError("f must be separable")
        self.f = f
        self.declared_factors = tuple(declared_factors)
        self._discriminant = disc
        self._sigma = None
        self._key = sha256_text(self.canonical_text())[:16]
        if self.declared_factors:
            prod = RatPoly((1,))
            for g in self.declared_factors:
                if not isinstance(g, RatPoly) or g.degree < 1:
                    raise InvalidInputError("declared factors must be nonconstant polynomials")
                prod = prod * g
            if prod.degree != f.degree:
                raise InvalidInputError("declared factor degrees do not sum to deg(f)")
            # product must equal f up to a nonzero rational constant
            scaled = prod * (f.lead / prod.lead)
            if scaled != f:
                raise InvalidInputError("declared factors do not multiply to f")
        parts = []
        for ints, d in tuple(map(integer_part, self.declared_factors)) or (integer_part(f, disc),):
            roots = rational_roots(ints, d) if len(ints) > 2 else ()
            rest = RatPoly(ints)
            for r in roots:
                parts.append(((-r.numerator, r.denominator), 1))
                rest = rest.divmod(RatPoly((-r, 1)))[0]
            if rest.degree > 0:
                parts.append(integer_part(rest) if roots else (ints, d))
        self.parts = tuple(parts)

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
        return f"p=2;f=[{cs}]"

    def __str__(self):
        return f"y^2 = {self.f}"


def curve_hash(curve: CurveSpec) -> str:
    """Stable 16-hex-digit key for caches and reports."""
    return curve._key
