"""The worked example curves, embedded so the verification suite is self-contained.

C_H is the quintic whose Jacobian splits up to isogeny as a product of
two copies of the elliptic curve y^2 = x^3 - 273x + 1672 (Cremona label
1440D1).  The Jacobian of C_G is isogenous to two copies of 3y^2 = x^3 - x,
the twist by 3 of E': y^2 = x^3 - x, so a_l(C_G) = 2 (3 | l) a_l(E') for
the Frobenius traces at every good l.  SEXTIC_H0 is the even-degree model
that x -> (3x+1)/x carries onto a constant multiple of C_H's quintic.
"""

from __future__ import annotations

from .curves import CurveSpec
from .ratpoly import RatPoly

__all__ = [
    "curve_h",
    "curve_g",
    "curve_x3_minus_2",
    "curve_1440d1",
    "curve_s5_quintic",
    "sextic_h0",
    "TRANSFORM_CONSTANT",
    "GOLDEN_CURVES",
]

# y' = c y / x^3 clears denominators in the sextic-to-quintic substitution
TRANSFORM_CONSTANT = 2**2 * 3**14 * 5**2 * 7 * 13

_H_FACTORS = (
    RatPoly((1, 6)),
    RatPoly((9, 54, 91)),
    RatPoly((1, 60, 100)),
)

_G_FACTORS = (
    RatPoly((1, 2)),
    RatPoly((2, 4, 3)),
    RatPoly((1, 2, 3)),
)


def curve_h() -> CurveSpec:
    """y^2 = -273(6x+1)(91x^2+54x+9)(100x^2+60x+1)."""
    f = RatPoly((-273,))
    for g in _H_FACTORS:
        f = f * g
    return CurveSpec(f=f, declared_factors=_H_FACTORS)


def curve_g() -> CurveSpec:
    """y^2 = (2x+1)(3x^2+4x+2)(3x^2+2x+1)."""
    f = RatPoly((1,))
    for g in _G_FACTORS:
        f = f * g
    return CurveSpec(f=f, declared_factors=_G_FACTORS)


def curve_x3_minus_2() -> CurveSpec:
    """y^2 = x^3 - 2: the S_3 workhorse."""
    return CurveSpec(f=RatPoly((-2, 0, 0, 1)))


def curve_1440d1() -> CurveSpec:
    """y^2 = x^3 - 273x + 1672, fully split rational 2-torsion."""
    return CurveSpec(
        f=RatPoly((1672, -273, 0, 1)),
        declared_factors=(RatPoly((19, 1)), RatPoly((-8, 1)), RatPoly((-11, 1))),
    )


def curve_s5_quintic() -> CurveSpec:
    """y^2 = x^5 - x - 1, Galois group S_5, disc 2869 = 19 * 151."""
    return CurveSpec(f=RatPoly((-1, -1, 0, 0, 0, 1)))


def sextic_h0() -> RatPoly:
    """-(-810*A x^2 + 81*B)(81*A x^2 - 90*B)(-90*A x^2 - 810*B), A = -B = 1990170."""
    a = 1990170
    b = -1990170
    f1 = RatPoly((81 * b, 0, -810 * a))
    f2 = RatPoly((-90 * b, 0, 81 * a))
    f3 = RatPoly((-810 * b, 0, -90 * a))
    return -(f1 * f2 * f3)


GOLDEN_CURVES = {
    "x3_minus_2": curve_x3_minus_2,
    "cubic_1440d1": curve_1440d1,
    "h_quintic": curve_h,
    "g_quintic": curve_g,
    "s5_quintic": curve_s5_quintic,
}
