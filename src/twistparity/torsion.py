"""The rational 2-torsion of the curve's Jacobian, by certified factor counts.

Its F_2-dimension is one less than the number of irreducible factors of
f over Q: the curve's ``parts``, split at f's rational roots by
``CurveSpec``, once each part of degree above 3 is certified irreducible
by a prime where it stays irreducible; a count it cannot certify is an
error, never a guess.  A part that splits into nonlinear factors over Q
has no such prime, so an f declared without its factors reads
UnknownFactorizationError there; declaring the factors is the way past it.
"""

from __future__ import annotations

from .curves import CurveSpec
from .errors import BadPrimeError, UnknownFactorizationError
from .modular import factor_degrees, iter_primes
from .ratpoly import RatPoly

__all__ = ["rational_two_torsion_dim"]

# primes below this bound are tried for an irreducibility certificate
_CERTIFY_BOUND = 2000


def _certify_irreducible(ints: tuple, disc: int) -> None:
    """Certify irreducible over Q a part of a curve, given as its integer
    part (ints, disc), which is linear or has no rational root.

    Degree <= 3 follows from that.  Higher degrees need a
    cycle-type certificate: the integer part irreducible mod a prime
    dividing neither its lead nor its discriminant forces irreducibility
    over Q (``factor_degrees`` rejects the other primes); a bounded scan
    that never finds one raises UnknownFactorizationError rather than
    guessing.
    """
    d = len(ints) - 1
    if d <= 3:
        return
    for l in iter_primes(3, _CERTIFY_BOUND):
        try:
            degrees = factor_degrees(ints, l, disc)
        except BadPrimeError:
            continue
        if degrees == (d,):
            return
    raise UnknownFactorizationError(
        f"cannot certify irreducibility of {RatPoly(ints)} below {_CERTIFY_BOUND}"
    )


def rational_two_torsion_dim(curve: CurveSpec) -> int:
    """dim_F2 J(Q)[2] = (number of irreducible factors of f over Q) - 1.

    The factors are the curve's parts, each certified irreducible.  Never
    guesses: undecidable inputs raise UnknownFactorizationError.
    """
    for part in curve.parts:
        _certify_irreducible(*part)
    return len(curve.parts) - 1
