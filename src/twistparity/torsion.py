"""The rational 2-torsion of the curve's Jacobian, by certified factor counts.

Its F_2-dimension is one less than the number of irreducible factors of
f over Q.  That count reads each declared factor, or f, through its
integer part in ``CurveSpec.parts``, divides out rational roots and
certifies each cofactor of degree above 3 irreducible by a prime where it
stays irreducible; a count it cannot certify is an error, never a guess.  A
cofactor that splits into nonlinear factors over Q has no such prime, so
an f declared without its factors reads UnknownFactorizationError there;
declaring the factors is the way past it.
"""

from __future__ import annotations

from .curves import CurveSpec
from .errors import BadPrimeError, UnknownFactorizationError
from .modular import factor_degrees, iter_primes
from .ratpoly import RatPoly, integer_part, rational_roots

__all__ = ["rational_two_torsion_dim"]

# primes below this bound are tried for an irreducibility certificate
_CERTIFY_BOUND = 2000


def _certify_irreducible(g: RatPoly, ints: tuple, disc: int) -> None:
    """Certify g irreducible over Q, given that g is linear or has no rational
    root; (ints, disc) is its integer part.

    Degree <= 3 follows from that.  Higher degrees need a
    cycle-type certificate: the integer part irreducible mod a prime
    dividing neither its lead nor its discriminant forces irreducibility
    over Q (``factor_degrees`` rejects the other primes); a bounded scan
    that never finds one raises UnknownFactorizationError rather than
    guessing.
    """
    d = g.degree
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
        f"cannot certify irreducibility of {g} below {_CERTIFY_BOUND}"
    )


def rational_two_torsion_dim(curve: CurveSpec) -> int:
    """dim_F2 J(Q)[2] = (number of irreducible factors of f over Q) - 1.

    The factors are counted from each declared factor, or f itself when
    none is declared: its rational roots are divided out and the cofactor,
    when it is not constant, is certified irreducible.  A declared factor
    of degree > 1 with a rational root is an error.  Never guesses:
    undecidable inputs raise UnknownFactorizationError.
    """
    count = 0
    for g, part in zip(curve.declared_factors or (curve.f,), curve.parts):
        roots = rational_roots(*part)
        if curve.declared_factors and g.degree > 1 and roots:
            raise UnknownFactorizationError(f"declared factor {g} is not irreducible")
        for r in roots:
            g = g.divmod(RatPoly((-r, 1)))[0]
        count += len(roots)
        if g.degree >= 1:
            # only a cofactor left by dividing out roots needs its own integer part
            _certify_irreducible(g, *(integer_part(g) if roots else part))
            count += 1
    return count - 1
