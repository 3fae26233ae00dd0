"""Quadratic characters of Q as squarefree integers.

A character chi_d corresponds to the extension Q(sqrt(d)); d = 1 is the
trivial character and the group law is multiplication followed by
squarefree reduction.  Each local square class gets a fixed canonical
integer representative so tables of local data can be keyed bit-exactly,
and every local fact of chi_d (its behavior, Sigma-triviality, the omega
entry it selects) is read from the class of d.  The representatives,
trivial class first:

    odd q : 1, u_q, q, u_q*q   (u_q = least positive nonresidue mod q)
    q = 2 : 1, 5, -1, -5, 2, 10, -2, -10
    real  : 1, -1
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidInputError, UnknownFactorizationError
from .modular import (
    Place,
    factor_integer,
    is_squarefree,
    kronecker_symbol,
    squarefree_part,
)

__all__ = [
    "QuadTwist",
    "LocalBehavior",
    "local_behavior",
    "twist_norm",
    "sigma_trivial",
    "sigma_trivial_congruences",
    "sigma_trivial_twist",
    "local_classes",
    "local_square_class",
    "smallest_nonresidue",
]


class LocalBehavior(enum.Enum):
    TRIVIAL = "trivial"
    UNRAMIFIED_NONTRIVIAL = "unramified_nontrivial"
    RAMIFIED = "ramified"
    SIGN = "sign"


@dataclass(frozen=True, order=True)
class QuadTwist:
    """A squarefree nonzero integer encoding a quadratic character of Q."""

    d: int

    def __post_init__(self):
        if self.d == 0:
            raise InvalidInputError("twist integer must be nonzero")
        sf = squarefree_part(self.d)
        if sf != self.d:
            raise InvalidInputError(f"{self.d} is not squarefree (use QuadTwist.of)")

    @classmethod
    def of(cls, n: int) -> "QuadTwist":
        """Canonicalize any nonzero integer to its squarefree kernel."""
        if n == 0:
            raise InvalidInputError("twist integer must be nonzero")
        return cls(squarefree_part(n))

    @classmethod
    def _unchecked(cls, d: int) -> "QuadTwist":
        """A twist for a d the caller has just proven squarefree and nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "d", d)
        return out

    def __mul__(self, other: "QuadTwist") -> "QuadTwist":
        # for squarefree a, b the product a*b/gcd(a, b)^2 is squarefree
        g = math.gcd(self.d, other.d)
        return QuadTwist._unchecked(self.d * other.d // (g * g))

    @property
    def is_trivial(self) -> bool:
        return self.d == 1

    def ramified_primes(self):
        """Finite primes where chi_d is ramified, sorted."""
        if self.d == 1:
            return ()
        out = set(factor_integer(abs(self.d)))
        out.discard(2)
        if self.d % 4 != 1:  # even d, or d = 3 mod 4
            out.add(2)
        return tuple(sorted(out))

    def __str__(self):
        return str(self.d)


def local_behavior(d: QuadTwist, place: Place) -> LocalBehavior:
    """How chi_d restricts to Q_v, read off the index of its square class."""
    i = local_classes(place).index(local_square_class(d, place))
    if i == 0:
        return LocalBehavior.TRIVIAL
    if i == 1:
        return LocalBehavior.SIGN if place.is_infinity else LocalBehavior.UNRAMIFIED_NONTRIVIAL
    return LocalBehavior.RAMIFIED


def twist_norm(d: QuadTwist) -> int:
    """max of the finite ramified primes; 1 when chi_d is unramified everywhere."""
    ram = d.ramified_primes()
    return max(ram) if ram else 1


def sigma_trivial(d: QuadTwist, sigma) -> bool:
    """True when chi_d is a local square at every place of the bad set."""
    return all(local_square_class(d, v) == 1 for v in sigma.iter_places())


def sigma_trivial_congruences(n: int, sigma) -> bool:
    """n > 0, n = 1 mod 8 and (n|q) = 1 at each odd bad prime q.

    For squarefree n these hold exactly when chi_n is Sigma-trivial.
    """
    return n > 0 and n % 8 == 1 and all(kronecker_symbol(n, q) == 1 for q in sigma.odd_primes)


def sigma_trivial_twist(n: int, sigma) -> QuadTwist | None:
    """chi_n when n is squarefree and Sigma-trivial, else None.

    The congruences run before the squarefree test; ``sigma_trivial``
    re-checks the result.
    """
    if not sigma_trivial_congruences(n, sigma) or not is_squarefree(n):
        return None
    d = QuadTwist._unchecked(n)
    if not sigma_trivial(d, sigma):
        raise UnknownFactorizationError(f"d = {n} passes the congruences but is not Sigma-trivial")
    return d


def smallest_nonresidue(q: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime q."""
    n = 2
    while kronecker_symbol(n, q) != -1:
        n += 1
    return n


def local_classes(place: Place):
    """Canonical representatives of Q_v^x / (Q_v^x)^2, trivial class first."""
    if place.is_infinity:
        return (1, -1)
    q = place.q
    if q == 2:
        return (1, 5, -1, -5, 2, 10, -2, -10)
    u = smallest_nonresidue(q)
    return (1, u, q, u * q)


def local_square_class(d: QuadTwist, place: Place) -> int:
    """The canonical representative of d's square class in Q_v^x/(Q_v^x)^2."""
    n = d.d
    if place.is_infinity:
        return 1 if n > 0 else -1
    q = place.q
    if q == 2:
        odd = n
        e = 0
        if odd % 2 == 0:
            odd //= 2
            e = 1
        r = odd % 8
        unit = {1: 1, 5: 5, 3: -5, 7: -1}[r]
        return unit * (2 if e else 1)
    e = 0
    unit = n
    if unit % q == 0:
        unit //= q
        e = 1
    res = kronecker_symbol(unit, q)
    u = 1 if res == 1 else smallest_nonresidue(q)
    return u * (q if e else 1)
