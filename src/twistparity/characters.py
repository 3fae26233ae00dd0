"""Quadratic characters of Q as squarefree integers.

A character chi_d corresponds to the extension Q(sqrt(d)); d = 1 is the
trivial character and the group law is multiplication followed by
squarefree reduction.  Every local fact of chi_d (its behavior,
Sigma-triviality, the omega entry it selects) is read from the index of
the square class of d, ``modular.square_class_index``; tables of local
data are keyed by the class's canonical representative, the entry of
``modular.local_classes`` at that index.
"""

from __future__ import annotations

import enum
import math

from .errors import InvalidInputError, UnknownFactorizationError
from .modular import (
    Place,
    factor_integer,
    is_squarefree,
    kronecker_symbol,
    local_classes,
    square_class_index,
    squarefree_part,
)

__all__ = [
    "QuadTwist",
    "LocalBehavior",
    "local_behavior",
    "sigma_trivial",
    "sigma_trivial_congruences",
    "sigma_trivial_twist",
    "local_square_class",
]


class LocalBehavior(enum.Enum):
    TRIVIAL = "trivial"
    UNRAMIFIED_NONTRIVIAL = "unramified_nontrivial"
    RAMIFIED = "ramified"
    SIGN = "sign"


class QuadTwist:
    """A squarefree nonzero integer encoding a quadratic character of Q."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d
        self.__post_init__()

    # its own method, so the benchmark's shim can count checked constructions
    def __post_init__(self):
        if self.d == 0:
            raise InvalidInputError("twist integer must be nonzero")
        sf = squarefree_part(self.d)
        if sf != self.d:
            raise InvalidInputError(f"{self.d} is not squarefree (use QuadTwist.of)")

    def __eq__(self, other):
        return self.d == other.d if isinstance(other, QuadTwist) else NotImplemented

    def __hash__(self):
        return hash(self.d)

    @classmethod
    def of(cls, n: int) -> "QuadTwist":
        """Canonicalize any nonzero integer to its squarefree kernel."""
        if n == 0:
            raise InvalidInputError("twist integer must be nonzero")
        return cls._unchecked(squarefree_part(n))

    @classmethod
    def _unchecked(cls, d: int) -> "QuadTwist":
        """A twist for a d the caller has just proven squarefree and nonzero."""
        out = object.__new__(cls)
        out.d = d
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
    i = square_class_index(d.d, place)
    if i == 0:
        return LocalBehavior.TRIVIAL
    if i == 1:
        return LocalBehavior.SIGN if place.is_infinity else LocalBehavior.UNRAMIFIED_NONTRIVIAL
    return LocalBehavior.RAMIFIED


def sigma_trivial(d: QuadTwist, sigma) -> bool:
    """True when chi_d is a local square at every place of the bad set."""
    return all(square_class_index(d.d, v) == 0 for v in sigma.iter_places())


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


def local_square_class(d: QuadTwist, place: Place) -> int:
    """The canonical representative of d's square class in Q_v^x/(Q_v^x)^2."""
    return local_classes(place)[square_class_index(d.d, place)]
