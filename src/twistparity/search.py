"""Searches for primes realizing the rank-shift twist constructions.

A +-2 shift wants a class-index-2 prime l whose twist d = l is locally
trivial on the whole bad set, which over Q pins d to a positive prime
with l = 1 mod 8 splitting at every odd bad prime.  The raising
construction additionally needs all three Frobenius orbits of odd
length.  Conditions on the Selmer localization map cannot be checked
without cocycle data, so every recipe carries them as 'unverified' and
is a candidate, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import QuadTwist, sigma_trivial, sigma_trivial_congruences
from .curves import CurveSpec
from .errors import InvalidInputError
from .frobenius import PrimeCache, classify_prime, prime_scan, sigma_set
from .torsion import orbit_lengths_coprime

__all__ = ["TwistRecipe", "find_shift_primes", "odd_p_orbit_predicate"]

_DIRECTIONS = ("raise2", "lower2")


@dataclass(frozen=True)
class TwistRecipe:
    """A candidate shift prime with every locally checkable condition listed."""

    l: int
    d: QuadTwist
    direction: str
    cycle_type: tuple
    checked_conditions: tuple  # of (name, True | "unverified")

    def verify(self, curve: CurveSpec, cache: PrimeCache | None = None) -> bool:
        """Recompute all checkable conditions from scratch."""
        sigma = sigma_set(curve)
        if self.l in sigma:
            return False
        pc = classify_prime(curve, self.l, cache=cache)
        ok = pc.i == 2 and pc.lengths == self.cycle_type
        if self.direction == "raise2":
            ok = ok and orbit_lengths_coprime(pc.lengths, 2)
        ok = ok and sigma_trivial_congruences(self.l, sigma)
        ok = ok and self.d == QuadTwist(self.l)
        ok = ok and sigma_trivial(self.d, sigma)
        return ok


def find_shift_primes(
    curve: CurveSpec,
    direction: str,
    limit: int,
    cache: PrimeCache | None = None,
):
    """Yield TwistRecipe for every good prime <= limit meeting the conditions.

    raise2: class index 2 with three odd orbit lengths; lower2: class
    index 2 with any cycle type.  Both demand l = 1 mod 8 and (l|q) = +1
    at the odd bad primes, so d = l is the Sigma-trivial twist ramified
    exactly at l.  An empty stream is a legitimate outcome (some curves,
    including reducible ones, never satisfy the combination).
    """
    if direction not in _DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {_DIRECTIONS}")
    if curve.degree < 3:
        raise InvalidInputError("degree below 3 cannot carry the construction")
    sigma = sigma_set(curve)

    def good(pc) -> bool:
        if pc.i != 2:
            return False
        return direction != "raise2" or orbit_lengths_coprime(pc.lengths, 2)

    for pc in prime_scan(
        curve, 2, limit + 1, predicate=good, cache=cache,
        prime_filter=lambda l: sigma_trivial_congruences(l, sigma),
    ):
        conditions = [
            ("good_prime", True),
            ("class_index_2", True),
        ]
        if direction == "raise2":
            conditions.append(("three_odd_orbits", True))
        conditions += [
            ("l_is_1_mod_8", True),
            ("split_at_odd_sigma_primes", True),
            ("twist_sigma_trivial", True),
            (
                "loc_image_zero" if direction == "raise2" else "loc_image_dim_2",
                "unverified",
            ),
        ]
        yield TwistRecipe(
            l=pc.l,
            d=QuadTwist(pc.l),
            direction=direction,
            cycle_type=pc.lengths,
            checked_conditions=tuple(conditions),
        )


def odd_p_orbit_predicate(cycle_type, p: int) -> bool:
    """Exactly two orbits, neither of length divisible by the odd prime p."""
    lengths = tuple(cycle_type)
    return len(lengths) == 2 and all(x % p != 0 for x in lengths)
