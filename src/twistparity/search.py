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

from collections import namedtuple

from .characters import sigma_trivial
from .curves import CurveSpec
from .errors import InvalidInputError
from .frobenius import prime_scan, sigma_set

__all__ = ["TwistRecipe", "find_shift_primes"]

_DIRECTIONS = ("raise2", "lower2")


class TwistRecipe(namedtuple("TwistRecipe", "l d direction cycle_type checked_conditions")):
    """A candidate shift prime with every locally checkable condition listed.

    ``d`` is the twist, d = l; ``checked_conditions`` holds (name, True | "unverified").
    """

    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {
            "l": self.l,
            "d": self.d,
            "direction": self.direction,
            "cycle_type": self.cycle_type,
            "checked_conditions": self.checked_conditions,
        }


def find_shift_primes(curve: CurveSpec, direction: str, limit: int, cache_path: str):
    """Yield TwistRecipe for every good prime <= limit meeting the conditions.

    raise2: class index 2 with three odd orbit lengths; lower2: class
    index 2 with any cycle type.  Both demand l = 1 mod 8 and (l|q) = +1
    at the odd bad primes, so d = l is the Sigma-trivial twist ramified
    exactly at l.  Only the primes l = 1 mod 8 are sieved and passed to
    ``sigma_trivial``, whose Legendre symbols decide the rest before any
    prime is classified; the scan reads and appends to the cache file at
    ``cache_path``.  An empty stream is a legitimate outcome (some
    curves, including reducible ones, never satisfy the combination).
    """
    if direction not in _DIRECTIONS:
        raise InvalidInputError(f"direction must be one of {_DIRECTIONS}")
    sigma = sigma_set(curve)
    raise2 = direction == "raise2"
    orbits = (("three_odd_orbits", True),) if raise2 else ()
    conditions = (
        ("good_prime", True),
        ("class_index_2", True),
        *orbits,
        ("l_is_1_mod_8", True),
        ("split_at_odd_sigma_primes", True),
        ("twist_sigma_trivial", True),
        ("loc_image_zero" if raise2 else "loc_image_dim_2", "unverified"),
    )
    scan = prime_scan(curve, limit + 1, cache_path, m=8, prime_filter=lambda l: sigma_trivial(l, sigma))
    for pc in scan:
        if pc.i != 2 or (raise2 and not all(x % 2 for x in pc.lengths)):
            continue
        yield TwistRecipe(
            l=pc.l,
            d=pc.l,
            direction=direction,
            cycle_type=pc.lengths,
            checked_conditions=conditions,
        )
