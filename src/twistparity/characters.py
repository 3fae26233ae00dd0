"""Quadratic characters of Q as squarefree integers.

A character chi_d is the squarefree nonzero int d, for the extension
Q(sqrt(d)); d = 1 is the trivial character.  Every local fact of chi_d
(its behavior, the omega entry it selects) is read from the index of the
square class of d, ``modular.square_class_index``, and tables of local
data are tuples in that index order.  chi_d is ramified at a prime
exactly where that index is 2 or more, so no function here factors d.
The class's canonical representative, the entry of
``modular.local_classes`` at that index, is only read in profiles and
written in reports.
"""

from __future__ import annotations

from .modular import local_classes, square_class_index

__all__ = ["local_behavior", "sigma_trivial", "local_square_class"]


def local_behavior(d: int, place: int) -> str:
    """How chi_d restricts to Q_v, read off the index of its square class.

    Index 0 is ``trivial``, index 1 ``sign`` at the real place and
    ``unramified_nontrivial`` at a prime, and every other index ``ramified``.
    """
    i = square_class_index(d, place)
    if i == 0:
        return "trivial"
    if i == 1:
        return "sign" if place == 0 else "unramified_nontrivial"
    return "ramified"


def sigma_trivial(d: int, sigma: tuple) -> bool:
    """True when chi_d is a local square at every place of the bad set.

    For squarefree d that is d > 0, d = 1 mod 8 and (d|q) = 1 at each odd
    bad prime q, ``sigma[2:]``: square class index 0 at the real place, at
    2 and at q, where Euler's criterion decides (d|q) for the prime q.
    """
    return d > 0 and d % 8 == 1 and all(pow(d, (q - 1) // 2, q) == 1 for q in sigma[2:])


def local_square_class(d: int, place: int) -> int:
    """The canonical representative of d's square class in Q_v^x/(Q_v^x)^2."""
    return local_classes(place)[square_class_index(d, place)]
