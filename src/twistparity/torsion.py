"""Brute-force model of the pi-torsion as a permutation module.

The torsion sits inside F_p^n spanned by root classes, modulo the
all-ones relation.  The fixed-space dimension of a permutation acting on
that quotient is computed by honest row reduction; the closed form
(#cycles - 1) is deliberately NOT used here so the test suite can check
the formula against this oracle instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import CurveSpec
from .errors import InvalidInputError, UnknownFactorizationError
from .modular import factor_degrees, iter_primes
from .ratpoly import RatPoly, bad_primes, rational_roots

__all__ = [
    "Permutation",
    "fixed_space_dim",
    "orbit_lengths_coprime",
    "rational_two_torsion_dim",
    "count_irreducible_factors",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1} stored as the tuple of images."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise InvalidInputError("images do not define a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from 1-based disjoint cycles, e.g. [(1,2),(3,4,5)]."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= n or a in seen:
                    raise InvalidInputError(f"bad cycle entry {a}")
                seen.add(a)
            for a, b in zip(cyc, cyc[1:] + tuple(cyc[:1])):
                images[a - 1] = b - 1
        return cls(tuple(images))

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        images = list(range(n))
        rng.shuffle(images)
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self after other."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycle_lengths(self) -> tuple:
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i]:
                continue
            m = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                m += 1
            out.append(m)
        return tuple(sorted(out))


def _rank_mod_p(rows, p: int) -> int:
    """Rank of a matrix (list of row lists) over F_p by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col] % p
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fixed_space_dim(sigma: Permutation, n: int, p: int) -> int:
    """dim over F_p of the sigma-fixed subspace of F_p^n / <all-ones>.

    Computed by row-reducing the matrix of (sigma - 1) composed with the
    projection killing the all-ones line: v is fixed in the quotient iff
    (sigma - 1)v lies on the line, and the line itself is always fixed.
    """
    if sigma.n != n:
        raise InvalidInputError("permutation degree mismatch")
    if n % p == 0:
        raise InvalidInputError("p must not divide n")
    inv = sigma.inverse().images
    # B v = projection of (sigma - 1) v: coordinates i < n-1 of w - w_n * 1
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[inv[i]] += 1
        row[i] -= 1
        row[inv[n - 1]] -= 1
        row[n - 1] += 1
        rows.append([x % p for x in row])
    kernel_dim = n - _rank_mod_p(rows, p)
    return kernel_dim - 1


def orbit_lengths_coprime(lengths, p: int) -> bool:
    """True when no orbit length is divisible by p."""
    return all(x % p != 0 for x in lengths)


# ---------------------------------------------------------------------------
# rational 2-torsion via certified factor counts


def _is_irreducible_over_q(g: RatPoly, certify_bound: int) -> bool:
    """Certified irreducibility test; UnknownFactorizationError if undecided.

    Degree <= 3 reduces to rational roots.  Higher degrees fall back to a
    cycle-type certificate: irreducible mod a good prime forces
    irreducibility over Q; a bounded scan that never finds one gives up
    rather than guessing.
    """
    d = g.degree
    if d == 1:
        return True
    roots = rational_roots(g)
    if roots:
        return False
    if d in (2, 3):
        return True
    bad = bad_primes(g)
    for l in iter_primes(3, certify_bound):
        if l not in bad and factor_degrees(g, l) == (d,):
            return True
    raise UnknownFactorizationError(
        f"cannot certify irreducibility of {g} below {certify_bound}"
    )


def count_irreducible_factors(curve: CurveSpec, certify_bound: int = 2000) -> int:
    """Number of irreducible factors of f over Q, certified or error.

    Uses the declared factorization when present (each declared factor is
    re-certified irreducible); otherwise strips rational roots and
    certifies the cofactor.  Never guesses: undecidable inputs raise
    UnknownFactorizationError.
    """
    if curve.declared_factors:
        for g in curve.declared_factors:
            if not _is_irreducible_over_q(g, certify_bound):
                raise UnknownFactorizationError(
                    f"declared factor {g} is not irreducible"
                )
        return len(curve.declared_factors)
    f = curve.f
    roots = rational_roots(f)
    count = len(roots)
    for r in roots:
        f = f.divmod(RatPoly((-r, 1)))[0]
    if f.degree >= 1:
        if not _is_irreducible_over_q(f, certify_bound):
            raise UnknownFactorizationError(
                f"root-free cofactor {f} is reducible; declare factors explicitly"
            )
        count += 1
    return count


def rational_two_torsion_dim(curve: CurveSpec, certify_bound: int = 2000) -> int:
    """dim_F2 J(Q)[2] = (number of irreducible factors of f over Q) - 1."""
    return count_irreducible_factors(curve, certify_bound) - 1
