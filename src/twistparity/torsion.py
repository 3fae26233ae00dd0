"""The pi-torsion as a permutation module, and the rational 2-torsion.

The torsion sits inside F_p^n spanned by root classes, modulo the
all-ones relation.  The fixed-space dimension of a permutation acting on
that quotient is computed by honest row reduction; the closed form
(#cycles - 1) is deliberately NOT used here so the test suite can check
the formula against this oracle instead of assuming it.

The rational 2-torsion of the curve's Jacobian has F_2-dimension one less
than the number of irreducible factors of f over Q.  That count divides
out rational roots and certifies each cofactor of degree above 3
irreducible by a prime where it stays irreducible; a count it cannot
certify is an error, never a guess.
"""

from __future__ import annotations

from .curves import CurveSpec
from .errors import BadPrimeError, InvalidInputError, UnknownFactorizationError
from .modular import factor_degrees, iter_primes
from .ratpoly import RatPoly, discriminant, rational_roots

__all__ = [
    "cycle_lengths",
    "fixed_space_dim",
    "rational_two_torsion_dim",
]


def cycle_lengths(images) -> tuple:
    """Sorted cycle lengths of the permutation i -> images[i] of {0..n-1}."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        m = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            m += 1
        if m:
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


def fixed_space_dim(images, p: int) -> int:
    """dim over F_p of the fixed subspace of F_p^n / <all-ones> under a permutation.

    The permutation sigma: i -> images[i] of {0..n-1} acts on coordinates
    by (sigma v)_i = v_images[i]; acting through its inverse instead fixes
    the same vectors.  Computed by row-reducing the matrix of
    (sigma - 1) composed with the projection killing the all-ones line:
    v is fixed in the quotient iff (sigma - 1)v lies on the line, and the
    line itself is always fixed.
    """
    n = len(images)
    if n % p == 0:
        raise InvalidInputError("p must not divide n")
    # B v = projection of (sigma - 1) v: coordinates i < n-1 of w - w_n * 1
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[images[i]] += 1
        row[i] -= 1
        row[images[n - 1]] -= 1
        row[n - 1] += 1
        rows.append([x % p for x in row])
    kernel_dim = n - _rank_mod_p(rows, p)
    return kernel_dim - 1


# ---------------------------------------------------------------------------
# rational 2-torsion via certified factor counts

# primes below this bound are tried for an irreducibility certificate
_CERTIFY_BOUND = 2000


def _certify_irreducible(g: RatPoly) -> None:
    """Certify g irreducible over Q, given that g is linear or has no rational root.

    Degree <= 3 follows from that.  Higher degrees need a
    cycle-type certificate: irreducible mod a good prime forces
    irreducibility over Q (``factor_degrees`` rejects the bad ones); a
    bounded scan that never finds one raises UnknownFactorizationError
    rather than guessing.
    """
    d = g.degree
    if d <= 3:
        return
    disc = discriminant(g)
    for l in iter_primes(3, _CERTIFY_BOUND):
        try:
            degrees = factor_degrees(g, l, disc)
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
    for g in curve.declared_factors or (curve.f,):
        roots = rational_roots(g)
        if curve.declared_factors and g.degree > 1 and roots:
            raise UnknownFactorizationError(f"declared factor {g} is not irreducible")
        for r in roots:
            g = g // RatPoly((-r, 1))
        count += len(roots)
        if g.degree >= 1:
            _certify_irreducible(g)
            count += 1
    return count - 1
