"""Primes, integer factorization, the classical quadratic symbols, the
square classes of Q_v and factor degrees over GF(l).

Only the degrees of the irreducible factors of f mod l are ever needed,
and distinct-degree factorization yields them without splitting any
factor: the product g_d of the degree-d factors contributes
deg(g_d)/d factors of degree d.  Stickelberger's theorem fixes the
parity of the factor count from the discriminant of f mod l, which often
settles the last steps without computing them; the GF(l)[x] arithmetic
lives in ``gfpoly``.  The computation is deterministic.
Primes in a range come from a segmented sieve; single-number primality
is deterministic Miller-Rabin below 3.3e24, with the fewest bases proven
for the number's size, and Baillie-PSW above.
"""

from __future__ import annotations

import itertools
import math

from . import gfpoly
from .errors import BadPrimeError, InvalidInputError

__all__ = [
    "place_name",
    "is_prime",
    "iter_primes",
    "factor_integer",
    "squarefree_part",
    "is_squarefree",
    "kronecker_symbol",
    "local_classes",
    "smallest_nonresidue",
    "square_class_index",
    "hilbert_symbol",
    "factor_degrees",
]

# ---------------------------------------------------------------------------
# integer primality / factorization

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (bound, bases): n < bound is prime if it is a strong probable prime to
# every base.  Each bound is the least strong pseudoprime to its bases:
# Pomerance, Selfridge and Wagstaff (1980) and Jaeschke (1993) up to the
# bases 2..17, Jiang and Deng (2014) for 2..23, Sorenson and Webster (2017)
# for 2..37 and 2..41.
_MR_BASE_SETS = (
    (2_047, _SMALL_PRIMES[:1]),
    (1_373_653, _SMALL_PRIMES[:2]),
    (25_326_001, _SMALL_PRIMES[:3]),
    (3_215_031_751, _SMALL_PRIMES[:4]),
    (2_152_302_898_747, _SMALL_PRIMES[:5]),
    (3_474_749_660_383, _SMALL_PRIMES[:6]),
    (341_550_071_728_321, _SMALL_PRIMES[:7]),
    (3_825_123_056_546_413_051, _SMALL_PRIMES[:9]),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: is the odd n > max(bases) a strong probable prime to every base?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41 not a square.

    D is the first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1 and
    Q = (1 - D)/4; n passes when U_d = 0 or V_(d 2^r) = 0 mod n for some
    0 <= r < s, where n + 1 = d 2^s with d odd.
    """
    D = 5
    while (j := kronecker_symbol(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: a proof below 3.3e24, Baillie-PSW above.

    Below 3,317,044,064,679,887,385,961,981 deterministic Miller-Rabin on
    the smallest base set proven for n's size; above it, Miller-Rabin to
    base 2 plus a strong Lucas test (Baillie-PSW: no composite is known to
    pass, but it is not a proof).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for bound, bases in _MR_BASE_SETS:
        if n < bound:
            return _strong_probable_prime(n, bases)
    return (
        _strong_probable_prime(n, (2,))
        and math.isqrt(n) ** 2 != n
        and _strong_lucas_probable_prime(n)
    )


_SEGMENT = 1 << 15  # indices k sieved per window of iter_primes


def iter_primes(start: int, stop: int, m: int = 1):
    """Primes p = 1 mod m in [start, stop), increasing; resumable by passing a new start.

    A segmented sieve over the index k of the progression p = m*k + 1, so
    m = 1 gives every prime and m = 8 only the primes p = 1 mod 8, with
    no work spent on the rest.  The primes q up to isqrt(stop), sieved
    the same way with m = 1, strike out their multiples in windows of
    ``_SEGMENT`` indices: a q dividing m divides no member, and any other
    q divides m*k + 1 exactly when k = -1/m mod q, struck from the first
    member at or above q^2.  Memory stays bounded, and a consumer that
    stops early sieves no further.
    """
    lo = max(-(-(start - 1) // m), 1)  # the first k with m*k + 1 >= max(start, 2)
    hi = -(-(stop - 1) // m)  # the first k with m*k + 1 >= stop
    if lo >= hi:
        return
    base = []  # (q, k = -1/m mod q, the first such k with m*k + 1 >= q^2)
    for q in iter_primes(2, math.isqrt(stop) + 1):
        if m % q:
            r = -pow(m, -1, q) % q
            k = -(-(q * q - 1) // m)
            base.append((q, r, k + (r - k) % q))
    while lo < hi:
        top = min(lo + _SEGMENT, hi)
        last = m * (top - 1) + 1  # the largest member in the window
        flags = bytearray([1]) * (top - lo)
        for q, r, k in base:
            if q * q > last:
                break
            first = max(k, lo + (r - lo) % q)
            flags[first - lo :: q] = bytes(len(range(first, top, q)))
        yield from itertools.compress(range(m * lo + 1, m * top + 1, m), flags)
        lo = top


_RHO_BATCH = 128  # differences multiplied together per gcd in _pollard_rho


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of the odd composite n, not a perfect square.

    Brent's cycle finding (BIT 20, 1980) on y -> y^2 + c from y = 2, for
    c = 1, 2, ... in turn: x is y at the last power of two, and the
    differences x - y are multiplied mod n in batches of ``_RHO_BATCH``,
    one gcd per batch.  When a batch's gcd is n, the batch is replayed
    from its start one gcd at a time; when that too reaches n, the next c
    is tried.
    """
    for c in itertools.count(1):
        y = 2
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                start = (start * start + c) % n
                g = math.gcd(x - start, n)
        if g != n:
            return g


def factor_integer(n: int) -> dict:
    """Prime factorization {p: e} of |n|; n must be nonzero."""
    if n == 0:
        raise InvalidInputError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            if (r := math.isqrt(m)) ** 2 == m:
                stack += [r, r]
                continue
            g = _pollard_rho(m)
            stack += [g, m // g]
    return out


def squarefree_part(n: int) -> int:
    """The squarefree kernel of n, carrying the sign of n."""
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factor_integer(n).items():
        if e % 2:
            out *= p
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factor_integer(n).values())


# ---------------------------------------------------------------------------
# quadratic symbols


def kronecker_symbol(a: int, m: int) -> int:
    """Kronecker symbol (a|m); m must be nonzero."""
    if m == 0:
        raise InvalidInputError("kronecker symbol undefined for m = 0")
    res = 1
    if m < 0:
        m = -m
        if a < 0:
            res = -res
    twos = 0
    while m % 2 == 0:
        m //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            res = -res
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                res = -res
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            res = -res
        a %= m
    return res if m == 1 else 0


# ---------------------------------------------------------------------------
# square classes of Q_v and the Hilbert pairing
#
# A place of Q is an int: 0 for the real place, the prime q otherwise.


def place_name(place: int) -> str:
    """How reports and text name a place: ``inf`` or the prime."""
    return "inf" if place == 0 else str(place)


def smallest_nonresidue(q: int) -> int:
    """Least positive quadratic nonresidue mod an odd prime q."""
    n = 2
    while kronecker_symbol(n, q) != -1:
        n += 1
    return n


_odd_classes: dict = {}  # q -> local_classes at q, so each q's nonresidue is found once


def local_classes(place: int):
    """Canonical representatives of Q_v^x / (Q_v^x)^2, in index order.

    The class of index i is ``local_classes(place)[i]``, where i is what
    ``square_class_index`` returns; the trivial class is index 0.
    """
    if place == 0:
        return (1, -1)
    if place == 2:
        return (1, 5, -1, -5, 2, 10, -2, -10)
    classes = _odd_classes.get(place)
    if classes is None:
        u = smallest_nonresidue(place)
        classes = _odd_classes[place] = (1, u, place, u * place)
    return classes


def square_class_index(x, place: int) -> int:
    """The index of the square class of a nonzero int or Fraction x at a place.

    The bits of the index are the F_2 coordinates of the class in
    Q_v^x / (Q_v^x)^2, with x = q^v * unit:

        real  : bit 0 the sign;
        odd q : bit 1 v mod 2, bit 0 whether the unit is a nonresidue mod q;
        q = 2 : bit 2 v mod 2, bit 1 eps(unit), bit 0 omega(unit),

    where eps(u) = (u - 1)/2 mod 2 and omega(u) = (u^2 - 1)/8 mod 2 (Serre,
    *A Course in Arithmetic*, ch. II).  Numerator and denominator are read
    separately: num * den has the square class of num / den.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        raise InvalidInputError("zero has no square class")
    if place == 0:
        return int(num < 0)
    q = place
    v = 0
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v += 1  # only v mod 2 is kept, and -1 = 1 mod 2
    unit = num * den
    if q == 2:
        return (v & 1) << 2 | (unit % 4 == 3) << 1 | (unit % 8 in (3, 5))
    return (v & 1) << 1 | (kronecker_symbol(unit, q) == -1)


def hilbert_symbol(a, b, place: int) -> int:
    """The Hilbert symbol (a, b)_v over Q: the pairing of two square classes.

    With i, j the indices of a, b (see ``square_class_index``), (a, b)_v is
    (-1)^e for (Serre, ch. III, Theorem 1)

        real  : e = s(a) s(b), s the sign bit;
        odd q : e = v(a) v(b) eps(q) + v(a) n(b) + v(b) n(a), n the nonresidue bit;
        q = 2 : e = eps(a) eps(b) + v(a) omega(b) + v(b) omega(a).
    """
    i = square_class_index(a, place)
    j = square_class_index(b, place)
    if place == 0:
        e = i & j
    elif place == 2:
        e = ((i >> 1) & (j >> 1)) ^ ((i >> 2) & j) ^ ((j >> 2) & i)
    else:
        e = ((i >> 1) & (j >> 1) & (place >> 1)) ^ ((i >> 1) & j) ^ ((j >> 1) & i)
    return -1 if e & 1 else 1


# ---------------------------------------------------------------------------
# factor degrees over GF(l)


def _reduce_poly(f, l: int):
    """f mod l as a monic int list; BadPrimeError if l hits lead or denominators."""
    if f.degree < 1:
        raise InvalidInputError("need a nonconstant polynomial")
    ints, scale = f.primitive_int()  # l divides a denominator exactly when it divides scale
    if scale.numerator % l == 0:
        raise BadPrimeError(f"{l} divides a coefficient denominator")
    if ints[-1] % l == 0:
        raise BadPrimeError(f"{l} divides the leading coefficient")
    inv = pow(ints[-1], -1, l)
    return [c * inv % l for c in ints]


def factor_degrees(f, l: int, disc):
    """Sorted tuple of the irreducible factor degrees of f mod l, l a good odd prime.

    ``disc`` is the exact discriminant of f, which the caller holds.  Good
    reduction is enforced: l must not divide the leading coefficient, any
    coefficient denominator, or the numerator of disc.  The discriminant
    also fixes the parity of the number of factors: by Stickelberger's
    theorem (in Swan's form), (disc g | l) = (-1)^(n - #factors) for the
    monic g = f/lead mod l, and disc f = lead^(2n-2) disc(f/lead) has the
    same quadratic character mod l.

    Distinct-degree factorization: with cur the part of f not yet
    accounted for, g_d = gcd(cur, x^(l^d) - x) is the product of the
    degree-d factors, so it holds deg(g_d)/d of them.  Before each step,
    cur has no factor of degree below d; when only one partition of
    deg(cur) into parts >= d has the number of parts the parity demands,
    that partition is the answer and the step is skipped.  Since a
    partition into parts >= d with deg(cur) < 3d has at most two parts,
    that happens exactly when an odd count is due and deg(cur) < 3d
    (cur is irreducible), or an even count is due and deg(cur) is 2d or
    2d + 1 (factors of degrees d and deg(cur) - d).  Once 2d exceeds
    deg(cur), cur is irreducible in any case.

    Only the first step runs the powering ladder x^l mod cur.  Each later
    step applies the Frobenius matrix, the powers of x^l mod cur, to the
    previous x^(l^d): x^(l^(d+1)) = sum of c_i (x^l)^i where
    x^(l^d) = sum of c_i x^i.  Found factors leave cur only when another
    step is due, which then rebuilds the matrix from x^l mod the new cur.
    """
    if not is_prime(l):
        raise InvalidInputError(f"{l} is not prime")
    if l == 2:
        raise BadPrimeError("2 is always a bad prime here")
    cur = _reduce_poly(f, l)
    if disc.numerator % l == 0:
        raise BadPrimeError(f"{l} divides the discriminant of f")
    square = pow(disc.numerator * disc.denominator, (l - 1) // 2, l) == 1
    parity = (len(cur) - 1 + (not square)) % 2  # of the number of factors
    degrees = []
    d, m = 1, len(cur) - 1  # m: the degree of cur with the factors found divided out
    xl = frob = matrix = gd = ring = None  # x^l, x^(l^(d-1)), Frobenius matrix, ring mod cur
    while m > 0:
        odd = (parity + len(degrees)) % 2  # cur has an odd number of factors
        if 2 * d > m or (odd and m < 3 * d):
            degrees.append(m)
            break
        if not odd and m in (2 * d, 2 * d + 1):
            degrees += [d, m - d]
            break
        if m < len(cur) - 1:  # a step is due: divide out what the last one found
            cur = gfpoly.quo_rem(cur, gd, l)[0]
            xl = gfpoly.pad(gfpoly.quo_rem(xl, cur, l)[1], m)
            frob = gfpoly.pad(gfpoly.quo_rem(frob, cur, l)[1], m)
            matrix = ring = None
        ring = ring or gfpoly.residue_ring(cur, l)
        if xl is None:
            xl = frob = gfpoly.x_pow(l, ring)
        else:
            matrix = matrix or gfpoly.frobenius_matrix(xl, ring)
            frob = gfpoly.frobenius(frob, matrix, ring)
        diff = list(frob)
        diff[1] = (diff[1] - 1) % l
        gd = gfpoly.gcd(cur, diff, l)
        if len(gd) > 1:
            degrees += [d] * ((len(gd) - 1) // d)
            m -= len(gd) - 1
        d += 1
    return tuple(degrees)
