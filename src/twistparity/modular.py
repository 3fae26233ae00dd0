"""Primes, integer factorization, the classical quadratic symbols and
factor degrees over GF(l).

Only the degrees of the irreducible factors of f mod l are ever needed,
and distinct-degree factorization yields them without splitting any
factor: the product g_d of the degree-d factors contributes
deg(g_d)/d factors of degree d.  Stickelberger's theorem fixes the
parity of the factor count from Res(f, f') mod l, which often settles
the last steps without computing them; the GF(l)[x] arithmetic lives in
``gfpoly``.  The computation is deterministic.
Primes in a range come from a segmented sieve; single-number primality
is deterministic Miller-Rabin below 3.3e24, with the fewest bases proven
for the number's size, and Baillie-PSW above.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import gfpoly
from .errors import BadPrimeError, InvalidInputError

__all__ = [
    "Place",
    "is_prime",
    "iter_primes",
    "sieve_primes",
    "factor_integer",
    "squarefree_part",
    "is_squarefree",
    "kronecker_symbol",
    "hilbert_symbol",
    "factor_degrees",
]

# ---------------------------------------------------------------------------
# places of Q


class Place:
    """A place of Q: the archimedean place (q = 0) or a finite prime q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = q

    def __eq__(self, other):
        return self.q == other.q if isinstance(other, Place) else NotImplemented

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):  # UnknownProfileError lists places in its message
        return f"Place(q={self.q})"

    @classmethod
    def infinity(cls) -> "Place":
        return cls(0)

    @classmethod
    def finite(cls, q: int) -> "Place":
        if not is_prime(q):
            raise InvalidInputError(f"{q} is not prime")
        return cls(q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self):
        return "inf" if self.q == 0 else str(self.q)


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


def sieve_primes(limit: int):
    """All primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


_SEGMENT = 1 << 15  # integers sieved per window of iter_primes


def iter_primes(start: int, stop: int):
    """Primes in [start, stop), increasing; resumable by passing a new start.

    A segmented sieve: the primes up to isqrt(stop) strike out composites
    in windows of ``_SEGMENT`` integers, so memory stays bounded however
    long the range is and a consumer that stops early sieves no further.
    """
    lo = max(start, 2)
    if lo >= stop:
        return
    base = sieve_primes(math.isqrt(stop))
    while lo < stop:
        hi = min(lo + _SEGMENT, stop)
        flags = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            flags[first - lo :: p] = bytes(len(range(first, hi, p)))
        yield from itertools.compress(range(lo, hi), flags)
        lo = hi


_RHO_BATCH = 128  # differences multiplied together per gcd in _pollard_rho


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n, not a perfect square.

    Brent's cycle finding (BIT 20, 1980) on y -> y^2 + c: x is y at the
    last power of two, and the differences x - y are multiplied mod n in
    batches of ``_RHO_BATCH``, one gcd per batch.  When a batch's gcd is
    n, the batch is replayed from its start one gcd at a time; when that
    too reaches n, another c is drawn.
    """
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(n)
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
        rng = None  # seeded from the cofactor on the first split, if one is needed
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
            if rng is None:
                rng = random.Random(0xC0FFEE ^ n)
            g = _pollard_rho(m, rng)
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


def _val_unit(x, q: int):
    """(v_q(x), unit part) for nonzero rational x at a finite prime q."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v, Fraction(num, den)


def _unit_residue(u: Fraction, m: int) -> int:
    """u mod m for a rational u whose denominator is invertible mod m."""
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, place: Place) -> int:
    """The Hilbert symbol (a, b)_v over Q, via the standard closed forms."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InvalidInputError("hilbert symbol requires nonzero arguments")
    if place.is_infinity:
        return -1 if (a < 0 and b < 0) else 1
    q = place.q
    alpha, u = _val_unit(a, q)
    beta, w = _val_unit(b, q)
    if q == 2:
        eps_u = (_unit_residue(u, 4) - 1) // 2
        eps_w = (_unit_residue(w, 4) - 1) // 2
        omega_u = 1 if _unit_residue(u, 8) in (3, 5) else 0
        omega_w = 1 if _unit_residue(w, 8) in (3, 5) else 0
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and q % 4 == 3:
        sign = -sign
    if beta % 2:
        sign *= kronecker_symbol(_unit_residue(u, q), q)
    if alpha % 2:
        sign *= kronecker_symbol(_unit_residue(w, q), q)
    return sign


# ---------------------------------------------------------------------------
# factor degrees over GF(l)


def _reduce_poly(f, l: int):
    """f mod l as a monic int list; BadPrimeError if l hits lead or denominators."""
    if f.degree < 1:
        raise InvalidInputError("need a nonconstant polynomial")
    coeffs = []
    for c in f.coeffs:
        if c.denominator % l == 0:
            raise BadPrimeError(f"{l} divides a coefficient denominator")
        coeffs.append(c.numerator * pow(c.denominator, -1, l) % l)
    if coeffs[-1] == 0:
        raise BadPrimeError(f"{l} divides the leading coefficient")
    inv = pow(coeffs[-1], -1, l)
    return [c * inv % l for c in coeffs]


def factor_degrees(f, l: int):
    """Sorted tuple of the irreducible factor degrees of f mod l, l a good odd prime.

    Good reduction is enforced: l must not divide the leading coefficient,
    any coefficient denominator, or the discriminant.  The last is tested
    as Res(f, f') mod l, which also fixes the parity of the number of
    factors: by Stickelberger's theorem (in Swan's form),
    (disc f | l) = (-1)^(n - #factors) with disc f = (-1)^(n(n-1)/2) Res(f, f')
    for monic f.

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
    x^(l^d) = sum of c_i x^i.  After a division the matrix is rebuilt from
    x^l reduced mod the new cur.
    """
    if not is_prime(l):
        raise InvalidInputError(f"{l} is not prime")
    if l == 2:
        raise BadPrimeError("2 is always a bad prime here")
    cur = _reduce_poly(f, l)
    n = len(cur) - 1
    deriv = gfpoly.trim([i * c % l for i, c in enumerate(cur)][1:])
    res = gfpoly.resultant(cur, deriv, l)
    if res == 0:
        raise BadPrimeError(f"{l} divides the discriminant of f")
    disc = -res if n * (n - 1) // 2 % 2 else res
    parity = (n + (pow(disc, (l - 1) // 2, l) != 1)) % 2  # of the number of factors
    degrees = []
    d = 1
    xl = frob = matrix = None  # x^l and x^(l^(d-1)) mod cur; Frobenius matrix of cur
    while (m := len(cur) - 1) > 0:
        odd = (parity + len(degrees)) % 2  # cur has an odd number of factors
        if 2 * d > m or (odd and m < 3 * d):
            degrees.append(m)
            break
        if not odd and m in (2 * d, 2 * d + 1):
            degrees += [d, m - d]
            break
        if xl is None:
            xl = frob = gfpoly.x_pow(l, gfpoly.fold_columns(cur, l), l)
        else:
            if matrix is None:
                matrix = gfpoly.frobenius_matrix(xl, gfpoly.fold_columns(cur, l), l)
            frob = gfpoly.frobenius(frob, matrix, l)
        diff = list(frob)
        diff[1] = (diff[1] - 1) % l
        gd = gfpoly.gcd(cur, gfpoly.trim(diff), l)
        if len(gd) > 1:
            degrees += [d] * ((len(gd) - 1) // d)
            cur = gfpoly.quo_rem(cur, gd, l)[0]
            xl = gfpoly.pad(gfpoly.quo_rem(xl, cur, l)[1], len(cur) - 1)
            frob = gfpoly.pad(gfpoly.quo_rem(frob, cur, l)[1], len(cur) - 1)
            matrix = None
        d += 1
    return tuple(degrees)
