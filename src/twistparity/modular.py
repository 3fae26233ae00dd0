"""Primes, integer factorization, the classical quadratic symbols and
factor degrees over GF(l).

Only the degrees of the irreducible factors of f mod l are ever needed,
and distinct-degree factorization yields them without splitting any
factor: the product g_d of the degree-d factors contributes
deg(g_d)/d factors of degree d.  The computation is deterministic.
Primes in a range come from a segmented sieve; single-number primality
is deterministic Miller-Rabin on the 12-base set valid below 3.3e24, far
above anything a desk-scale scan touches.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadPrimeError, InvalidInputError

__all__ = [
    "Place",
    "is_prime",
    "iter_primes",
    "sieve_primes",
    "factor_integer",
    "divisors",
    "squarefree_part",
    "is_squarefree",
    "kronecker_symbol",
    "hilbert_symbol",
    "factor_degrees",
]

# ---------------------------------------------------------------------------
# places of Q


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the archimedean place (q = 0) or a finite prime q."""

    q: int

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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(n)
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
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


def divisors(n: int) -> list:
    """The positive divisors of |n|, increasing; n must be nonzero."""
    out = [1]
    for p, e in factor_integer(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


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
# polynomial arithmetic over GF(l) (dense int lists, ascending degree)


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, l):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % l
    return _fp_trim(out)


def _fp_rem(a, b, l):
    a = list(a)
    inv = pow(b[-1], -1, l)
    while a and len(a) >= len(b):
        c = a[-1] * inv % l
        k = len(a) - len(b)
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % l
        _fp_trim(a)
    return a


def _fp_div(a, b, l):
    a = list(a)
    inv = pow(b[-1], -1, l)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while a and len(a) >= len(b):
        c = a[-1] * inv % l
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % l
        _fp_trim(a)
    return _fp_trim(q)


def _fp_gcd(a, b, l):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fp_rem(a, b, l)
    if a:
        inv = pow(a[-1], -1, l)
        a = [c * inv % l for c in a]
    return a


def _fp_mulmod(a, b, f, l):
    return _fp_rem(_fp_mul(a, b, l), f, l)


def _fp_powmod(base, e, f, l):
    out = [1]
    b = _fp_rem(list(base), f, l)
    while e:
        if e & 1:
            out = _fp_mulmod(out, b, f, l)
        b = _fp_mulmod(b, b, f, l)
        e >>= 1
    return out


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
    any coefficient denominator, or the discriminant (equivalently f mod l
    must stay separable).  Distinct-degree factorization: with cur the part
    of f not yet accounted for, g_d = gcd(cur, x^(l^d) - x) is the product
    of the degree-d factors, so it holds deg(g_d)/d of them.  Once 2d
    exceeds deg(cur), cur is irreducible.
    """
    if not is_prime(l):
        raise InvalidInputError(f"{l} is not prime")
    if l == 2:
        raise BadPrimeError("2 is always a bad prime here")
    cur = _reduce_poly(f, l)
    deriv = _fp_trim([i * c % l for i, c in enumerate(cur)][1:])
    if len(_fp_gcd(cur, deriv, l)) - 1 != 0:
        raise BadPrimeError(f"{l} divides the discriminant of f")
    degrees = []
    d = 0
    frob = [0, 1]  # x^(l^d) mod cur, maintained incrementally
    while len(cur) - 1 > 0:
        d += 1
        if 2 * d > len(cur) - 1:
            degrees.append(len(cur) - 1)
            break
        frob = _fp_powmod(frob, l, cur, l)
        diff = list(frob) + [0] * max(0, 2 - len(frob))
        diff[1] = (diff[1] - 1) % l
        _fp_trim(diff)
        gd = _fp_gcd(cur, diff, l) if diff else cur
        if len(gd) - 1 > 0:
            degrees += [d] * ((len(gd) - 1) // d)
            cur = _fp_div(cur, gd, l)
            frob = _fp_rem(frob, cur, l) if len(cur) > 1 else [0]
    return tuple(degrees)
