"""Exact univariate polynomial algebra over the rationals.

Polynomials are immutable tuples of ``fractions.Fraction`` in ascending
degree with a nonzero leading coefficient (the zero polynomial is the
empty tuple).  Everything here is exact: resultants run the classical
Euclidean recursion over Q, and real-root counts come from Sturm chains
whose members are reduced to primitive integer form at every step so the
coefficients stay small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError
from .modular import divisors, factor_integer

__all__ = [
    "RatPoly",
    "discriminant",
    "bad_primes",
    "is_separable",
    "real_root_signature",
    "compose_rational",
    "sturm_real_root_count",
    "rational_roots",
]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InvalidInputError(f"cannot coerce {x!r} to a rational coefficient")


class RatPoly:
    """An exact polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_poly(other))

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidInputError("negative polynomial power")
        out = RatPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "RatPoly"):
        """Exact quotient and remainder over Q."""
        other = _coerce_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        inv = 1 / other.lead
        while len(rem) - 1 >= d and rem:
            c = rem[-1] * inv
            k = len(rem) - 1 - d
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return RatPoly(q), RatPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def monic(self) -> "RatPoly":
        if not self:
            return self
        inv = 1 / self.lead
        return RatPoly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic greatest common divisor."""
        a, b = self, _coerce_poly(other)
        while b:
            a, b = b, a % b
        return a.monic()

    def compose(self, inner: "RatPoly") -> "RatPoly":
        acc = RatPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + RatPoly((c,))
        return acc

    def shift(self, a) -> "RatPoly":
        """self(x + a)."""
        return self.compose(RatPoly((a, 1)))

    def primitive_int(self):
        """Integer-coefficient polynomial equal to a positive multiple of self.

        Returns (poly_as_int_tuple, scale) with scale > 0 rational and
        int coefficients of content 1; the sign pattern matches self.
        """
        if not self:
            return (), Fraction(1)
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        ints = [v // g for v in ints]
        return tuple(ints), Fraction(den, g)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"RatPoly({self})"


def _coerce_poly(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly((x,))
    raise InvalidInputError(f"cannot coerce {x!r} to RatPoly")


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g) by the Euclidean recursion, exact over Q."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    r = f % g
    if r.is_zero():
        return Fraction(0)
    sign = Fraction(-1) ** (f.degree * g.degree)
    return sign * g.lead ** (f.degree - r.degree) * resultant(g, r)


def discriminant(f: RatPoly) -> Fraction:
    """Discriminant normalized so Res(f, f') * (-1)^(n(n-1)/2) / lead(f).

    Equals lead(f)^(2n-2) * prod_(i<j) (root_i - root_j)^2, so its sign and
    square class agree with the root-difference product for monic f.
    """
    n = f.degree
    if n < 2:
        raise InvalidInputError("discriminant requires degree >= 2")
    return resultant(f, f.derivative()) * Fraction(-1) ** (n * (n - 1) // 2) / f.lead


def bad_primes(f: RatPoly) -> set:
    """Primes dividing lead(f), a coefficient denominator or the numerator of disc(f); f separable."""
    out = set(factor_integer(discriminant(f).numerator))
    out.update(factor_integer(f.lead.numerator))
    out.update(factor_integer(math.lcm(*(c.denominator for c in f.coeffs))))
    return out


def is_separable(f: RatPoly) -> bool:
    """True when gcd(f, f') is constant."""
    if f.is_zero():
        raise InvalidInputError("zero polynomial")
    if f.degree == 0:
        return True
    return f.gcd(f.derivative()).degree == 0


def _sign_variations(signs) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def _sturm_chain(f: RatPoly):
    """Sturm chain as primitive integer tuples (positive rescaling only)."""
    chain = []
    cur, _ = f.primitive_int()
    nxt, _ = f.derivative().primitive_int()
    chain.append(cur)
    while nxt:
        chain.append(nxt)
        rem = -(RatPoly(cur) % RatPoly(nxt))
        cur, nxt = nxt, rem.primitive_int()[0]
    return chain


def sturm_real_root_count(f: RatPoly) -> int:
    """Number of distinct real roots of f, by Sturm's theorem on (-inf, inf)."""
    if f.is_zero():
        raise InvalidInputError("zero polynomial")
    if f.degree == 0:
        return 0
    chain = _sturm_chain(f)
    at_pos = [(1 if p[-1] > 0 else -1) for p in chain]
    at_neg = [s * (-1) ** (len(p) - 1) for s, p in zip(at_pos, chain)]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


def real_root_signature(f: RatPoly):
    """(real root count, k1, k2) for separable odd-degree f.

    f has 2*k1 - 1 real roots and 2*k2 complex roots.
    """
    if f.degree < 1 or f.degree % 2 == 0:
        raise InvalidInputError("real_root_signature requires odd degree")
    if not is_separable(f):
        raise InvalidInputError("real_root_signature requires a separable polynomial")
    r = sturm_real_root_count(f)
    return r, (r + 1) // 2, (f.degree - r) // 2


def compose_rational(f: RatPoly, num: RatPoly, den: RatPoly, clear_degree: int) -> RatPoly:
    """den(x)^clear_degree * f(num(x)/den(x)), exact; errors if not a polynomial."""
    if den.is_zero():
        raise InvalidInputError("zero denominator in rational composition")
    if clear_degree < 0:
        raise InvalidInputError("clear_degree must be nonnegative")
    d = max(f.degree, 0)
    acc = RatPoly.zero()
    num_pow = RatPoly.one()
    den_pows = [RatPoly.one()]
    for _ in range(d):
        den_pows.append(den_pows[-1] * den)
    for i, c in enumerate(f.coeffs):
        if c:
            acc = acc + RatPoly((c,)) * num_pow * den_pows[d - i]
        if i < d:
            num_pow = num_pow * num
    if clear_degree >= d:
        return acc * den ** (clear_degree - d)
    q, r = acc.divmod(den ** (d - clear_degree))
    if not r.is_zero():
        raise InvalidInputError(
            "clearing denominators does not produce a polynomial "
            f"(remainder {r} after dividing by den^{d - clear_degree})"
        )
    return q


def rational_roots(f: RatPoly):
    """All rational roots of f, by the rational root theorem over ``divisors``."""
    if f.is_zero():
        raise InvalidInputError("zero polynomial")
    ints, _ = f.primitive_int()
    k = 0
    while ints[k] == 0:
        k += 1
    roots = [Fraction(0)] if k else []
    ints = ints[k:]
    if len(ints) == 1:
        return roots
    g = RatPoly(ints)
    dens = divisors(ints[-1])
    for p in divisors(ints[0]):
        for q in dens:
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if g(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))
