"""Exact univariate polynomial algebra over the rationals.

Polynomials are tuples of ``fractions.Fraction`` in ascending degree with
a nonzero leading coefficient (the zero polynomial is the empty tuple).
Everything here is exact.  The discriminant and the real-root count of f
both come from one sequence over Q: f, f' and the negated Euclidean
remainders.  Sturm's theorem reads the signs of its members, and the
resultant recursion reads their degrees and leading coefficients (Cohen,
A Course in Computational Algebraic Number Theory, section 3.3).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import InvalidInputError
from .modular import factor_integer, is_prime

__all__ = [
    "RatPoly",
    "discriminant",
    "bad_primes",
    "real_root_signature",
    "homogenize",
    "rational_roots",
]


class RatPoly:
    """An exact polynomial with rational coefficients."""

    __slots__ = ("coeffs", "_primitive")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RatPoly(out)

    def __mul__(self, other):
        """The product with a polynomial or with a rational scalar."""
        if not isinstance(other, RatPoly):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "RatPoly"):
        """Exact quotient and remainder over Q."""
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
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def primitive_int(self):
        """Integer-coefficient polynomial equal to a positive multiple of self.

        Returns (poly_as_int_tuple, scale) with scale > 0 rational and
        int coefficients of content 1; the sign pattern matches self.
        It is computed on the first call and kept.
        """
        if not hasattr(self, "_primitive"):
            den = math.lcm(*(c.denominator for c in self.coeffs))
            ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
            g = math.gcd(*ints) or 1
            self._primitive = tuple(v // g for v in ints), Fraction(den, g)
        return self._primitive

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


def _sturm_sequence(f: RatPoly) -> list:
    """[f, f', -(a_0 mod a_1), ...] over Q, ending at the last nonzero
    member, which is gcd(f, f') up to a constant."""
    seq = [f, f.derivative()]
    while seq[-1]:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def discriminant(f: RatPoly) -> Fraction:
    """Discriminant normalized so Res(f, f') * (-1)^(n(n-1)/2) / lead(f).

    Equals lead(f)^(2n-2) * prod_(i<j) (root_i - root_j)^2, so its sign and
    square class agree with the root-difference product for monic f; it is
    1 for linear f and 0 when f has a repeated factor.  With a_k the
    members of the Sturm sequence and d_k their degrees, a_m the last,
    Res(f, f') = a_m^(d_(m-1)) * prod_(k=1..m-1) (-1)^((d_(k-1)+1) d_k)
    lead(a_k)^(d_(k-1) - d_(k+1)).
    """
    n = f.degree
    if n < 1:
        raise InvalidInputError("discriminant requires degree >= 1")
    seq = _sturm_sequence(f)
    d = [a.degree for a in seq]
    if d[-1] > 0:
        return Fraction(0)
    res = seq[-1].lead ** d[-2]
    for k in range(1, len(seq) - 1):
        res *= (-1) ** ((d[k - 1] + 1) * d[k]) * seq[k].lead ** (d[k - 1] - d[k + 1])
    return res * (-1) ** (n * (n - 1) // 2) / f.lead


def bad_primes(f: RatPoly, disc: Fraction) -> set:
    """Primes dividing lead(f), a coefficient denominator or the numerator of disc = disc(f)."""
    out = set(factor_integer(disc.numerator))
    out.update(factor_integer(f.lead.numerator))
    out.update(factor_integer(math.lcm(*(c.denominator for c in f.coeffs))))
    return out


def real_root_signature(f: RatPoly):
    """(real root count, k1, k2) for separable odd-degree f.

    f has 2*k1 - 1 real roots and 2*k2 complex roots.  The count is
    Sturm's: the sign changes of the sequence at -inf less those at +inf.
    """
    if f.degree < 1 or f.degree % 2 == 0:
        raise InvalidInputError("real_root_signature requires odd degree")
    seq = _sturm_sequence(f)
    if seq[-1].degree > 0:
        raise InvalidInputError("real_root_signature requires a separable polynomial")
    at_pos = [a.lead > 0 for a in seq]  # each member positive at +inf
    at_neg = [s == (a.degree % 2 == 0) for s, a in zip(at_pos, seq)]  # and at -inf
    r = sum(map(operator.ne, at_neg, at_neg[1:])) - sum(map(operator.ne, at_pos, at_pos[1:]))
    return r, (r + 1) // 2, (f.degree - r) // 2


def homogenize(f: RatPoly, num: RatPoly, den: RatPoly) -> RatPoly:
    """den^n * f(num/den) with n = deg f, by Horner's rule."""
    acc, power = RatPoly(), RatPoly((1,))
    for c in reversed(f.coeffs):
        acc = acc * num + power * c
        power = power * den
    return acc


def rational_roots(f: RatPoly):
    """All rational roots of f, increasing, by l-adic Newton lifting (Loos 1983).

    g is the squarefree part of f and l the least odd prime dividing neither
    lead(g) nor Res(g, g'), so each root r of g mod l is simple and lifts to
    one l-adic root.  A rational root x has a_n*x integral and, by Cauchy's
    bound, |a_n*x| <= |a_n| + max|a_i|; once the modulus M exceeds twice
    that, a_n*x is the symmetric residue of a_n*r mod M.  No integer is factored.
    """
    if f.degree < 1:
        if not f:
            raise InvalidInputError("zero polynomial")
        return []
    # the sequence ends at gcd(f, f') times a constant whose numerator and
    # denominator grow like Res(f, f'); dividing by it unscaled would carry them into g
    g = RatPoly((f // _sturm_sequence(f)[-1].monic()).primitive_int()[0])
    dg, lead = g.derivative(), int(g.lead)
    # lead * disc(g) is Res(g, g') up to sign
    bad = lead * (lead * discriminant(g)).numerator
    l = next(q for q in itertools.count(3, 2) if bad % q and is_prime(q))
    bound = 2 * (abs(lead) + max(abs(c) for c in g.coeffs))
    roots = []
    for r in range(l):
        if g(r) % l:
            continue
        m = l
        while m <= bound:
            m *= m
            r = int(r - g(r) * pow(int(dg(r)), -1, m)) % m
        y = lead * r % m
        x = Fraction(y - m if 2 * y > m else y, lead)
        if g(x) == 0:
            roots.append(x)
    return sorted(roots)
