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
    "integer_part",
    "bad_primes",
    "real_root_signature",
    "sturm_invariants",
    "homogenize",
    "rational_roots",
]


class RatPoly:
    """An exact polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

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
        """
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints) or 1
        return tuple(v // g for v in ints), Fraction(den, g)

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


def discriminant(f: RatPoly, seq: list = None) -> Fraction:
    """Discriminant normalized so Res(f, f') * (-1)^(n(n-1)/2) / lead(f).

    Equals lead(f)^(2n-2) * prod_(i<j) (root_i - root_j)^2, so its sign and
    square class agree with the root-difference product for monic f; it is
    1 for linear f and 0 when f has a repeated factor.  With a_k the
    members of the Sturm sequence and d_k their degrees, a_m the last,
    Res(f, f') = a_m^(d_(m-1)) * prod_(k=1..m-1) (-1)^((d_(k-1)+1) d_k)
    lead(a_k)^(d_(k-1) - d_(k+1)).  seq is f's sequence when already built.
    """
    n = f.degree
    if n < 1:
        raise InvalidInputError("discriminant requires degree >= 1")
    seq = _sturm_sequence(f) if seq is None else seq
    d = [a.degree for a in seq]
    if d[-1] > 0:
        return Fraction(0)
    res = seq[-1].lead ** d[-2]
    for k in range(1, len(seq) - 1):
        res *= (-1) ** ((d[k - 1] + 1) * d[k]) * seq[k].lead ** (d[k - 1] - d[k + 1])
    return res * (-1) ** (n * (n - 1) // 2) / f.lead


def integer_part(g: RatPoly, disc: Fraction = None) -> tuple:
    """(ints, disc): the primitive integer coefficients of g and their int
    discriminant, the form in which ``modular.factor_degrees`` reads g.

    ints = scale * g, and the discriminant is homogeneous of degree 2n - 2
    in the coefficients, so it is scale^(2n-2) disc(g); disc(g) is built
    here unless given.
    """
    ints, scale = g.primitive_int()
    return ints, int(scale ** (2 * g.degree - 2) * (discriminant(g) if disc is None else disc))


def bad_primes(f: RatPoly, disc: Fraction) -> set:
    """Primes dividing lead(f), a coefficient denominator or the numerator of disc = disc(f)."""
    out = set(factor_integer(disc.numerator))
    out.update(factor_integer(f.lead.numerator))
    out.update(factor_integer(math.lcm(*(c.denominator for c in f.coeffs))))
    return out


def real_root_signature(f: RatPoly, seq: list = None):
    """(real root count, k1, k2) for separable odd-degree f.

    f has 2*k1 - 1 real roots and 2*k2 complex roots.  The count is
    Sturm's: the sign changes of the sequence at -inf less those at +inf.
    seq is f's sequence when already built.
    """
    if f.degree < 1 or f.degree % 2 == 0:
        raise InvalidInputError("real_root_signature requires odd degree")
    seq = _sturm_sequence(f) if seq is None else seq
    if seq[-1].degree > 0:
        raise InvalidInputError("real_root_signature requires a separable polynomial")
    at_pos = [a.lead > 0 for a in seq]  # each member positive at +inf
    at_neg = [s == (a.degree % 2 == 0) for s, a in zip(at_pos, seq)]  # and at -inf
    r = sum(map(operator.ne, at_neg, at_neg[1:])) - sum(map(operator.ne, at_pos, at_pos[1:]))
    return r, (r + 1) // 2, (f.degree - r) // 2


def sturm_invariants(f: RatPoly) -> tuple:
    """(discriminant(f), real_root_signature(f)) of odd-degree f from one
    sequence; the signature is None when the discriminant is 0."""
    seq = _sturm_sequence(f)
    disc = discriminant(f, seq)
    return disc, real_root_signature(f, seq) if disc else None


def homogenize(f: RatPoly, num: RatPoly, den: RatPoly) -> RatPoly:
    """den^n * f(num/den) with n = deg f, by Horner's rule."""
    acc, power = RatPoly(), RatPoly((1,))
    for c in reversed(f.coeffs):
        acc = acc * num + power * c
        power = power * den
    return acc


def _horner(ints: tuple, x):
    """The polynomial with coefficients ints, ascending, at x."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def rational_roots(ints: tuple, disc: int):
    """All rational roots of a separable polynomial, increasing, by l-adic
    Newton lifting (Loos 1983).

    The polynomial is read as its integer part (ints, disc), the form
    ``integer_part`` returns.  l is the least odd prime dividing neither
    lead nor disc, so each root r mod l is simple and lifts to one l-adic
    root.  A rational root x has lead*x integral and, by Cauchy's bound,
    |lead*x| <= |lead| + max|a_i|; once the modulus M exceeds twice that,
    lead*x is the symmetric residue of lead*r mod M.  No integer is factored.
    """
    lead = ints[-1]
    dints = tuple(i * c for i, c in enumerate(ints))[1:]
    l = next(q for q in itertools.count(3, 2) if lead * disc % q and is_prime(q))
    bound = 2 * (abs(lead) + max(map(abs, ints)))
    roots = []
    for r in range(l):
        if _horner(ints, r) % l:
            continue
        m = l
        while m <= bound:
            m *= m
            r = (r - _horner(ints, r) * pow(_horner(dints, r), -1, m)) % m
        y = lead * r % m
        x = Fraction(y - m if 2 * y > m else y, lead)
        if _horner(ints, x) == 0:
            roots.append(x)
    return sorted(roots)
