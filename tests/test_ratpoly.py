"""Exact polynomial algebra: discriminants, Sturm counts, composition."""

import random
from fractions import Fraction

import pytest

from twistparity.errors import InvalidInputError
from twistparity.ratpoly import (
    RatPoly,
    compose_rational,
    discriminant,
    is_separable,
    rational_roots,
    real_root_signature,
    resultant,
    sturm_real_root_count,
)
from twistparity.papercases import curve_h

from conftest import random_separable_poly


def test_discriminant_examples():
    assert discriminant(RatPoly((1672, -273, 0, 1))) == 5904900  # = 2430^2
    assert discriminant(RatPoly((-2, 0, 0, 1))) == -108
    assert discriminant(RatPoly((-1, 0, 1))) == 4
    with pytest.raises(InvalidInputError):
        discriminant(RatPoly((3, 1)))


def test_discriminant_matches_root_difference_product():
    # roots -19, 8, 11: prod of squared differences
    roots = (-19, 8, 11)
    expected = 1
    for i in range(3):
        for j in range(i + 1, 3):
            expected *= (roots[i] - roots[j]) ** 2
    assert discriminant(RatPoly((1672, -273, 0, 1))) == expected


def test_is_separable():
    assert is_separable(RatPoly((-2, 0, 0, 1)))
    assert not is_separable(RatPoly((0, 0, 1)))
    sq = RatPoly((-1, 1)) * RatPoly((-1, 1)) * RatPoly((1, 1))
    assert not is_separable(sq)
    with pytest.raises(InvalidInputError):
        is_separable(RatPoly.zero())


def test_real_root_signature_examples():
    assert real_root_signature(RatPoly((1672, -273, 0, 1))) == (3, 2, 0)
    assert real_root_signature(curve_h().f) == (3, 2, 1)
    assert real_root_signature(RatPoly((-2, 0, 0, 1))) == (1, 1, 1)


def test_real_root_signature_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        real_root_signature(RatPoly((-1, 0, 1)))  # even degree
    with pytest.raises(InvalidInputError):
        real_root_signature(RatPoly((0, 0, 0, 1)))  # x^3, inseparable


def test_compose_rational_examples():
    x = RatPoly.x()
    sq = compose_rational(RatPoly((0, 0, 1)), RatPoly((1, 3)), x, 2)
    assert sq == RatPoly((1, 6, 9))
    shifted = compose_rational(RatPoly((-2, 0, 0, 1)), RatPoly((1, 1)), RatPoly.one(), 0)
    assert shifted == RatPoly((-1, 3, 3, 1))


def test_compose_rational_rejects_nonpolynomial():
    # f(1/x) with no denominator clearing is not a polynomial
    with pytest.raises(InvalidInputError):
        compose_rational(RatPoly((0, 1)), RatPoly.one(), RatPoly.x(), 0)
    with pytest.raises(InvalidInputError):
        compose_rational(RatPoly((0, 1)), RatPoly.one(), RatPoly.zero(), 1)


def _grid_sign_changes(f, npoints):
    bound = 1 + max(abs(c / f.lead) for c in f.coeffs)
    pts = [Fraction(-bound) + Fraction(2 * bound * i, npoints) for i in range(npoints + 1)]
    signs = []
    for x in pts:
        v = f(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _grid_root_count(f):
    """Independent oracle: refine a rational grid until the count stabilizes."""
    n = 32
    counts = []
    while True:
        counts.append(_grid_sign_changes(f, n))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            return counts[-1]
        n *= 2
        if n > 1 << 16:
            return counts[-1]


def test_sturm_against_grid_oracle():
    rng = random.Random(42)
    for _ in range(200):
        f = random_separable_poly(rng, rng.randint(1, 7))
        assert sturm_real_root_count(f) == _grid_root_count(f), str(f)


def test_disc_sign_is_minus_one_to_k2():
    rng = random.Random(7)
    for _ in range(100):
        f = random_separable_poly(rng, rng.choice((3, 5, 7)))
        _, _, k2 = real_root_signature(f)
        disc = discriminant(f)
        assert (disc > 0) == (k2 % 2 == 0), str(f)


def test_disc_translation_invariance():
    rng = random.Random(11)
    for _ in range(40):
        f = random_separable_poly(rng, rng.randint(2, 6))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert discriminant(f.shift(a)) == discriminant(f)


def test_disc_of_product_detects_shared_roots():
    f = RatPoly((-1, 1))  # x - 1
    g = RatPoly((1, 1))  # x + 1
    assert discriminant(f * g) != 0
    assert discriminant(f * f) == 0
    h = RatPoly((-1, 0, 1))  # (x-1)(x+1): shares a root with f
    assert discriminant(f * h) == 0
    assert discriminant(g * RatPoly((2, 0, 1))) != 0


def test_resultant_shares_root_iff_zero():
    f = RatPoly((-1, 1)) * RatPoly((-2, 1))
    g = RatPoly((-2, 1)) * RatPoly((5, 1))
    assert resultant(f, g) == 0
    assert resultant(f, RatPoly((5, 1))) != 0


def test_rational_roots():
    f = RatPoly((1672, -273, 0, 1))
    assert rational_roots(f) == [Fraction(-19), Fraction(8), Fraction(11)]
    assert rational_roots(RatPoly((-2, 0, 0, 1))) == []
    g = RatPoly((0, 1)) * RatPoly((-1, 2)) * RatPoly((3, 0, 1))
    assert rational_roots(g) == [Fraction(0), Fraction(1, 2)]
    # a 15-digit prime constant term: its divisors come from factor_integer
    p = 100000000000031
    h = RatPoly((-p, 3)) * RatPoly((1, 1, 1))
    assert rational_roots(h) == [Fraction(p, 3)]


def test_poly_arithmetic_roundtrips():
    rng = random.Random(3)
    for _ in range(50):
        f = random_separable_poly(rng, rng.randint(1, 6))
        g = random_separable_poly(rng, rng.randint(1, 4))
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree
        assert f.gcd(g) == g.gcd(f)


def test_primitive_int_preserves_sign_and_content():
    f = RatPoly((Fraction(2, 3), Fraction(-4, 9), Fraction(2)))
    ints, scale = f.primitive_int()
    assert ints == (3, -2, 9)
    assert scale > 0
    assert RatPoly(ints) == f * scale
