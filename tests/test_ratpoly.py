"""Exact polynomial algebra: discriminants, Sturm counts, homogenization."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twistparity import modular, ratpoly  # noqa: E402
from twistparity.errors import InvalidInputError  # noqa: E402
from twistparity.ratpoly import (  # noqa: E402
    RatPoly,
    discriminant,
    homogenize,
    integer_part,
    rational_roots,
    real_root_signature,
    sturm_invariants,
)
from twistparity.papercases import curve_h  # noqa: E402

from conftest import random_separable_poly  # noqa: E402
from oracles import rational_roots_by_divisors  # noqa: E402


def test_discriminant_examples():
    assert discriminant(RatPoly((1672, -273, 0, 1))) == 5904900  # = 2430^2
    assert discriminant(RatPoly((-2, 0, 0, 1))) == -108
    assert discriminant(RatPoly((-1, 0, 1))) == 4
    assert discriminant(RatPoly((3, 1))) == 1
    with pytest.raises(InvalidInputError):
        discriminant(RatPoly((3,)))


def test_discriminant_matches_root_difference_product():
    # roots -19, 8, 11: prod of squared differences
    roots = (-19, 8, 11)
    expected = 1
    for i in range(3):
        for j in range(i + 1, 3):
            expected *= (roots[i] - roots[j]) ** 2
    assert discriminant(RatPoly((1672, -273, 0, 1))) == expected


def test_is_separable():
    assert discriminant(RatPoly((-2, 0, 0, 1))) != 0
    assert discriminant(RatPoly((0, 0, 1))) == 0
    sq = RatPoly((-1, 1)) * RatPoly((-1, 1)) * RatPoly((1, 1))
    assert discriminant(sq) == 0
    with pytest.raises(InvalidInputError):
        discriminant(RatPoly())


def test_real_root_signature_examples():
    assert real_root_signature(RatPoly((1672, -273, 0, 1))) == (3, 2, 0)
    assert real_root_signature(curve_h().f) == (3, 2, 1)
    assert real_root_signature(RatPoly((-2, 0, 0, 1))) == (1, 1, 1)


def test_real_root_signature_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        real_root_signature(RatPoly((-1, 0, 1)))  # even degree
    with pytest.raises(InvalidInputError):
        real_root_signature(RatPoly((0, 0, 0, 1)))  # x^3, inseparable


def test_homogenize_examples():
    sq = homogenize(RatPoly((0, 0, 1)), RatPoly((1, 3)), RatPoly((0, 1)))
    assert sq == RatPoly((1, 6, 9))
    shifted = homogenize(RatPoly((-2, 0, 0, 1)), RatPoly((1, 1)), RatPoly((1,)))
    assert shifted == RatPoly((-1, 3, 3, 1))
    # x^3 * f(1/x) reverses the coefficients
    assert homogenize(RatPoly((-2, 0, 0, 1)), RatPoly((1,)), RatPoly((0, 1))) == RatPoly((1, 0, 0, -2))


def _value(f, x):
    """f(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def _grid_sign_changes(f, npoints):
    bound = 1 + max(abs(c / f.lead) for c in f.coeffs)
    pts = [Fraction(-bound) + Fraction(2 * bound * i, npoints) for i in range(npoints + 1)]
    signs = []
    for x in pts:
        v = _value(f, x)
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
        f = random_separable_poly(rng, rng.choice((1, 3, 5, 7)))
        assert real_root_signature(f)[0] == _grid_root_count(f), str(f)


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
        shifted = homogenize(f, RatPoly((a, 1)), RatPoly((1,)))
        assert discriminant(shifted) == discriminant(f)


_coeff = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 12))


@st.composite
def _polys(draw):
    """f = h * g^2 of degree 1 to 11 with rational coefficients; g is constant
    three times in four."""
    degree = draw(st.integers(1, 11))
    s = draw(st.integers(0, degree // 2)) if draw(st.integers(0, 3)) == 0 else 0
    h = RatPoly(draw(st.lists(_coeff, min_size=degree - 2 * s, max_size=degree - 2 * s))
                + [draw(_coeff.filter(bool))])
    g = RatPoly(draw(st.lists(_coeff, min_size=s, max_size=s)) + [draw(_coeff.filter(bool))])
    return h * g * g


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_polys())
def test_sturm_sequence_matches_sympy(f):
    """The discriminant (1 at degree 1, 0 with a repeated factor) and, at odd
    degree, the real-root count or the error for a repeated factor."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
    want = sympy.discriminant(sym)
    assert discriminant(f) == Fraction(int(want.p), int(want.q)), str(f)
    if f.degree % 2 == 0:
        return
    if sympy.gcd(sym, sym.diff(x)).degree() > 0:
        with pytest.raises(InvalidInputError):
            real_root_signature(f)
    else:
        assert real_root_signature(f)[0] == sym.count_roots(), str(f)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_polys().filter(lambda f: f.degree % 2 == 1))
def test_invariants_from_one_sequence_match_sympy(f):
    """The discriminant and signature read from one sequence are sympy's
    discriminant and real-root count, and the integer part's discriminant
    scaled from f's is sympy's discriminant of the integer coefficients."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
    want = sympy.discriminant(sym)
    disc, signature = sturm_invariants(f)
    assert disc == Fraction(int(want.p), int(want.q)), str(f)
    if disc == 0:
        assert signature is None
        return
    r = sym.count_roots()
    assert signature == (r, (r + 1) // 2, (f.degree - r) // 2), str(f)
    ints, int_disc = integer_part(f, disc)
    assert (ints, int_disc) == integer_part(f)
    assert int_disc == int(sympy.discriminant(sympy.Poly(ints[::-1], x))), str(f)


def test_disc_of_product_detects_shared_roots():
    f = RatPoly((-1, 1))  # x - 1
    g = RatPoly((1, 1))  # x + 1
    assert discriminant(f * g) != 0
    assert discriminant(f * f) == 0
    h = RatPoly((-1, 0, 1))  # (x-1)(x+1): shares a root with f
    assert discriminant(f * h) == 0
    assert discriminant(g * RatPoly((2, 0, 1))) != 0


def test_rational_roots():
    f = RatPoly((1672, -273, 0, 1))
    assert rational_roots(*integer_part(f)) == [Fraction(-19), Fraction(8), Fraction(11)]
    assert rational_roots(*integer_part(RatPoly((-2, 0, 0, 1)))) == []
    g = RatPoly((0, 1)) * RatPoly((-1, 2)) * RatPoly((3, 0, 1))
    assert rational_roots(*integer_part(g)) == [Fraction(0), Fraction(1, 2)]
    # a 15-digit prime in the numerator of the root
    p = 100000000000031
    h = RatPoly((-p, 3)) * RatPoly((1, 1, 1))
    assert rational_roots(*integer_part(h)) == [Fraction(p, 3)]


def test_rational_roots_match_sympy_linear_factors():
    """Products of linear and nonlinear factors, scaled by a rational
    constant: the roots are those of sympy's linear factors.  A draw that
    repeats a factor is drawn again."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(5)
    cases = 0
    while cases < 100:
        factors = []
        for _ in range(rng.randint(0, 3)):
            factors += [RatPoly((rng.randint(-99, 99), rng.randint(1, 99)))] * rng.choice((1, 1, 2))
        for _ in range(rng.randint(0, 2)):
            factors.append(RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 3)]))
        f = RatPoly((rng.choice((1, -1, 2, 3)),))
        for g in factors:
            f = f * g
        if f.degree < 1 or max(abs(c) for c in f.coeffs) >= 10**4 or not discriminant(f):
            continue
        cases += 1
        _, sym_factors = sympy.Poly([int(c) for c in reversed(f.coeffs)], x).factor_list()
        linear = [p.all_coeffs() for p, _ in sym_factors if p.degree() == 1]
        want = sorted(Fraction(-int(b), int(a)) for a, b in linear)
        assert rational_roots(*integer_part(f * Fraction(1, rng.randint(1, 7)))) == want, str(f)


def test_rational_roots_match_divisor_oracle():
    """A draw that repeats a factor is drawn again."""
    rng = random.Random(17)
    cases = 0
    while cases < 150:
        f = RatPoly((rng.choice((1, -1, 2, 6)),))
        for _ in range(rng.randint(0, 3)):
            f = f * RatPoly((rng.randint(-12, 12), rng.randint(1, 6)))
        f = f * RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
        if not discriminant(f):
            continue
        cases += 1
        assert rational_roots(*integer_part(f)) == rational_roots_by_divisors(f), str(f)


@st.composite
def _separable_small_polys(draw):
    """A rational multiple of up to three linear factors times one more factor
    of degree 0 to 4, all with small coefficients, separable."""
    f = RatPoly((Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))),))
    for a, b in draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), max_size=3)):
        f = f * RatPoly((a, b))
    f = f * RatPoly(draw(st.lists(st.integers(-9, 9), max_size=4)) + [draw(st.integers(1, 4))])
    hypothesis.assume(f.degree >= 1 and discriminant(f))
    return f


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_separable_small_polys())
def test_rational_roots_of_the_integer_part_match_the_divisor_oracle(f):
    assert rational_roots(*integer_part(f)) == rational_roots_by_divisors(f), str(f)


def _sympy_roots(f, sympy):
    """Roots of the linear factors in sympy's factorization of f over Q."""
    x = sympy.symbols("x")
    ints, _ = f.primitive_int()
    _, factors = sympy.Poly(list(reversed(ints)), x).factor_list()
    linear = [p.all_coeffs() for p, _ in factors if p.degree() == 1]
    return sorted(Fraction(-int(b), int(a)) for a, b in linear)


def test_rational_roots_match_sympy_on_smooth_end_coefficients():
    """End coefficients 2^a 3^b 5^c 7^d have many divisors; the lifting
    never enumerates them.  A draw that repeats a factor is drawn again."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)

    def smooth():
        a, b, c, d = (rng.randint(0, k) for k in (12, 8, 6, 5))
        return rng.choice((1, -1)) * 2**a * 3**b * 5**c * 7**d

    cases = found = 0
    while cases < 40:
        f = RatPoly((smooth(), 1, 0, abs(smooth())))
        for _ in range(rng.randint(0, 2)):
            f = f * RatPoly((smooth(), abs(smooth())))
        if not discriminant(f):
            continue
        cases += 1
        want = _sympy_roots(f, sympy)
        found += bool(want)
        assert rational_roots(*integer_part(f)) == want, str(f)
    assert found >= 20


def test_rational_roots_match_sympy_on_large_coefficients():
    """Known linear and nonlinear factors whose products have 20- to
    40-digit coefficients.  A draw that repeats a factor is drawn again."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)

    def big(digits):
        return rng.choice((1, -1)) * rng.randint(10 ** (digits - 1), 10**digits)

    cases = 0
    while cases < 25:
        linear = [RatPoly((big(10), rng.randint(1, 10**5))) for _ in range(rng.randint(1, 2))]
        other = RatPoly([big(15) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 10**4)])
        f = other
        for g in linear:
            f = f * g
        if not discriminant(f):
            continue
        cases += 1
        digits = max(len(str(abs(c.numerator))) for c in f.coeffs)
        assert 20 <= digits <= 40, str(f)
        want = _sympy_roots(f, sympy)
        assert len(want) >= len(linear)
        assert rational_roots(*integer_part(f)) == want, str(f)


def test_rational_roots_factor_no_integer(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factor_integer({n}) called")

    monkeypatch.setattr(ratpoly, "factor_integer", refuse)
    monkeypatch.setattr(modular, "factor_integer", refuse)
    assert rational_roots(*integer_part(RatPoly((2**12 * 5**12, 1, 0, 3**12 * 7**12)))) == []
    p = 100000000000031
    assert rational_roots(*integer_part(RatPoly((-p, 3)) * RatPoly((1, 1, 1)))) == [Fraction(p, 3)]


def test_poly_arithmetic_roundtrips():
    rng = random.Random(3)
    for _ in range(50):
        f = random_separable_poly(rng, rng.randint(1, 6))
        g = random_separable_poly(rng, rng.randint(1, 4))
        q, r = f.divmod(g)
        assert q * g + r == f
        assert not r or r.degree < g.degree
        assert f.gcd(g) == g.gcd(f)


def test_primitive_int_preserves_sign_and_content():
    f = RatPoly((Fraction(2, 3), Fraction(-4, 9), Fraction(2)))
    ints, scale = f.primitive_int()
    assert ints == (3, -2, 9)
    assert scale > 0
    assert RatPoly(ints) == f * scale
