"""Symbols, primality, and factorization over GF(l)."""

import random
from fractions import Fraction

import pytest

from twistparity import modular
from twistparity.errors import BadPrimeError, InvalidInputError
from twistparity.modular import (
    Place,
    divisors,
    factor_degrees,
    factor_integer,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    iter_primes,
    kronecker_symbol,
    sieve_primes,
    squarefree_part,
)
from twistparity.ratpoly import RatPoly

from conftest import random_separable_poly

X3M2 = RatPoly((-2, 0, 0, 1))


def test_factor_degrees_examples():
    assert factor_degrees(X3M2, 5) == (1, 2)
    assert factor_degrees(X3M2, 7) == (3,)
    assert factor_degrees(X3M2, 31) == (1, 1, 1)


def test_factor_degrees_rejects_bad_primes():
    with pytest.raises(BadPrimeError):
        factor_degrees(X3M2, 2)
    with pytest.raises(BadPrimeError):
        factor_degrees(X3M2, 3)  # 3 | disc = -108
    with pytest.raises(BadPrimeError):
        factor_degrees(RatPoly((1, 0, 5)), 5)  # 5 | lead
    with pytest.raises(BadPrimeError):
        factor_degrees(RatPoly((Fraction(1, 5), 0, 0, 1)), 5)  # denominator
    with pytest.raises(InvalidInputError):
        factor_degrees(X3M2, 15)


def _fp_divides(d, f, l):
    """Does monic d divide f over GF(l)? Schoolbook remainder check."""
    f = list(f)
    while f and len(f) >= len(d):
        c = f[-1]
        k = len(f) - len(d)
        for i, y in enumerate(d):
            f[k + i] = (f[k + i] - c * y) % l
        while f and f[-1] == 0:
            f.pop()
    return not f


def _fp_quotient(f, d, l):
    """f // d for monic d over GF(l) (exact division assumed)."""
    rem = list(f)
    q = [0] * (len(f) - len(d) + 1)
    while rem and len(rem) >= len(d):
        c = rem[-1]
        k = len(rem) - len(d)
        q[k] = c
        for i, y in enumerate(d):
            rem[k + i] = (rem[k + i] - c * y) % l
        while rem and rem[-1] == 0:
            rem.pop()
    assert not rem
    return q


def _brute_factor_degrees(g, l):
    """Independent factorization oracle: strip divisors by exhaustive trial.

    Enumerates every monic polynomial of degree 1..deg(g)//2 over GF(l)
    in degree order, dividing out each minimal-degree hit (necessarily
    irreducible); whatever survives is irreducible.  Only viable for
    tiny l and degree.
    """
    degs = []
    cur = list(g)
    changed = True
    while changed and len(cur) - 1 > 1:
        changed = False
        for dd in range(1, (len(cur) - 1) // 2 + 1):
            for idx in range(l**dd):
                cand = []
                t = idx
                for _ in range(dd):
                    cand.append(t % l)
                    t //= l
                cand.append(1)
                if _fp_divides(cand, cur, l):
                    degs.append(dd)
                    cur = _fp_quotient(cur, cand, l)
                    changed = True
                    break
            if changed:
                break
    if len(cur) - 1 > 0:
        degs.append(len(cur) - 1)
    return tuple(sorted(degs))


def test_factor_degrees_against_brute_force_oracle():
    rng = random.Random(88)
    checked = 0
    while checked < 40:
        f = random_separable_poly(rng, rng.randint(2, 5), coeff_bound=20)
        l = rng.choice((3, 5, 7, 11, 13))
        try:
            got = factor_degrees(f, l)
        except BadPrimeError:
            continue
        checked += 1
        inv = pow(f.lead.numerator * pow(f.lead.denominator, -1, l), -1, l)
        monic = [c.numerator * pow(c.denominator, -1, l) * inv % l for c in f.coeffs]
        assert got == _brute_factor_degrees(monic, l), (f, l)


def test_factor_degrees_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(2024)
    primes = [p for p in sieve_primes(10**4) if p > 2]
    checked = bad = 0
    for degree in (3, 5, 7):
        for _ in range(8):
            f = random_separable_poly(rng, degree, coeff_bound=50)
            ints = [int(c) for c in reversed(f.coeffs)]
            for l in [3, 5, 7] + rng.sample(primes, 3):
                factors = sympy.Poly(ints, x, modulus=l).factor_list()[1]
                try:
                    got = factor_degrees(f, l)
                except BadPrimeError:
                    # bad reduction: the degree drops or a factor repeats
                    bad += 1
                    assert ints[0] % l == 0 or any(e > 1 for _, e in factors), (f, l)
                    continue
                checked += 1
                want = sorted(g.degree() for g, e in factors for _ in range(e))
                assert got == tuple(want), (f, l)
    assert checked > 100 and bad > 0


def test_kronecker_examples():
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(-108, 5) == -1
    for m in (1, 2, 3, -5, 17, 100):
        assert kronecker_symbol(1, m) == 1
    with pytest.raises(InvalidInputError):
        kronecker_symbol(3, 0)


def test_kronecker_square_class_invariance():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randint(-500, 500) or 1
        m = rng.randint(2, 500)
        c = rng.randint(1, 30)
        import math

        if math.gcd(c, m) != 1:
            continue
        assert kronecker_symbol(a * c * c, m) == kronecker_symbol(a, m)


def test_kronecker_agrees_with_euler_criterion():
    for q in (3, 5, 7, 11, 13, 97, 101):
        for a in range(1, q):
            euler = pow(a, (q - 1) // 2, q)
            want = 1 if euler == 1 else -1
            assert kronecker_symbol(a, q) == want


def test_hilbert_examples():
    inf = Place.infinity()
    assert hilbert_symbol(-1, -1, inf) == -1
    assert hilbert_symbol(-1, -1, Place.finite(2)) == -1
    assert hilbert_symbol(-1, -1, Place.finite(5)) == 1
    assert hilbert_symbol(2, 3, Place.finite(3)) == -1
    # square classes 2 and -3: the conic 2x^2 - 3y^2 = z^2 has no Q_2 point
    assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 4), Place.finite(2)) == -1
    assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 4), Place.finite(2)) == hilbert_symbol(2, -3, Place.finite(2))
    with pytest.raises(InvalidInputError):
        hilbert_symbol(0, 1, inf)


def test_hilbert_square_class_invariance_and_bilinearity():
    rng = random.Random(17)
    places = [Place.infinity(), Place.finite(2), Place.finite(3), Place.finite(7)]
    for _ in range(200):
        a = rng.randint(-80, 80) or 3
        b = rng.randint(-80, 80) or 5
        c = rng.randint(1, 12)
        for v in places:
            assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        b2 = rng.randint(-80, 80) or 7
        for v in places:
            assert hilbert_symbol(a, b * b2, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, b2, v)


def test_hilbert_product_formula_500_pairs():
    rng = random.Random(2024)
    for _ in range(500):
        a = rng.randint(-10**4, 10**4) or 1
        b = rng.randint(-10**4, 10**4) or -1
        places = {Place.infinity(), Place.finite(2)}
        for n in (a, b):
            for p in factor_integer(n):
                if p != 2:
                    places.add(Place.finite(p))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_is_prime():
    assert [p for p in range(2, 60) if is_prime(p)] == sieve_primes(59)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_iter_primes_resumable():
    first = list(iter_primes(2, 50))
    assert first == sieve_primes(49)
    resumed = list(iter_primes(first[3] + 1, 50))
    assert resumed == first[4:]


def test_iter_primes_matches_sympy_across_segments():
    sympy = pytest.importorskip("sympy")
    seg = modular._SEGMENT
    windows = [
        (-10, 30), (0, 3), (1, 2), (2, 3), (15, 16), (9, 200), (25, 25),
        (seg - 9, seg + 40), (2 * seg - 1, 2 * seg + 1), (seg + 1, 3 * seg + 7),
        (5 * seg - 21, 5 * seg), (10**6 - 999, 10**6 + 2 * seg + 33), (1, 4 * seg + 5),
    ]
    for start, stop in windows:
        assert list(iter_primes(start, stop)) == list(sympy.primerange(start, stop)), (
            start,
            stop,
        )


def test_factor_integer_and_squarefree():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 10**9)
        fac = factor_integer(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    assert squarefree_part(-108) == -3
    assert squarefree_part(5904900) == 1
    assert is_squarefree(-15)
    assert not is_squarefree(12)
    with pytest.raises(InvalidInputError):
        factor_integer(0)


def test_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for n in [1, -1, 12, -360, 2**10, 100000000000031] + [rng.randint(2, 10**9) for _ in range(40)]:
        assert divisors(n) == sympy.divisors(abs(n)), n
    with pytest.raises(InvalidInputError):
        divisors(0)


def test_factor_integer_large_semiprime():
    p, q = 1000003, 1000033
    assert factor_integer(p * q) == {p: 1, q: 1}


def test_factor_integer_matches_sympy_past_trial_division():
    """Cofactors built from primes above 2^16 reach Pollard rho."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)
    for _ in range(15):
        p = sympy.nextprime(rng.randrange(1 << 17, 1 << 26))
        q = sympy.nextprime(rng.randrange(1 << 17, 1 << 26))
        small = rng.choice((1, 2, 12, 7 * 11, 30030))
        for n in (p * q, p * p * q, small * p * q * q, -p * q):
            assert factor_integer(n) == sympy.factorint(abs(n)), n
