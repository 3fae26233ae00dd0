"""Symbols, primality, and factorization over GF(l)."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from twistparity import gfpoly, modular
from twistparity.curves import CurveSpec
from twistparity.errors import BadPrimeError, InvalidInputError
from twistparity.frobenius import sigma_set
from twistparity.modular import (
    factor_degrees,
    factor_integer,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    iter_primes,
    kronecker_symbol,
    local_classes,
    smallest_nonresidue,
    square_class_index,
)
from twistparity.papercases import curve_s5_quintic, curve_x3_minus_2
from twistparity.ratpoly import RatPoly, discriminant, integer_part

from conftest import random_separable_poly
from oracles import hilbert_by_conic, squarefree_part

X3M2, X3M2_DISC = integer_part(RatPoly((-2, 0, 0, 1)))  # disc -108


def test_factor_degrees_examples():
    assert factor_degrees(X3M2, 5, X3M2_DISC) == (1, 2)
    assert factor_degrees(X3M2, 7, X3M2_DISC) == (3,)
    assert factor_degrees(X3M2, 31, X3M2_DISC) == (1, 1, 1)


def test_factor_degrees_rebuilds_frobenius_matrix_from_x_to_the_l():
    """Degree 11 mod 11 takes steps d = 2, 3 after dividing out the root.

    The Frobenius matrix after a division must come from x^l mod the new
    cur; built from x^(l^d) instead, this case reads (1, 2, 4, 4).
    """
    ints, disc = integer_part(RatPoly((7, 6, 8, 3, 5, 9, 8, -8, 8, -5, 4, 3)))
    assert factor_degrees(ints, 11, disc) == (1, 2, 3, 5)


def test_factor_degrees_rejects_bad_primes():
    with pytest.raises(BadPrimeError):
        factor_degrees(X3M2, 2, X3M2_DISC)
    with pytest.raises(BadPrimeError):
        factor_degrees(X3M2, 3, X3M2_DISC)  # 3 | disc = -108
    ints, disc = integer_part(RatPoly((1, 0, 5)))
    with pytest.raises(BadPrimeError):
        factor_degrees(ints, 5, disc)  # 5 | lead
    ints, disc = integer_part(RatPoly((Fraction(1, 5), 0, 0, 1)))
    with pytest.raises(BadPrimeError):
        factor_degrees(ints, 5, disc)  # a denominator 5 is the lead of 5x^3 + 1


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
        ints, disc = integer_part(f)
        try:
            got = factor_degrees(ints, l, disc)
        except BadPrimeError:
            continue
        checked += 1
        inv = pow(ints[-1], -1, l)
        monic = [c * inv % l for c in ints]
        assert got == _brute_factor_degrees(monic, l), (f, l)


def test_factor_degrees_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(2024)
    primes = list(iter_primes(3, 10**4 + 1))
    checked = bad = degree_drops = 0
    for degree in range(3, 14):
        for _ in range(6):
            part, disc = integer_part(random_separable_poly(rng, degree, coeff_bound=50))
            ints = part[::-1]
            for l in [3, 5, 7, 11, 13] + rng.sample(primes, 2):
                factors = sympy.Poly(ints, x, modulus=l).factor_list()[1]
                try:
                    got = factor_degrees(part, l, disc)
                except BadPrimeError:
                    # bad reduction: the degree drops or a factor repeats
                    bad += 1
                    assert ints[0] % l == 0 or any(e > 1 for _, e in factors), (ints, l)
                    continue
                checked += 1
                degree_drops += degree % l == 0  # f' mod l has degree below n - 1
                want = sorted(g.degree() for g, e in factors for _ in range(e))
                assert got == tuple(want), (ints, l)
    assert checked > 300 and bad > 0 and degree_drops > 10


def test_factor_count_parity_is_stickelberger():
    """(disc g | l) = (-1)^(n - #factors) for the primitive part g of f,
    with the discriminant of CurveSpec's part as the oracle.  A prime that
    divides only a denominator of f is good for g."""
    rng = random.Random(61)
    primes = list(iter_primes(3, 3001))
    checked = 0
    for degree in (3, 5, 7, 9, 11, 13):
        for _ in range(6):
            while True:  # rational coefficients: l must also miss the denominators
                f = random_separable_poly(rng, degree, coeff_bound=30)
                f = RatPoly([c / rng.choice((1, 1, 2, 3)) for c in f.coeffs])
                if discriminant(f) != 0:
                    break
            [(ints, disc)] = CurveSpec(f).parts
            for l in [3, 5, 7, 11, 13] + rng.sample(primes, 4):
                try:
                    got = factor_degrees(ints, l, disc)
                except BadPrimeError:
                    continue
                checked += 1
                symbol = kronecker_symbol(disc, l)
                assert symbol == (-1) ** (degree - len(got)), (f, l, got)
    assert checked > 200


def test_one_powering_ladder_per_prime(monkeypatch):
    """x^l is powered once per good prime on a quintic, and never where
    the sign alone settles a cubic."""
    ladder = gfpoly.x_pow
    calls = []

    def counting(e, *args):
        calls.append(e)
        return ladder(e, *args)

    monkeypatch.setattr(gfpoly, "x_pow", counting)
    quintic = curve_s5_quintic()
    good = [l for l in iter_primes(3, 3001) if l not in sigma_set(quintic)]
    [(ints, disc)] = quintic.parts
    for l in good:
        factor_degrees(ints, l, disc)
    assert calls == good

    cubic = curve_x3_minus_2()
    [(ints, disc)] = cubic.parts
    good = [l for l in iter_primes(3, 3001) if l not in sigma_set(cubic)]
    for sign in (-1, 1):
        calls.clear()
        primes = [l for l in good if kronecker_symbol(-108, l) == sign]
        for l in primes:
            factor_degrees(ints, l, disc)
        assert calls == ([] if sign == -1 else primes)


def test_kronecker_examples():
    assert kronecker_symbol(2, 15) == 1
    assert kronecker_symbol(-108, 5) == -1
    for m in (1, 3, 17):
        assert kronecker_symbol(1, m) == 1
    for m in (0, 2, 100, -5):  # the Jacobi symbol needs an odd m > 0
        with pytest.raises(InvalidInputError):
            kronecker_symbol(3, m)


def test_kronecker_square_class_invariance():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randint(-500, 500) or 1
        m = rng.randrange(3, 501, 2)
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


def _symbol_primes(sympy, rng):
    """3, 5 and 7, and random primes below 10^4, near 2^64 and above
    3.3e24: profile places and Sigma primes can be that large."""
    return sorted(
        {3, 5, 7}
        | {sympy.nextprime(rng.randrange(2, 9973)) for _ in range(12)}
        | {sympy.nextprime(2**64 + rng.randrange(-(2**40), 2**40)) for _ in range(4)}
        | {sympy.nextprime(3_317_044_064_679_887_385_961_981 + rng.randrange(10**30)) for _ in range(4)}
    )


def test_square_class_index_matches_sympy_legendre_symbols():
    """At an odd prime q, x = q^v * unit has index (v mod 2, [unit nonresidue])
    with the Legendre symbol read from sympy, for ints and Fractions."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(35)
    for q in _symbol_primes(sympy, rng):
        for _ in range(40):
            num = rng.choice((1, -1)) * rng.randint(1, 10**30) * q ** rng.randint(0, 3)
            den = rng.randint(1, 10**30) * q ** rng.randint(0, 3) if rng.random() < 0.5 else 1
            x = Fraction(num, den) if den > 1 else num
            v = sympy.multiplicity(q, num) + sympy.multiplicity(q, den)
            unit = num // q ** sympy.multiplicity(q, num) * (den // q ** sympy.multiplicity(q, den))
            want = (v % 2) << 1 | (sympy.legendre_symbol(unit % q, q) == -1)
            assert square_class_index(x, q) == want, (x, q)


def test_smallest_nonresidue_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for q in _symbol_primes(sympy, random.Random(36)):
        want = next(n for n in itertools.count(2) if sympy.legendre_symbol(n, q) == -1)
        assert smallest_nonresidue(q) == want, q
        assert local_classes(q) == (1, want, q, want * q)


def test_kronecker_symbol_matches_sympy_jacobi_symbol_on_composites():
    """The Jacobi symbol, which Baillie-PSW reads at a modulus not yet known
    to be prime, on odd composite m of up to 40 digits, a of either sign."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    checked = 0
    while checked < 600:
        m = rng.randrange(9, 10 ** rng.choice((3, 12, 40)), 2)
        if sympy.isprime(m):
            continue
        a = rng.choice((1, -1)) * rng.randrange(0, 3 * m)
        assert kronecker_symbol(a, m) == sympy.jacobi_symbol(a, m), (a, m)
        checked += 1


def test_hilbert_examples():
    inf = 0
    assert hilbert_symbol(-1, -1, inf) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 5) == 1
    assert hilbert_symbol(2, 3, 3) == -1
    # square classes 2 and -3: the conic 2x^2 - 3y^2 = z^2 has no Q_2 point
    assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 4), 2) == -1
    assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 4), 2) == hilbert_symbol(2, -3, 2)
    with pytest.raises(InvalidInputError):
        hilbert_symbol(0, 1, inf)


def test_hilbert_symbol_matches_the_conic_definition():
    """Seeded squarefree pairs at 2, 3, 5, 7 and the real place, some as
    fractions r/s, which must pair like the squarefree kernel of r*s."""
    rng = random.Random(41)
    for q in (0, 2, 3, 5, 7):
        for _ in range(150):
            r, b = (rng.choice((1, -1)) * rng.randint(1, 60) for _ in range(2))
            s = rng.randint(1, 60)
            a = Fraction(r, s)
            want = hilbert_by_conic(squarefree_part(r * s), squarefree_part(b), q)
            assert hilbert_symbol(a, b, q) == want, (a, b, q)
            assert hilbert_symbol(squarefree_part(b), a, q) == want, (a, b, q)


def test_square_class_index_labels_and_coordinates():
    """Each label sits at its own index, and the index of a product is the
    xor of the indices: the bits are F_2 coordinates of the class."""
    places = [0, 2, 3, 5, 7]
    for v in places:
        labels = local_classes(v)
        assert [square_class_index(x, v) for x in labels] == list(range(len(labels)))
    rng = random.Random(12)
    for _ in range(300):
        a = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        b = rng.randint(-500, 500) or -1
        for v in places:
            assert square_class_index(a * b, v) == square_class_index(a, v) ^ square_class_index(b, v)
            assert square_class_index(a * 36, v) == square_class_index(a, v)
    with pytest.raises(InvalidInputError):
        square_class_index(Fraction(0), 3)


def test_hilbert_square_class_invariance_and_bilinearity():
    rng = random.Random(17)
    places = [0, 2, 3, 7]
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
        places = {0, 2}
        for n in (a, b):
            for p in factor_integer(n):
                if p != 2:
                    places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_factor_integer_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor_integer built a random number generator")

    monkeypatch.setattr(random, "Random", refuse)
    # both primes exceed the trial-division bound 2^16, so Pollard rho splits them
    assert factor_integer(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    assert factor_integer(-(2**31 - 1) * (2**61 - 1) * 3) == {3: 1, 2**31 - 1: 1, 2**61 - 1: 1}


def test_is_prime():
    assert [p for p in range(2, 60) if is_prime(p)] == list(iter_primes(2, 60))
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_matches_sympy_at_strong_pseudoprimes():
    """Each bound of the Miller-Rabin base table is the least strong
    pseudoprime to its bases; the last two are the Sorenson-Webster numbers
    for the first 12 and 13 prime bases, so the last is tested by BPSW."""
    sympy = pytest.importorskip("sympy")
    bounds = [bound for bound, _ in modular._MR_BASE_SETS]
    assert bounds[-2:] == [318665857834031151167461, 3317044064679887385961981]
    assert 3317044064679887385961981 == 1287836182261 * 2575672364521
    for n, bases in modular._MR_BASE_SETS:
        assert modular._strong_probable_prime(n, bases) and not sympy.isprime(n)
        assert not is_prime(n), n
    # strong Lucas pseudoprimes that Miller-Rabin to base 2 rejects, and
    # primes on both sides of the proof limit
    for n in (5459, 5777, 10877, 16109, 18971):
        assert modular._strong_lucas_probable_prime(n) and not is_prime(n)
    for n in (sympy.prevprime(bounds[-1]), sympy.nextprime(bounds[-1]), 2**89 - 1, 2**127 - 1):
        assert is_prime(n)
    rng = random.Random(67)
    for _ in range(2000):
        n = rng.randrange(10**30) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_iter_primes_resumable():
    first = list(iter_primes(2, 50))
    assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
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


def test_iter_primes_one_mod_8_matches_sympy():
    sympy = pytest.importorskip("sympy")
    seg = modular._SEGMENT  # indices k of p = 8k + 1 per window
    windows = [
        (-10, 30), (2, 18), (17, 18), (18, 1000), (8 * seg - 99, 8 * seg + 900),
        (1, 8 * (2 * seg + 50) + 1), (8 * seg + 5, 8 * (3 * seg + 7)), (10**6 - 999, 10**6 + 8 * seg),
    ]
    sympy.sieve.extend(max(stop for _, stop in windows))
    for start, stop in windows:
        want = [p for p in sympy.sieve.primerange(start, stop) if p % 8 == 1]
        assert list(iter_primes(start, stop, 8)) == want, (start, stop)
    for start in range(-3, 10):
        for stop in range(-3, 10):
            assert list(iter_primes(start, stop, 8)) == []


def test_iter_primes_one_mod_8_resumable():
    stop = 8 * (2 * modular._SEGMENT + 40) + 1
    whole = list(iter_primes(2, stop, 8))
    assert whole[:4] == [17, 41, 73, 89]
    for i in (0, 1, 500, len(whole) // 2, len(whole) - 2):
        assert list(iter_primes(whole[i] + 1, stop, 8)) == whole[i + 1 :]
        assert list(iter_primes(whole[i], stop, 8)) == whole[i:]


def test_iter_primes_draws_its_base_primes_as_it_needs_them():
    """The first prime below 10^12 costs one window, not every base prime
    up to 10^6, so a scan to a huge limit prints its first record at once."""
    tracemalloc.start()
    try:
        assert next(iter_primes(2, 10**12)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert list(itertools.islice(iter_primes(2, 10**30, 8), 3)) == [17, 41, 73]


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
