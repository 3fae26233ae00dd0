"""Sigma sets, prime classification, the disc dichotomy, Galois labels."""

import os
import random
from fractions import Fraction

import pytest

from twistparity.curves import CurveSpec, curve_hash
from twistparity.errors import BadPrimeError
from twistparity.frobenius import (
    PrimeCache,
    classify_prime,
    disc_is_square,
    galois_classify,
    prime_scan,
    sigma_set,
)
from twistparity.modular import kronecker_symbol, sieve_primes
from twistparity.papercases import (
    curve_1440d1,
    curve_g,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)
from twistparity.ratpoly import RatPoly, is_separable
from twistparity.torsion import Permutation


def test_sigma_set_examples():
    assert sigma_set(curve_x3_minus_2()).finite == (2, 3)
    assert sigma_set(curve_1440d1()).finite == (2, 3, 5)
    h_sigma = set(sigma_set(curve_h()).finite)
    assert {2, 3, 5, 7, 13} <= h_sigma
    assert sigma_set(curve_g()).finite == (2, 3)
    assert sigma_set(curve_s5_quintic()).finite == (2, 19, 151)


def test_sigma_includes_denominator_primes():
    from fractions import Fraction

    c = CurveSpec(f=RatPoly((Fraction(1, 7), 0, 0, 1)))
    assert 7 in sigma_set(c).finite


def test_sigma_set_matches_sympy_on_rational_coefficients():
    """{2} plus the primes of lead, denominators and disc, by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(61)
    checked = 0
    while checked < 24:
        degree = rng.choice((3, 5))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1)]
        f = RatPoly(coeffs)
        if f.degree != degree or not is_separable(f):
            continue
        checked += 1
        sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
        want = {2}
        for n in (f.lead.numerator, *(c.denominator for c in f.coeffs),
                  sympy.fraction(sympy.discriminant(sym))[0]):
            want.update(sympy.primefactors(n))
        assert sigma_set(CurveSpec(f=f)).finite == tuple(sorted(want)), f


def test_classify_prime_examples():
    c = curve_x3_minus_2()
    assert classify_prime(c, 5).lengths == (1, 2)
    assert classify_prime(c, 5).i == 1
    assert classify_prime(c, 7).lengths == (3,)
    assert classify_prime(c, 7).i == 0
    assert classify_prime(c, 31).lengths == (1, 1, 1)
    assert classify_prime(c, 31).i == 2
    with pytest.raises(BadPrimeError):
        classify_prime(c, 3)


def test_dichotomy_class_parity_vs_disc_symbol(golden_curves):
    """class index even iff (disc | l) = +1, for all good odd l <= 2000."""
    for name, curve in golden_curves.items():
        disc_num = (
            curve.discriminant().numerator * curve.discriminant().denominator
        )
        sigma = sigma_set(curve)
        for l in sieve_primes(2000):
            if l == 2 or l in sigma:
                continue
            pc = classify_prime(curve, l)
            assert (pc.i % 2 == 0) == (kronecker_symbol(disc_num, l) == 1), (name, l)


def test_class_parity_is_permutation_sign():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.choice((3, 5, 7, 9))
        sigma = Permutation.random(n, rng)
        lengths = sigma.cycle_lengths()
        i = len(lengths) - 1
        sign = (-1) ** sum(m - 1 for m in lengths)
        assert (-1) ** i == sign * (-1) ** (n - 1)


def test_square_disc_curve_has_only_even_classes():
    c = curve_1440d1()
    assert disc_is_square(c)
    for pc in prime_scan(c, 2, 1000):
        assert pc.i % 2 == 0


def test_s3_cycle_type_distribution():
    """Empirical Chebotarev for x^3 - 2: frequencies near (1/6, 1/2, 1/3)."""
    c = curve_x3_minus_2()
    counts = {(1, 1, 1): 0, (1, 2): 0, (3,): 0}
    total = 0
    for pc in prime_scan(c, 2, 10**5):
        counts[pc.lengths] += 1
        total += 1
    assert total > 9000
    assert abs(counts[(1, 1, 1)] / total - 1 / 6) < 0.02
    assert abs(counts[(1, 2)] / total - 1 / 2) < 0.02
    assert abs(counts[(3,)] / total - 1 / 3) < 0.02


def test_prime_scan_p0_primes_below_50():
    c = curve_x3_minus_2()
    got = [pc.l for pc in prime_scan(c, 2, 50, predicate=lambda pc: pc.i == 0)]
    assert got == [7, 13, 19, 37]


def test_prime_scan_p2_one_mod_8_below_500():
    c = curve_x3_minus_2()
    got = [
        pc.l
        for pc in prime_scan(
            c, 2, 501, predicate=lambda pc: pc.i == 2, prime_filter=lambda l: l % 8 == 1
        )
    ]
    assert got == [433, 457]


def test_prime_scan_empty_range():
    assert list(prime_scan(curve_x3_minus_2(), 10, 10)) == []


def test_cache_roundtrip_and_truncation(tmp_path):
    path = str(tmp_path / "primes.cache")
    cache = PrimeCache(path)
    c = curve_x3_minus_2()
    first = [classify_prime(c, l, cache=cache) for l in (5, 7, 11, 13)]
    # reload: values come from the file and match a fresh computation
    cache2 = PrimeCache(path)
    again = [classify_prime(c, l, cache=cache2) for l in (5, 7, 11, 13)]
    assert [pc.lengths for pc in first] == [pc.lengths for pc in again]

    with open(path, "a", encoding="utf-8") as fh:
        fh.write("deadbeef 17 torn-rec")  # corrupt trailing record, no newline
    cache3 = PrimeCache(path)
    assert cache3.get("deadbeef", 17) is None
    with open(path, "r", encoding="utf-8") as fh:
        assert "torn-rec" not in fh.read()  # truncated back to the valid prefix
    # cache deletion changes nothing about reported values
    os.remove(path)
    fresh = [classify_prime(c, l) for l in (5, 7, 11, 13)]
    assert [pc.lengths for pc in fresh] == [pc.lengths for pc in first]


def test_poisoned_cache_record_is_recomputed(tmp_path):
    c = curve_x3_minus_2()
    key = curve_hash(c)
    path = tmp_path / "primes.cache"
    path.write_text(f"{key} 7 1,1\n")  # two lengths on a cubic
    pc = classify_prime(c, 7, cache=PrimeCache(str(path)))
    assert pc.lengths == (3,) and pc.i == 0
    # the corrected record is appended and wins on the next load
    assert path.read_text().splitlines() == [f"{key} 7 1,1", f"{key} 7 3"]
    assert PrimeCache(str(path)).get(key, 7) == (3,)


def test_galois_classify_examples():
    assert galois_classify(curve_x3_minus_2(), 100).label == "Sn_certified"
    v = galois_classify(curve_1440d1(), 100)
    assert v.label == "unknown"
    assert "reducible" in v.evidence["note"]
    assert galois_classify(curve_h(), 500).label == "unknown"
    assert galois_classify(curve_s5_quintic(), 300).label == "Sn_certified"


def test_galois_classify_an_side():
    # x^3 + x^2 - 2x - 1: cyclic cubic, disc 49
    c = CurveSpec(f=RatPoly((-1, -2, 1, 1)))
    assert disc_is_square(c)
    assert galois_classify(c, 200).label == "An_certified"
    # with a tiny sample bound nothing can be certified
    low = galois_classify(c, 12)
    assert low.label in ("inside_An", "An_certified")


def test_galois_low_bound_degrades_to_unknown():
    assert galois_classify(curve_x3_minus_2(), 4).label == "unknown"
