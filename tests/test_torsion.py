"""The permutation-module oracle and certified rational 2-torsion."""

import random
from fractions import Fraction

import pytest

from twistparity.curves import CurveSpec
from twistparity.errors import InvalidInputError, UnknownFactorizationError
from twistparity.papercases import (
    curve_1440d1,
    curve_g,
    curve_h,
    curve_x3_minus_2,
)
from twistparity.ratpoly import RatPoly
from twistparity.torsion import (
    Permutation,
    count_irreducible_factors,
    fixed_space_dim,
    orbit_lengths_coprime,
    rational_two_torsion_dim,
)

from oracles import from_cycles


def test_fixed_space_dim_examples():
    assert fixed_space_dim(Permutation((0, 1, 2)), 3, 2) == 2
    assert fixed_space_dim(from_cycles(3, [(1, 2, 3)]), 3, 2) == 0
    assert fixed_space_dim(from_cycles(5, [(1, 2), (3, 4, 5)]), 5, 2) == 1


def test_fixed_space_dim_rejects_p_dividing_n():
    with pytest.raises(InvalidInputError):
        fixed_space_dim(Permutation((0, 1, 2, 3)), 4, 2)


def test_oracle_matches_closed_form():
    """Row reduction equals (#cycles - 1) on random permutations."""
    rng = random.Random(100)
    done = 0
    while done < 400:
        n = rng.choice((3, 5, 7, 9))
        p = rng.choice((2, 3, 5))
        if n % p == 0:
            continue
        done += 1
        sigma = Permutation.random(n, rng)
        assert fixed_space_dim(sigma, n, p) == len(sigma.cycle_lengths()) - 1


def test_oracle_conjugation_invariance():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.choice((3, 5, 7))
        p = rng.choice((2, 5)) if n != 5 else rng.choice((2, 3))
        sigma = Permutation.random(n, rng)
        tau = Permutation.random(n, rng)
        conj = tau * sigma * tau.inverse()
        assert fixed_space_dim(conj, n, p) == fixed_space_dim(sigma, n, p)


def test_orbit_lengths_coprime_predicate():
    assert orbit_lengths_coprime((1, 1, 3), 2)
    assert not orbit_lengths_coprime((1, 2, 2), 2)
    assert orbit_lengths_coprime((1, 2), 3)
    assert not orbit_lengths_coprime((3, 4), 3)
    rng = random.Random(8)
    for _ in range(100):
        sigma = Permutation.random(7, rng)
        lengths = sigma.cycle_lengths()
        for p in (2, 3, 5):
            assert orbit_lengths_coprime(lengths, p) == all(x % p for x in lengths)


def test_permutation_from_cycles_and_product():
    s = from_cycles(5, [(1, 2), (3, 4, 5)])
    assert s.cycle_lengths() == (2, 3)
    assert (s * s.inverse()) == Permutation((0, 1, 2, 3, 4))
    with pytest.raises(InvalidInputError):
        from_cycles(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        Permutation((0, 0, 1))


def test_two_torsion_examples():
    assert rational_two_torsion_dim(curve_h()) == 2
    assert rational_two_torsion_dim(curve_g()) == 2
    assert rational_two_torsion_dim(curve_x3_minus_2()) == 0
    assert rational_two_torsion_dim(curve_1440d1()) == 2


def test_two_torsion_without_declared_factors():
    # same h polynomial but with no factorization supplied: the linear
    # factor is found by root extraction, but the quartic cofactor is a
    # product of two quadratics, irreducible mod nothing -> must refuse
    f = curve_h().f
    bare = CurveSpec(f=f)
    with pytest.raises(UnknownFactorizationError):
        rational_two_torsion_dim(bare, certify_bound=300)


def test_two_torsion_certifies_irreducible_quintic():
    c = CurveSpec(f=RatPoly((-1, -1, 0, 0, 0, 1)))
    assert rational_two_torsion_dim(c) == 0
    assert count_irreducible_factors(c) == 1
    # x^5 + x/3 + 1 and x^5 + x/7 + 1: the certifying scan must skip the
    # primes of the coefficient denominators, not stop at them
    for den in (3, 7):
        c = CurveSpec(f=RatPoly((1, Fraction(1, den), 0, 0, 0, 1)))
        assert rational_two_torsion_dim(c) == 0


def test_declared_factor_must_be_irreducible():
    # (x^2 - 1) is declared but splits
    f = RatPoly((-1, 0, 1)) * RatPoly((-2, 1))
    c = CurveSpec(f=f, declared_factors=(RatPoly((-1, 0, 1)), RatPoly((-2, 1))))
    with pytest.raises(UnknownFactorizationError):
        count_irreducible_factors(c)
