"""The permutation-module oracle that ``verify-paper`` check d runs (``verify``),
and certified rational 2-torsion (``torsion``)."""

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
from twistparity import torsion
from twistparity.ratpoly import RatPoly
from twistparity.torsion import rational_two_torsion_dim
from twistparity.verify import cycle_lengths, fixed_space_dim

from oracles import from_cycles


def random_images(n, rng):
    """A uniform permutation of {0..n-1} as its images."""
    images = list(range(n))
    rng.shuffle(images)
    return images


def test_fixed_space_dim_examples():
    assert fixed_space_dim((0, 1, 2), 2) == 2
    assert fixed_space_dim(from_cycles(3, [(1, 2, 3)]), 2) == 0
    assert fixed_space_dim(from_cycles(5, [(1, 2), (3, 4, 5)]), 2) == 1


def test_fixed_space_dim_rejects_p_dividing_n():
    with pytest.raises(InvalidInputError):
        fixed_space_dim((0, 1, 2, 3), 2)


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
        images = random_images(n, rng)
        assert fixed_space_dim(images, p) == len(cycle_lengths(images)) - 1


def test_oracle_conjugation_invariance():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.choice((3, 5, 7))
        p = rng.choice((2, 5)) if n != 5 else rng.choice((2, 3))
        sigma = random_images(n, rng)
        tau = random_images(n, rng)
        # tau sigma tau^-1 sends tau(i) to tau(sigma(i))
        conj = [0] * n
        for i in range(n):
            conj[tau[i]] = tau[sigma[i]]
        assert fixed_space_dim(conj, p) == fixed_space_dim(sigma, p)


def test_permutation_from_cycles():
    s = from_cycles(5, [(1, 2), (3, 4, 5)])
    assert s == (1, 0, 3, 4, 2)
    assert cycle_lengths(s) == (2, 3)
    assert cycle_lengths(()) == ()
    assert cycle_lengths(from_cycles(4, [])) == (1, 1, 1, 1)
    with pytest.raises(InvalidInputError):
        from_cycles(3, [(1, 1)])


def test_two_torsion_examples():
    assert rational_two_torsion_dim(curve_h()) == 2
    assert rational_two_torsion_dim(curve_g()) == 2
    assert rational_two_torsion_dim(curve_x3_minus_2()) == 0
    assert rational_two_torsion_dim(curve_1440d1()) == 2


def test_two_torsion_without_declared_factors(monkeypatch):
    # same h polynomial but with no factorization supplied: the linear
    # factor is found by root extraction, but the quartic cofactor is a
    # product of two quadratics, irreducible mod nothing -> must refuse
    monkeypatch.setattr(torsion, "_CERTIFY_BOUND", 300)
    f = curve_h().f
    bare = CurveSpec(f=f)
    with pytest.raises(UnknownFactorizationError, match="below 300"):
        rational_two_torsion_dim(bare)


def test_two_torsion_certifies_irreducible_quintic():
    c = CurveSpec(f=RatPoly((-1, -1, 0, 0, 0, 1)))
    assert rational_two_torsion_dim(c) == 0
    # x^5 + x/3 + 1 and x^5 + x/7 + 1: the certifying scan must skip the
    # primes of the coefficient denominators, not stop at them
    for den in (3, 7):
        c = CurveSpec(f=RatPoly((1, Fraction(1, den), 0, 0, 0, 1)))
        assert rational_two_torsion_dim(c) == 0


def test_declared_factor_with_a_rational_root_is_split():
    # (x^2 - 1) is declared but splits: three linear parts
    f = RatPoly((-1, 0, 1)) * RatPoly((-2, 1))
    c = CurveSpec(f=f, declared_factors=(RatPoly((-1, 0, 1)), RatPoly((-2, 1))))
    assert sorted(c.parts) == [((-2, 1), 1), ((-1, 1), 1), ((1, 1), 1)]
    assert rational_two_torsion_dim(c) == 2
