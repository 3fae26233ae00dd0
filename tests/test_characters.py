"""Quadratic twists as squarefree integers and their local square classes."""

import random

import pytest

from twistparity.characters import (
    LocalBehavior,
    QuadTwist,
    local_behavior,
    local_square_class,
    sigma_trivial,
)
from twistparity.errors import InvalidInputError, ResourceLimitError
from twistparity.frobenius import sigma_set
from twistparity.modular import (
    Place,
    hilbert_symbol,
    is_squarefree,
    local_classes,
    smallest_nonresidue,
)
from twistparity.papercases import curve_x3_minus_2

from oracles import enumerate_characters, twist_norm

INF = Place.infinity()
P2 = Place.finite(2)
P3 = Place.finite(3)


def test_local_behavior_examples():
    assert local_behavior(QuadTwist(-15), P2) == LocalBehavior.TRIVIAL
    assert local_behavior(QuadTwist(-1), P2) == LocalBehavior.RAMIFIED
    assert local_behavior(QuadTwist(73), P3) == LocalBehavior.TRIVIAL
    assert local_behavior(QuadTwist(5), P2) == LocalBehavior.UNRAMIFIED_NONTRIVIAL
    assert local_behavior(QuadTwist(-1), INF) == LocalBehavior.SIGN
    assert local_behavior(QuadTwist(7), INF) == LocalBehavior.TRIVIAL
    assert local_behavior(QuadTwist(15), P3) == LocalBehavior.RAMIFIED


def test_twist_norm_examples():
    assert twist_norm(QuadTwist(-15)) == 5
    assert twist_norm(QuadTwist(-1)) == 2
    assert twist_norm(QuadTwist(1)) == 1
    assert twist_norm(QuadTwist(17)) == 17
    assert twist_norm(QuadTwist(-7)) == 7  # -7 = 1 mod 8, unramified at 2


def test_canonicalization():
    assert QuadTwist.of(50).d == 2
    assert QuadTwist.of(-45).d == -5
    assert QuadTwist.of(9 * 49).d == 1
    with pytest.raises(InvalidInputError):
        QuadTwist(12)
    with pytest.raises(InvalidInputError):
        QuadTwist.of(0)


def test_group_law():
    assert (QuadTwist(6) * QuadTwist(10)).d == 15
    assert (QuadTwist(-1) * QuadTwist(-1)).d == 1
    rng = random.Random(4)
    for _ in range(100):
        a = QuadTwist.of(rng.randint(1, 3000) * rng.choice((1, -1)))
        b = QuadTwist.of(rng.randint(1, 3000) * rng.choice((1, -1)))
        prod = a * b
        assert is_squarefree(abs(prod.d))
        # d and d*c^2 give the same twist
        assert QuadTwist.of(a.d * 35**2) == a


def test_enumerate_characters_sizes():
    assert sorted(t.d for t in enumerate_characters(3)) == [-2, -1, 1, 2]
    assert len(enumerate_characters(10)) == 32  # generators -1, 2, 3, 5, 7
    assert len(enumerate_characters(20)) == 512
    assert [t.d for t in enumerate_characters(2)] == [1]
    with pytest.raises(InvalidInputError):
        enumerate_characters(1)


def test_enumerate_characters_matches_norm_cut():
    for bound in (3, 10, 20, 50):
        fam = {t.d for t in enumerate_characters(bound)}
        for d in fam:
            assert twist_norm(QuadTwist(d)) < bound
        # every squarefree |d| <= 300 with norm < bound is in the family
        for n in range(-300, 301):
            if n == 0 or not is_squarefree(n):
                continue
            t = QuadTwist(n)
            assert (twist_norm(t) < bound) == (n in fam), (n, bound)


def test_enumerate_characters_resource_limit():
    # 24 odd primes below 100 plus {-1, 2} would give 2^26 characters
    with pytest.raises(ResourceLimitError):
        enumerate_characters(100)
    assert len(enumerate_characters(30, cap=1 << 12)) == 2048


def test_sigma_trivial_examples():
    sigma = sigma_set(curve_x3_minus_2())
    assert sigma_trivial(QuadTwist(73), sigma)
    assert not sigma_trivial(QuadTwist(41), sigma)
    assert sigma_trivial(QuadTwist(1), sigma)
    assert not sigma_trivial(QuadTwist(-73), sigma)  # fails at infinity


def test_trivial_behavior_is_a_subgroup():
    rng = random.Random(9)
    places = [INF, P2, P3, Place.finite(7)]
    for _ in range(200):
        a = QuadTwist.of(rng.randint(1, 5000) * rng.choice((1, -1)))
        b = QuadTwist.of(rng.randint(1, 5000) * rng.choice((1, -1)))
        for v in places:
            if (
                local_behavior(a, v) == LocalBehavior.TRIVIAL
                and local_behavior(b, v) == LocalBehavior.TRIVIAL
            ):
                assert local_behavior(a * b, v) == LocalBehavior.TRIVIAL


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(73) == 5


def test_local_classes_shape():
    assert local_classes(INF) == (1, -1)
    assert local_classes(P2) == (1, 5, -1, -5, 2, 10, -2, -10)
    assert local_classes(P3) == (1, 2, 3, 6)
    assert local_classes(Place.finite(7)) == (1, 3, 7, 21)


def test_local_square_class_examples():
    assert local_square_class(QuadTwist(-15), P2) == 1  # -15 = 1 mod 8
    assert local_square_class(QuadTwist(-1), P2) == -1
    assert local_square_class(QuadTwist(73), P3) == 1
    assert local_square_class(QuadTwist(5), P3) == 2
    assert local_square_class(QuadTwist(15), P3) == 6  # 15 = 3 * 5 with (5|3) = -1
    assert local_square_class(QuadTwist(21), P3) == 3  # 21 = 3 * 7 with (7|3) = +1
    assert local_square_class(QuadTwist(-1), INF) == -1


def test_local_square_class_matches_hilbert_pairing():
    """The canonical representative is in the same square class as d."""
    rng = random.Random(31)
    places = [INF, P2, P3, Place.finite(5), Place.finite(11)]
    for _ in range(250):
        d = QuadTwist.of(rng.randint(1, 10**5) * rng.choice((1, -1)))
        x = rng.randint(-200, 200) or 7
        for v in places:
            rep = local_square_class(d, v)
            assert hilbert_symbol(rep, x, v) == hilbert_symbol(d.d, x, v), (d, v, x)


def behavior_by_congruences(n: int, v: Place) -> LocalBehavior:
    """The textbook criteria: the sign at infinity, n mod 8 at 2, q | n and (n|q) at odd q."""
    if v.is_infinity:
        return LocalBehavior.SIGN if n < 0 else LocalBehavior.TRIVIAL
    if v.q == 2:
        if n % 8 == 1:
            return LocalBehavior.TRIVIAL
        return LocalBehavior.UNRAMIFIED_NONTRIVIAL if n % 8 == 5 else LocalBehavior.RAMIFIED
    if n % v.q == 0:
        return LocalBehavior.RAMIFIED
    euler = pow(n, (v.q - 1) // 2, v.q)  # Euler's criterion for (n|q)
    return LocalBehavior.TRIVIAL if euler == 1 else LocalBehavior.UNRAMIFIED_NONTRIVIAL


def test_behavior_determines_class_coarsely():
    rng = random.Random(77)
    seen = set()
    for _ in range(200):
        d = QuadTwist.of(rng.randint(1, 10**4) * rng.choice((1, -1)))
        for v in (INF, P2, P3, Place.finite(13)):
            beh = local_behavior(d, v)
            assert beh == behavior_by_congruences(d.d, v), (d, v)
            seen.add((v.is_infinity, beh))
    assert len(seen) == 5  # every behavior occurs, SIGN and TRIVIAL at infinity