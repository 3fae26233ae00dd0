"""Quadratic twists as squarefree integers and their local square classes."""

import random

import pytest

from twistparity.characters import local_behavior, local_square_class, sigma_trivial
from twistparity.errors import InvalidInputError, ResourceLimitError
from twistparity.frobenius import sigma_set
from twistparity.modular import (
    hilbert_symbol,
    is_squarefree,
    kronecker_symbol,
    local_classes,
    smallest_nonresidue,
    squarefree_part,
)
from twistparity.papercases import (
    curve_1440d1,
    curve_g,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)

from oracles import enumerate_characters, twist_norm

INF = 0  # the real place
P2 = 2
P3 = 3


def test_local_behavior_examples():
    assert local_behavior(-15, P2) == "trivial"
    assert local_behavior(-1, P2) == "ramified"
    assert local_behavior(73, P3) == "trivial"
    assert local_behavior(5, P2) == "unramified_nontrivial"
    assert local_behavior(-1, INF) == "sign"
    assert local_behavior(7, INF) == "trivial"
    assert local_behavior(15, P3) == "ramified"


def test_twist_norm_examples():
    assert twist_norm(-15) == 5
    assert twist_norm(-1) == 2
    assert twist_norm(1) == 1
    assert twist_norm(17) == 17
    assert twist_norm(-7) == 7  # -7 = 1 mod 8, unramified at 2


def test_canonicalization():
    assert squarefree_part(50) == 2
    assert squarefree_part(-45) == -5
    assert squarefree_part(9 * 49) == 1
    with pytest.raises(InvalidInputError):
        squarefree_part(0)


def test_group_law():
    """chi_a chi_b = chi_d with d the squarefree kernel of a * b."""
    assert squarefree_part(6 * 10) == 15
    assert squarefree_part(-1 * -1) == 1
    rng = random.Random(4)
    for _ in range(100):
        a = squarefree_part(rng.randint(1, 3000) * rng.choice((1, -1)))
        b = squarefree_part(rng.randint(1, 3000) * rng.choice((1, -1)))
        assert is_squarefree(squarefree_part(a * b))
        # d and d*c^2 give the same twist
        assert squarefree_part(a * 35**2) == a


def test_enumerate_characters_sizes():
    assert sorted(enumerate_characters(3)) == [-2, -1, 1, 2]
    assert len(enumerate_characters(10)) == 32  # generators -1, 2, 3, 5, 7
    assert len(enumerate_characters(20)) == 512
    assert enumerate_characters(2) == [1]
    with pytest.raises(InvalidInputError):
        enumerate_characters(1)


def test_enumerate_characters_matches_norm_cut():
    for bound in (3, 10, 20, 50):
        fam = set(enumerate_characters(bound))
        for d in fam:
            assert twist_norm(d) < bound
        # every squarefree |d| <= 300 with norm < bound is in the family
        for n in range(-300, 301):
            if n == 0 or not is_squarefree(n):
                continue
            assert (twist_norm(n) < bound) == (n in fam), (n, bound)


def test_enumerate_characters_resource_limit():
    # 24 odd primes below 100 plus {-1, 2} would give 2^26 characters
    with pytest.raises(ResourceLimitError):
        enumerate_characters(100)
    assert len(enumerate_characters(30, cap=1 << 12)) == 2048


def test_sigma_trivial_examples():
    sigma = sigma_set(curve_x3_minus_2())
    assert sigma_trivial(73, sigma)
    assert not sigma_trivial(41, sigma)
    assert sigma_trivial(1, sigma)
    assert not sigma_trivial(-73, sigma)  # fails at infinity


def test_sigma_trivial_matches_kronecker_symbols():
    """Euler's criterion at each odd bad prime agrees with the Kronecker
    symbol, on a window of d holding negatives and multiples of every q."""
    for make in (curve_x3_minus_2, curve_1440d1, curve_s5_quintic, curve_g, curve_h):
        sigma = sigma_set(make())
        window = range(-3000, 3001)
        assert all(any(d % q == 0 and d > 0 and d % 8 == 1 for d in window) for q in sigma[2:])
        for d in window:
            want = d > 0 and d % 8 == 1 and all(kronecker_symbol(d, q) == 1 for q in sigma[2:])
            assert sigma_trivial(d, sigma) == want, (sigma, d)


def test_trivial_behavior_is_a_subgroup():
    rng = random.Random(9)
    places = [INF, P2, P3, 7]
    for _ in range(200):
        a = squarefree_part(rng.randint(1, 5000) * rng.choice((1, -1)))
        b = squarefree_part(rng.randint(1, 5000) * rng.choice((1, -1)))
        for v in places:
            if local_behavior(a, v) == local_behavior(b, v) == "trivial":
                assert local_behavior(squarefree_part(a * b), v) == "trivial"


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(73) == 5


def test_local_classes_shape():
    assert local_classes(INF) == (1, -1)
    assert local_classes(P2) == (1, 5, -1, -5, 2, 10, -2, -10)
    assert local_classes(P3) == (1, 2, 3, 6)
    assert local_classes(7) == (1, 3, 7, 21)


def test_local_square_class_examples():
    assert local_square_class(-15, P2) == 1  # -15 = 1 mod 8
    assert local_square_class(-1, P2) == -1
    assert local_square_class(73, P3) == 1
    assert local_square_class(5, P3) == 2
    assert local_square_class(15, P3) == 6  # 15 = 3 * 5 with (5|3) = -1
    assert local_square_class(21, P3) == 3  # 21 = 3 * 7 with (7|3) = +1
    assert local_square_class(-1, INF) == -1


def test_local_square_class_matches_hilbert_pairing():
    """The canonical representative is in the same square class as d."""
    rng = random.Random(31)
    places = [INF, P2, P3, 5, 11]
    for _ in range(250):
        d = squarefree_part(rng.randint(1, 10**5) * rng.choice((1, -1)))
        x = rng.randint(-200, 200) or 7
        for v in places:
            rep = local_square_class(d, v)
            assert hilbert_symbol(rep, x, v) == hilbert_symbol(d, x, v), (d, v, x)


def behavior_by_congruences(n: int, v: int) -> str:
    """The textbook criteria: the sign at infinity, n mod 8 at 2, q | n and (n|q) at odd q."""
    if v == 0:
        return "sign" if n < 0 else "trivial"
    if v == 2:
        if n % 8 == 1:
            return "trivial"
        return "unramified_nontrivial" if n % 8 == 5 else "ramified"
    if n % v == 0:
        return "ramified"
    euler = pow(n, (v - 1) // 2, v)  # Euler's criterion for (n|q)
    return "trivial" if euler == 1 else "unramified_nontrivial"


def test_behavior_determines_class_coarsely():
    rng = random.Random(77)
    seen = set()
    for _ in range(200):
        d = squarefree_part(rng.randint(1, 10**4) * rng.choice((1, -1)))
        for v in (INF, P2, P3, 13):
            beh = local_behavior(d, v)
            assert beh == behavior_by_congruences(d, v), (d, v)
            seen.add((v == 0, beh))
    assert len(seen) == 5  # every behavior occurs, SIGN and TRIVIAL at infinity