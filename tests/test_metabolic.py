"""Echelon bases (``parity``), and the hyperbolic form, Lagrangians and disjoint
counts that ``verify-paper`` check e runs (``verify``)."""

import random

import pytest

from twistparity import verify
from twistparity.errors import InvalidInputError, ResourceLimitError
from twistparity.parity import echelon, span
from twistparity.verify import count_disjoint_lagrangians, lagrangians

from oracles import hyperbolic_q, is_lagrangian


def standard_lagrangian(m):
    return echelon([1 << (2 * i) for i in range(m)])


def test_is_lagrangian_examples():
    assert is_lagrangian(1, echelon([0b01]))
    assert is_lagrangian(1, echelon([0b10]))
    assert not is_lagrangian(1, echelon([0b11]))  # q(e+f) = 1
    assert is_lagrangian(2, echelon([0b0001, 0b0100]))
    assert not is_lagrangian(2, echelon([0b0001]))  # wrong dim
    with pytest.raises(InvalidInputError):
        is_lagrangian(1, echelon([0b100]))  # outside ambient


def test_disjoint_counts_small_dims():
    for m, want in ((1, 1), (2, 2), (3, 8)):
        assert count_disjoint_lagrangians(m, standard_lagrangian(m)) == want


def test_disjoint_count_invariant_over_all_lagrangians():
    """count = 2^(m(m-1)/2) no matter which Lagrangian X is fixed."""
    for m in (1, 2, 3):
        want = 2 ** (m * (m - 1) // 2)
        all_lagr = list(lagrangians(m))
        # total count of Lagrangians in a split space: prod(2^(i-1) + 1)
        total = 1
        for i in range(1, m + 1):
            total *= 2 ** (i - 1) + 1
        assert len(all_lagr) == len(set(all_lagr)) == total
        for x in all_lagr:
            assert x == echelon(x) and is_lagrangian(m, x)
            assert count_disjoint_lagrangians(m, x) == want


def test_disjoint_count_dim8_samples():
    assert count_disjoint_lagrangians(4, standard_lagrangian(4)) == 64
    rng = random.Random(5)
    found = []
    for y in lagrangians(4):
        if rng.random() < 0.05:
            found.append(y)
        if len(found) == 3:
            break
    for y in found:
        assert count_disjoint_lagrangians(4, y) == 64


def test_disjoint_lagrangians_meet_x_trivially():
    for m in (1, 2, 3):
        x = standard_lagrangian(m)
        for y in lagrangians(m, disjoint_from=x):
            assert set(span(x)) & set(span(y)) == {0}


def test_pairing_symmetric_bilinear_on_random_vectors():
    """The packed form is sum x_i y_i, and its polarization is the symmetric
    bilinear pairing sum x_i y'_i + x'_i y_i."""
    def pair(u, v):
        return verify._q(u ^ v) ^ verify._q(u) ^ verify._q(v)

    rng = random.Random(77)
    for _ in range(40):
        m = rng.choice((1, 2, 3, 4, 5))
        n = 2 * m
        for _ in range(25):
            u = rng.randrange(1 << n)
            v = rng.randrange(1 << n)
            w = rng.randrange(1 << n)
            assert verify._q(u) == hyperbolic_q(m, u)
            assert pair(u, v) == pair(v, u)
            assert pair(u ^ v, w) == pair(u, w) ^ pair(v, w)
            swapped = (u & 0x155) << 1 | (u >> 1) & 0x155
            assert pair(u, v) == bin(swapped & v).count("1") % 2


def test_enumeration_resource_limit():
    with pytest.raises(ResourceLimitError):
        count_disjoint_lagrangians(6, standard_lagrangian(6))


def test_relaxed_vs_strict_dimension_bookkeeping():
    """Synthetic local-condition model: rank through a Lagrangian image.

    For a linear map from a 'global' space onto a Lagrangian, the
    preimage of the whole space minus the preimage of zero has dimension
    exactly half of dim V.
    """
    rng = random.Random(9)
    for m in (1, 2, 3):
        lagr = rng.choice(list(lagrangians(m)))
        k = 2 * m + 1  # arbitrary global dimension
        rows = []
        while len(echelon(rows)) < m:
            combo = 0
            for b in lagr:
                if rng.random() < 0.5:
                    combo ^= b
            rows = rows + [combo] if combo else rows
            if len(rows) > 5 * k:
                break
        image_dim = len(echelon(rows))
        assert image_dim == m
        relaxed_minus_strict = image_dim  # dim res^-1(V) - dim ker(res)
        assert relaxed_minus_strict == m


def test_subspace_canonical_form():
    a = echelon([0b110, 0b011])
    b = echelon([0b101, 0b011])
    assert a == b == (0b101, 0b011)
    assert len(a) == 2
    assert len(echelon([*a, 0b101])) == 2 and len(echelon([*a, 0b001])) == 3
    assert sorted(span(a)) == [0b000, 0b011, 0b101, 0b110]
