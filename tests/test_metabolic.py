"""Metabolic F_2 spaces: forms, Lagrangians, disjoint counts."""

import random

import pytest

from twistparity.errors import InvalidInputError, ResourceLimitError
from twistparity.metabolic import (
    QuadraticSpace,
    Subspace,
    count_disjoint_lagrangians,
    is_lagrangian,
    lagrangians,
)

from oracles import transformed


def standard_lagrangian(m):
    return Subspace.from_vectors([1 << (2 * i) for i in range(m)])


def random_transformed(m, rng):
    """Hyperbolic space pushed through a random invertible change of basis."""
    base = QuadraticSpace.hyperbolic(m)
    n = 2 * m
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        try:
            return transformed(base, rows)
        except InvalidInputError:
            continue


def test_is_lagrangian_examples():
    h = QuadraticSpace.hyperbolic(1)
    assert is_lagrangian(h, Subspace.from_vectors([0b01]))
    assert is_lagrangian(h, Subspace.from_vectors([0b10]))
    assert not is_lagrangian(h, Subspace.from_vectors([0b11]))  # q(e+f) = 1
    hh = QuadraticSpace.hyperbolic(2)
    assert is_lagrangian(hh, Subspace.from_vectors([0b0001, 0b0100]))
    assert not is_lagrangian(hh, Subspace.from_vectors([0b0001]))  # wrong dim
    with pytest.raises(InvalidInputError):
        is_lagrangian(h, Subspace.from_vectors([0b100]))  # outside ambient


def test_disjoint_counts_small_dims():
    for m, want in ((1, 1), (2, 2), (3, 8)):
        space = QuadraticSpace.hyperbolic(m)
        assert count_disjoint_lagrangians(space, standard_lagrangian(m)) == want


def test_disjoint_count_invariant_over_all_lagrangians():
    """count = 2^(m(m-1)/2) no matter which Lagrangian X is fixed."""
    for m in (1, 2, 3):
        space = QuadraticSpace.hyperbolic(m)
        want = 2 ** (m * (m - 1) // 2)
        all_lagr = list(lagrangians(space))
        # total count of Lagrangians in a split space: prod(2^(i-1) + 1)
        total = 1
        for i in range(1, m + 1):
            total *= 2 ** (i - 1) + 1
        assert len(all_lagr) == total
        for x in all_lagr:
            assert count_disjoint_lagrangians(space, x) == want


def test_disjoint_count_dim8_samples():
    space = QuadraticSpace.hyperbolic(4)
    assert count_disjoint_lagrangians(space, standard_lagrangian(4)) == 64
    rng = random.Random(5)
    found = []
    for y in lagrangians(space):
        if rng.random() < 0.05:
            found.append(y)
        if len(found) == 3:
            break
    for y in found:
        assert count_disjoint_lagrangians(space, y) == 64


def test_transformed_spaces_keep_the_count():
    rng = random.Random(18)
    for m in (1, 2, 3):
        for _ in range(3):
            space = random_transformed(m, rng)
            ys = list(lagrangians(space))
            assert ys, "transformed hyperbolic space must stay metabolic"
            want = 2 ** (m * (m - 1) // 2)
            assert count_disjoint_lagrangians(space, ys[0]) == want


def test_pairing_symmetric_bilinear_on_random_forms():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.choice((1, 2, 3))
        space = random_transformed(m, rng)
        n = 2 * m
        for _ in range(25):
            u = rng.randrange(1 << n)
            v = rng.randrange(1 << n)
            w = rng.randrange(1 << n)
            assert space.pair(u, v) == space.pair(v, u)
            assert space.pair(u ^ v, w) == space.pair(u, w) ^ space.pair(v, w)
            assert space.q(u ^ v) == space.q(u) ^ space.q(v) ^ space.pair(u, v)


def test_nondegenerate_requirement():
    with pytest.raises(InvalidInputError):
        QuadraticSpace(2, 0, (0, 0))  # zero form pairs to zero
    with pytest.raises(InvalidInputError):
        QuadraticSpace(3, 0, (2, 0, 0))  # odd dimension


def test_enumeration_resource_limit():
    big = QuadraticSpace.hyperbolic(6)
    with pytest.raises(ResourceLimitError):
        count_disjoint_lagrangians(big, standard_lagrangian(6))


def test_relaxed_vs_strict_dimension_bookkeeping():
    """Synthetic local-condition model: rank through a Lagrangian image.

    For a linear map from a 'global' space onto a Lagrangian, the
    preimage of the whole space minus the preimage of zero has dimension
    exactly half of dim V.
    """
    rng = random.Random(9)
    for m in (1, 2, 3):
        space = QuadraticSpace.hyperbolic(m)
        lagr = rng.choice(list(lagrangians(space)))
        k = 2 * m + 1  # arbitrary global dimension
        rows = []
        while Subspace.from_vectors(rows).dim < m:
            combo = 0
            for b in lagr.basis:
                if rng.random() < 0.5:
                    combo ^= b
            rows = rows + [combo] if combo else rows
            if len(rows) > 5 * k:
                break
        image_dim = Subspace.from_vectors(rows).dim
        assert image_dim == m
        relaxed_minus_strict = image_dim  # dim res^-1(V) - dim ker(res)
        assert relaxed_minus_strict == space.dim // 2


def test_subspace_canonical_form():
    a = Subspace.from_vectors([0b110, 0b011])
    b = Subspace.from_vectors([0b101, 0b011])
    assert a == b
    assert a.dim == 2
    assert a.contains(0b101) and not a.contains(0b001)
    assert len(a.vectors()) == 4
