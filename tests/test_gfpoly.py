"""The packed x^l ladder and Frobenius steps against the list ladder they replace."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

from twistparity import gfpoly  # noqa: E402

from oracles import x_pow  # noqa: E402


def _width_step(n: int, j: int) -> int:
    """The least l - 1 at which slots of 64 j bits no longer hold 2n (l-1)^2."""
    return math.isqrt(-(-(1 << 64 * j) // (2 * n)) - 1) + 1


@st.composite
def _modulus_and_width(draw):
    """(n, l, slot bits): a degree and a prime l on one side of a slot-width
    step, or near 2^61 or 2^64, with the slot width l must get."""
    n = draw(st.integers(3, 13))
    if draw(st.booleans()):
        j = draw(st.integers(1, 3))
        step = _width_step(n, j)
        if draw(st.booleans()):
            return n, int(sympy.prevprime(step + 1)), 64 * j
        return n, int(sympy.nextprime(step)), 64 * (j + 1)
    near = 1 << draw(st.sampled_from((61, 64)))
    l = int(sympy.nextprime(near + draw(st.integers(-(2**20), 2**20))))
    return n, l, 64 * -(-(2 * n * (l - 1) ** 2).bit_length() // 64)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_modulus_and_width(), st.data())
def test_packed_ladder_matches_the_list_ladder(modulus, data):
    n, l, width = modulus
    f = data.draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n)) + [1]
    ring = gfpoly.residue_ring(f, l)
    assert ring[1] == width
    xl = gfpoly.x_pow(l, ring)
    assert xl == x_pow(l, f, l)
    # g -> g^l twice more: x^(l^2) and x^(l^3)
    matrix = gfpoly.frobenius_matrix(xl, ring)
    x_l2 = gfpoly.frobenius(xl, matrix, ring)
    assert x_l2 == x_pow(l * l, f, l)
    assert gfpoly.frobenius(x_l2, matrix, ring) == x_pow(l**3, f, l)


def test_width_steps_are_where_the_bound_overflows():
    for n in (3, 13):
        for j in (1, 2, 3):
            step = _width_step(n, j)
            assert (2 * n * step**2).bit_length() > 64 * j >= (2 * n * (step - 1) ** 2).bit_length()


@pytest.mark.parametrize("l", [3, 5, 7, 11])
def test_packed_ladder_at_small_exponents(l):
    """Exponents below and just above deg f are written down, not squared."""
    for n in range(2, 14):
        f = [(3 * i + 1) % l for i in range(n)] + [1]
        ring = gfpoly.residue_ring(f, l)
        for e in range(1, 3 * n):
            assert gfpoly.x_pow(e, ring) == x_pow(e, f, l), (n, e)
