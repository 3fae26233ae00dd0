"""Property tests of the twist group law, the Sigma-triviality filter and row reduction."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twistparity.characters import (  # noqa: E402
    QuadTwist,
    sigma_trivial,
    sigma_trivial_congruences,
    sigma_trivial_twist,
)
from twistparity.frobenius import sigma_set  # noqa: E402
from twistparity.metabolic import Subspace  # noqa: E402
from twistparity.modular import is_squarefree  # noqa: E402
from twistparity.papercases import curve_h  # noqa: E402

nonzero = st.integers(-(10**12), 10**12).filter(lambda n: n != 0)


@hypothesis.given(nonzero, nonzero)
def test_twist_product_is_the_squarefree_kernel(x, y):
    a, b = QuadTwist.of(x), QuadTwist.of(y)
    prod = a * b
    assert prod == QuadTwist.of(a.d * b.d)
    assert QuadTwist(prod.d) == prod  # the public constructor accepts it


SIGMA_H = sigma_set(curve_h())


@hypothesis.given(st.integers(-(10**8), 10**8).filter(lambda n: n != 0))
def test_sigma_trivial_twist_keeps_exactly_the_sigma_trivial_squarefree(n):
    expected = is_squarefree(n) and sigma_trivial(QuadTwist(n), SIGMA_H)
    assert (sigma_trivial_twist(n, SIGMA_H) is not None) == expected
    if is_squarefree(n):
        assert sigma_trivial_congruences(n, SIGMA_H) == sigma_trivial(QuadTwist(n), SIGMA_H)


@hypothesis.given(st.lists(st.integers(0, 255), max_size=10), st.randoms())
def test_echelon_basis_is_canonical_reduced_and_spans_the_input(vectors, rnd):
    basis = Subspace.from_vectors(vectors).basis
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert Subspace.from_vectors(shuffled).basis == basis
    pivots = [b.bit_length() - 1 for b in basis]
    assert pivots == sorted(set(pivots), reverse=True)
    assert all(sum(b >> p & 1 for b in basis) == 1 for p in pivots)
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    assert set(Subspace(basis).vectors()) == span
