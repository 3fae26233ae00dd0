"""Property tests of the twist group law and the Sigma-triviality filter."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twistparity.characters import QuadTwist, sigma_trivial, sigma_trivial_twist  # noqa: E402
from twistparity.frobenius import sigma_set  # noqa: E402
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
