"""Property tests of the twist group law, the Sigma-triviality filter, row reduction,
primality and factoring."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twistparity.characters import sigma_trivial  # noqa: E402
from twistparity.frobenius import sigma_set  # noqa: E402
from twistparity.modular import (  # noqa: E402
    factor_integer,
    is_prime,
    is_squarefree,
    squarefree_part,
)
from twistparity.papercases import curve_h  # noqa: E402
from twistparity.parity import echelon, span  # noqa: E402

from oracles import sigma_trivial_by_classes  # noqa: E402

nonzero = st.integers(-(10**12), 10**12).filter(lambda n: n != 0)


@hypothesis.given(nonzero, nonzero)
def test_twist_product_is_the_squarefree_kernel(x, y):
    a, b = squarefree_part(x), squarefree_part(y)
    prod = squarefree_part(a * b)
    assert prod == squarefree_part(x * y)
    assert is_squarefree(prod) and squarefree_part(prod) == prod


SIGMA_H = sigma_set(curve_h())


@hypothesis.given(st.integers(-(10**8), 10**8).filter(lambda n: n != 0))
def test_sigma_trivial_twist_keeps_exactly_the_sigma_trivial_squarefree(n):
    """The sampler's filter, congruences then the squarefree test, keeps the
    squarefree n of square class index 0 at every place of Sigma."""
    expected = is_squarefree(n) and sigma_trivial_by_classes(n, SIGMA_H)
    assert (sigma_trivial(n, SIGMA_H) and is_squarefree(n)) == expected
    if is_squarefree(n):
        assert sigma_trivial(n, SIGMA_H) == sigma_trivial_by_classes(n, SIGMA_H)


@hypothesis.given(st.lists(st.integers(0, 255), max_size=10), st.randoms())
def test_echelon_basis_is_canonical_reduced_and_spans_the_input(vectors, rnd):
    basis = echelon(vectors)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert echelon(shuffled) == basis
    pivots = [b.bit_length() - 1 for b in basis]
    assert pivots == sorted(set(pivots), reverse=True)
    assert all(sum(b >> p & 1 for b in basis) == 1 for p in pivots)
    points = {0}
    for v in vectors:
        points |= {s ^ v for s in points}
    assert set(span(basis)) == points


PROOF_LIMIT = 3317044064679887385961981  # is_prime switches to Baillie-PSW here


@hypothesis.settings(deadline=None)  # the first example imports sympy
@hypothesis.given(st.integers(10**11, 10**13), st.integers(-(10**9), 10**9))
def test_is_prime_on_semiprimes_near_the_proof_limit(a, shift):
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(a)
    q = sympy.nextprime(PROOF_LIMIT // p + shift)
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


# a start in [10^(k-1), 0.99 * 10^k): the next prime after it still has k digits
_prime_starts = st.integers(8, 14).flatmap(lambda k: st.integers(10 ** (k - 1), 99 * 10 ** (k - 2)))


@hypothesis.settings(max_examples=10, deadline=None)  # a 14-digit factor takes seconds
@hypothesis.given(_prime_starts, _prime_starts)
def test_factor_integer_splits_two_prime_products_like_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    n = sympy.nextprime(a) * sympy.nextprime(b)
    assert factor_integer(n) == sympy.factorint(n)
