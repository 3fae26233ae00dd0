"""Property tests of the twist group law, the Sigma-triviality filter, reading a
twist through its square classes, row reduction, primality, factoring and
the rational 2-torsion count."""

import contextlib
import io
import json
import math
import pathlib
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twistparity.characters import sigma_trivial  # noqa: E402
from twistparity.cli import main  # noqa: E402
from twistparity.curves import CurveSpec  # noqa: E402
from twistparity.frobenius import sigma_set  # noqa: E402
from twistparity.modular import (  # noqa: E402
    factor_integer,
    is_prime,
    is_squarefree,
    local_classes,
    place_name,
)
from twistparity.papercases import GOLDEN_CURVES, curve_h  # noqa: E402
from twistparity.parity import echelon, omega_tables, parity_flip, span  # noqa: E402
from twistparity.ratpoly import RatPoly, discriminant  # noqa: E402
from twistparity.torsion import rational_two_torsion_dim  # noqa: E402

from oracles import ramified_primes, sigma_trivial_by_classes, squarefree_part  # noqa: E402

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


PAPERCASES = pathlib.Path(__file__).resolve().parent.parent / "papercases"
GOLDEN = {name: build() for name, build in GOLDEN_CURVES.items()}
PLAIN_TABLES = {name: omega_tables(curve) for name, curve in GOLDEN.items()}
# 2, the odd primes of every golden Sigma, primes outside them, and two past trial division
TWIST_PRIMES = sorted({2, 11, 17, 41, 73, 1000003, 1000033}.union(
    *(sigma_set(curve)[2:] for curve in GOLDEN.values())))
squarefree_ints = st.lists(st.sampled_from(TWIST_PRIMES), unique=True, max_size=4).map(math.prod)
any_ints = st.lists(st.sampled_from(TWIST_PRIMES), max_size=4).map(math.prod)


def complete_profiles(curve, rnd):
    """A random known h table at every finite place of Sigma."""
    return {v: (0, *(rnd.randrange(2) for _ in local_classes(v)[1:])) for v in sigma_set(curve)[1:]}


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.sampled_from((1, -1)), squarefree_ints, any_ints,
                  st.sampled_from(sorted(GOLDEN)), st.randoms())
def test_a_twist_reads_as_its_squarefree_kernel(s, k, m, name, rnd):
    """d = s k m^2 has the flips, kernel, norm and places of its kernel s k."""
    n = s * k * m * m
    for curve_name, curve in GOLDEN.items():
        for tables in (PLAIN_TABLES[curve_name], omega_tables(curve, complete_profiles(curve, rnd))):
            assert parity_flip(tables, n) == parity_flip(tables, s * k), (curve_name, n)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["--format", "json", "character", "--d", str(n),
                   "--curve", str(PAPERCASES / f"{name}.curve")])
    assert rc == 0
    doc = json.loads(out.getvalue())
    kernel = squarefree_part(n)
    assert kernel == s * k
    assert doc["inputs"]["squarefree_kernel"] == kernel
    assert doc["outputs"]["norm"] == max(ramified_primes(kernel), default=1)
    places = {0, 2, *ramified_primes(kernel), *sigma_set(GOLDEN[name])}
    assert set(doc["outputs"]["local"]) == set(map(place_name, places))


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


@st.composite
def _roots_times_an_irreducible(draw):
    """(f, k): a rational multiple of k = 1 or 2 rational linear factors times
    an irreducible g of degree 4 or 6 (k = 1) or 5 (k = 2), separable, and
    with g irreducible of full degree mod an odd prime below 50, which is
    what the 2-torsion count needs to certify it."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    k = draw(st.sampled_from((1, 2)))
    m = draw(st.sampled_from((4, 6))) if k == 1 else 5
    g = [draw(st.integers(-9, 9)) for _ in range(m)] + [draw(st.integers(1, 5))]
    reductions = (sympy.Poly(list(reversed(g)), x, modulus=l) for l in sympy.primerange(3, 50))
    hypothesis.assume(any(r.degree() == m and r.is_irreducible for r in reductions))
    assert sympy.Poly(list(reversed(g)), x).is_irreducible, g
    f = RatPoly((Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))),)) * RatPoly(g)
    for _ in range(k):
        f = f * RatPoly((draw(st.integers(-20, 20)), draw(st.integers(1, 9))))
    hypothesis.assume(discriminant(f))
    return f, k


@hypothesis.settings(max_examples=50, deadline=None)  # the first example imports sympy
@hypothesis.given(_roots_times_an_irreducible())
def test_two_torsion_divides_out_roots_and_certifies_the_cofactor(case):
    """With no declared factors, the k roots are divided out and the cofactor
    of degree 4 or more is certified: dim J(Q)[2] = (k + 1) - 1."""
    f, k = case
    assert rational_two_torsion_dim(CurveSpec(f)) == k, str(f)
