import random
from fractions import Fraction

import pytest

from twistparity.papercases import GOLDEN_CURVES
from twistparity.ratpoly import RatPoly, discriminant


@pytest.fixture(scope="session")
def golden_curves():
    return {name: build() for name, build in GOLDEN_CURVES.items()}


@pytest.fixture
def cache(tmp_path):
    """The path of a new prime-cache file, as a command passes to its scans."""
    return str(tmp_path / "primes.cache")


def random_separable_poly(rng: random.Random, degree: int, coeff_bound: int = 9) -> RatPoly:
    """A random separable polynomial of the exact degree requested."""
    while True:
        coeffs = [Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(degree)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-coeff_bound, coeff_bound)
        f = RatPoly(coeffs + [Fraction(lead)])
        if discriminant(f) != 0:
            return f


def squarefree_flags(limit: int) -> bytearray:
    """flags[n] = 1 iff n is squarefree, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    p = 2
    while p * p <= limit:
        flags[p * p :: p * p] = bytearray(len(range(p * p, limit + 1, p * p)))
        p += 1
    return flags
