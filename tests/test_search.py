"""Shift-prime searches."""

import itertools
import os
import sys

from twistparity.frobenius import classify_prime, prime_scan, sigma_set
from twistparity.modular import iter_primes
from twistparity.papercases import (
    curve_1440d1,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)
from twistparity.search import find_shift_primes

from oracles import sigma_trivial_by_classes, verify_recipe


def take(stream, k):
    return list(itertools.islice(stream, k))


def test_x3_minus_2_raise_stream_golden(cache):
    got = take(find_shift_primes(curve_x3_minus_2(), "raise2", 700, cache), 3)
    assert [r.l for r in got] == [433, 457, 601]
    for r in got:
        assert r.cycle_type == (1, 1, 1)
        assert r.d == r.l
        assert verify_recipe(curve_x3_minus_2(), r)


def test_s5_quintic_streams_golden(cache):
    s5 = curve_s5_quintic()
    up = take(find_shift_primes(s5, "raise2", 1800, cache), 3)
    assert [r.l for r in up] == [17, 457, 1697]
    assert all(r.cycle_type == (1, 1, 3) for r in up)
    down = take(find_shift_primes(s5, "lower2", 500, cache), 3)
    assert [r.l for r in down] == [17, 313, 457]
    assert down[1].cycle_type == (1, 2, 2)
    for r in up + down:
        assert verify_recipe(s5, r)


def test_recipe_conditions_are_listed(cache):
    r = take(find_shift_primes(curve_x3_minus_2(), "raise2", 500, cache), 1)[0]
    names = dict(r.checked_conditions)
    assert names["class_index_2"] is True
    assert names["three_odd_orbits"] is True
    assert names["l_is_1_mod_8"] is True
    assert names["loc_image_zero"] == "unverified"
    r2 = take(find_shift_primes(curve_s5_quintic(), "lower2", 500, cache), 1)[0]
    names2 = dict(r2.checked_conditions)
    assert "three_odd_orbits" not in names2
    assert names2["loc_image_dim_2"] == "unverified"


def test_h_quintic_stream_is_empty(cache):
    """Class index 2 for this curve forces (2|l) = -1, so l = 1 mod 8 never happens.

    The splitting field is biquadratic with Q(sqrt(2)) inside: i = 2 means
    both quadratic factors stay inert, which pins l to 3 or 5 mod 8.
    """
    ch = curve_h()
    assert take(find_shift_primes(ch, "lower2", 20000, cache), 1) == []
    assert take(find_shift_primes(ch, "raise2", 20000, cache), 1) == []
    for l in [pc.l for pc in prime_scan(ch, 3000, cache) if pc.i == 2]:
        assert l % 8 in (3, 5)


def test_an_side_curve_emits_only_even_classes(cache):
    c = curve_1440d1()
    recipes = take(find_shift_primes(c, "raise2", 2000, cache), 3)
    assert recipes, "fully split curve is P_2 at every good prime"
    for r in recipes:
        assert r.cycle_type == (1, 1, 1)
        assert verify_recipe(c, r)


def test_stream_density_sanity(cache):
    """Emitted density within a factor 3 of the naive independent product.

    For the S_5 quintic: P(type (1,1,3)) = 1/6, P(l = 1 mod 8) = 1/4 and
    the two Legendre conditions are tied together by the square class of
    the discriminant, contributing 1/2 rather than 1/4 -- all swallowed
    by the deliberately coarse factor-3 bound.
    """
    s5 = curve_s5_quintic()
    limit = 30000
    hits = len(list(find_shift_primes(s5, "raise2", limit, cache)))
    total = len(list(prime_scan(s5, limit + 1, cache)))
    naive = (1 / 6) * (1 / 4) * (1 / 4)
    assert naive / 3 < hits / total < naive * 3


def test_limit_zero_yields_empty_stream(cache):
    assert list(find_shift_primes(curve_x3_minus_2(), "raise2", 0, cache)) == []


def test_find_shift_primes_factors_no_integer_per_recipe(cache, monkeypatch):
    curve = curve_1440d1()
    sigma_set(curve)  # factors the discriminant, once per curve
    # one worker: a refusal in a forked child would only cost its share
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def refuse(n):
        raise AssertionError(f"factor_integer({n}) called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("twistparity") and hasattr(mod, "factor_integer"):
            monkeypatch.setattr(mod, "factor_integer", refuse)
    recipes = [
        r
        for direction in ("raise2", "lower2")
        for r in find_shift_primes(curve, direction, 10**5, cache)
    ]
    monkeypatch.undo()
    assert {r.direction for r in recipes} == {"raise2", "lower2"}
    assert all(verify_recipe(curve, r) for r in recipes)


def test_find_shift_primes_matches_an_oracle_over_every_prime(cache):
    """Both streams equal the recipes rebuilt from every prime up to the
    limit, Sigma-triviality read from the square classes."""
    curve = curve_1440d1()
    limit = 300_000
    sigma = sigma_set(curve)
    index_2 = [
        pc
        for pc in (
            classify_prime(curve, l)
            for l in iter_primes(2, limit + 1)
            if l not in sigma and sigma_trivial_by_classes(l, sigma)
        )
        if pc.i == 2
    ]
    want = {
        "raise2": [(pc.l, pc.l, pc.lengths) for pc in index_2 if all(x % 2 for x in pc.lengths)],
        "lower2": [(pc.l, pc.l, pc.lengths) for pc in index_2],
    }
    for direction, recipes in want.items():
        got = [(r.l, r.d, r.cycle_type) for r in find_shift_primes(curve, direction, limit, cache)]
        assert got == recipes, direction
        assert len(recipes) > 100
