"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every check here is exact (integer / rational identities on finite
enumerations); the runtime bounds from the build contract are asserted
alongside the values.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

from twistparity.characters import sigma_trivial
from twistparity.cli import main
from twistparity.frobenius import classify_prime, sigma_set
from twistparity.modular import (
    factor_integer,
    hilbert_symbol,
    kronecker_symbol,
    local_classes,
)
from twistparity.papercases import curve_g, curve_h
from twistparity.parity import (
    delta_v,
    disparity,
    echelon,
    exact_scan,
    global_consistency_check,
    omega_tables,
    parity_flip,
)
from twistparity.curves import CurveSpec
from twistparity.torsion import rational_two_torsion_dim
from twistparity.verify import (
    count_disjoint_lagrangians,
    cycle_lengths,
    fixed_space_dim,
    transformation_identity,
)
from twistparity.modular import iter_primes

from conftest import random_separable_poly, squarefree_flags
from oracles import delta_inf_closed_form

INF = 0  # the real place


def _report(num, label, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d}: PASS - {label}{suffix}")


def test_acceptance_01_fixed_space_oracle():
    """Row-reduction fixed-space dim equals (#cycles - 1), 1000 trials, < 10 s."""
    t0 = time.monotonic()
    rng = random.Random(20240)
    done = 0
    while done < 1000:
        n = rng.choice((3, 5, 7, 9))
        p = rng.choice((2, 3, 5))
        if n % p == 0:
            continue
        done += 1
        images = list(range(n))
        rng.shuffle(images)
        assert fixed_space_dim(images, p) == len(cycle_lengths(images)) - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _report(1, "fixed-space oracle, 1000/1000 exact", elapsed)


def test_acceptance_02_lagrangian_counts():
    """Disjoint-Lagrangian counts 1, 2, 8, 64 in dims 2, 4, 6, 8, < 60 s."""
    t0 = time.monotonic()
    got = []
    for m in (1, 2, 3, 4):
        x = echelon([1 << (2 * i) for i in range(m)])
        got.append(count_disjoint_lagrangians(m, x))
    assert got == [1, 2, 8, 64]
    assert got == [2 ** (m * (m - 1) // 2) for m in (1, 2, 3, 4)]
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(2, "Lagrangian counts (1, 2, 8, 64) exact", elapsed)


def test_acceptance_03_class_parity_dichotomy(golden_curves):
    """Class index even iff (disc|l) = +1, all good odd l <= 2000, 5 curves, < 30 s."""
    t0 = time.monotonic()
    primes = list(iter_primes(2, 2001))
    checked = 0
    for name, curve in golden_curves.items():
        disc = curve.discriminant()
        disc_int = disc.numerator * disc.denominator
        sigma = sigma_set(curve)
        for l in primes:
            if l == 2 or l in sigma:
                continue
            pc = classify_prime(curve, l)
            assert (pc.i % 2 == 0) == (kronecker_symbol(disc_int, l) == 1), (name, l)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    assert checked > 1400
    _report(3, f"disc dichotomy exact on {checked} (curve, prime) pairs", elapsed)


def test_acceptance_04_global_consistency(golden_curves):
    """(-1)^(sum h) = prod (d, disc)_v for 500 random d per curve, < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(777)
    flags = squarefree_flags(10**6)
    for name, curve in golden_curves.items():
        for _ in range(500):
            d = 0
            while d == 0 or not flags[abs(d)]:
                d = rng.randint(-(10**6), 10**6)
            assert global_consistency_check(curve, d), (name, d)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(4, "global consistency identity, 2500/2500 exact", elapsed)


def test_acceptance_05_delta_infinity():
    """Brute-force delta at the real place equals the n mod 4 closed form."""
    t0 = time.monotonic()
    rng = random.Random(3141)
    for _ in range(20):
        n = rng.choice((3, 5, 7, 9))
        curve = CurveSpec(f=random_separable_poly(rng, n))
        brute = delta_v(omega_tables(curve)[INF])
        want = Fraction(1) if n % 4 == 1 else Fraction(0)
        assert brute == want == delta_inf_closed_form(n)
    elapsed = time.monotonic() - t0
    _report(5, "delta_inf brute average == closed form, 20/20", elapsed)


def test_acceptance_06_sigma_trivial_preservation(golden_curves):
    """flip = +1 for every Sigma-trivial squarefree |d| <= 1e5, all curves."""
    t0 = time.monotonic()
    flags = squarefree_flags(10**5)
    total = 0
    for name, curve in golden_curves.items():
        sigma = sigma_set(curve)
        tables = omega_tables(curve)
        odd_sigma = sigma[2:]
        for d in range(9, 10**5, 8):  # Sigma-trivial forces d > 0, d = 1 mod 8
            if not flags[d]:
                continue
            if any(kronecker_symbol(d, q) != 1 for q in odd_sigma):
                continue
            assert sigma_trivial(d, sigma)
            verdict = parity_flip(tables, d)
            assert verdict.flip == 1, (name, d)
            total += 1
    elapsed = time.monotonic() - t0
    assert total > 1000
    _report(6, f"Sigma-trivial flips all +1 ({total} twists across 5 curves)", elapsed)


def test_acceptance_07_section8_ingredients():
    """Torsion dims equal 2; the substitution identity passes or is flagged
    with the exact quotient (a silent outcome fails the criterion)."""
    t0 = time.monotonic()
    assert rational_two_torsion_dim(curve_h()) == 2
    assert rational_two_torsion_dim(curve_g()) == 2
    ident = transformation_identity(curve_h().f)
    if ident["identity_holds"]:
        outcome = "identity exact"
    else:
        assert ident["status"] == "mismatch_reported"
        assert ident["quotient_numerator"] == "91*x^2 + 60*x + 10"
        assert ident["quotient_denominator"] == "100*x^2 + 60*x + 1"
        outcome = "flagged mismatch with exact quotient"
    elapsed = time.monotonic() - t0
    _report(7, f"2-torsion dims = 2, substitution check: {outcome}", elapsed)


def test_acceptance_08_density_group_identity():
    """Exhaustive density over norm < 50 equals the local-average prediction.

    Profiles are synthetic h = 0 tables; the real place has balanced
    omega (n = 3 mod 4) so prod delta_v = 0 and the even fraction is
    exactly 1/2 on the full finite group.  All quantities are exact
    rationals; < 60 s.
    """
    t0 = time.monotonic()
    from twistparity.papercases import curve_x3_minus_2

    curve = curve_x3_minus_2()
    profiles = {
        place: (0,) * len(local_classes(place))
        for place in sigma_set(curve)
        if place
    }
    tables = omega_tables(curve, profiles)
    res = exact_scan(tables, 50, 0)
    assert res.mode == "exhaustive" and res.total == 65536
    # the density is the group average of the flip indicator
    assert res.fraction_even == (1 + res.flip_average) / 2
    # and the flip average matches the product of local closed sums
    rep = disparity(tables, 0)
    prod = Fraction(1)
    for v in rep.per_place.values():
        prod *= v
    assert rep.per_place[INF] == 0
    assert res.flip_average == prod == 0
    assert res.fraction_even == Fraction(1, 2)
    assert rep.even_density == Fraction(1, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(8, "exhaustive density = 1/2 = (1 + delta)/2 exactly", elapsed)


def test_acceptance_09_hilbert_product_formula():
    """prod_v (a, b)_v = 1 over 500 random pairs, exact."""
    t0 = time.monotonic()
    rng = random.Random(909)
    for _ in range(500):
        a = rng.randint(-(10**4), 10**4) or 3
        b = rng.randint(-(10**4), 10**4) or -2
        places = {INF, 2}
        for n in (a, b):
            for p in factor_integer(n):
                if p != 2:
                    places.add(p)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
    elapsed = time.monotonic() - t0
    _report(9, "Hilbert product formula, 500/500 pairs", elapsed)


def test_acceptance_10_verify_paper_determinism(capsys):
    """Two verify-paper runs at seed 0 give byte-identical JSON reports."""
    t0 = time.monotonic()
    assert main(["--format", "json", "verify-paper"]) == 0
    a = capsys.readouterr().out
    assert main(["--format", "json", "verify-paper"]) == 0
    b = capsys.readouterr().out
    assert a == b
    assert json.loads(b)["outputs"]["all_passed"] is True
    assert a.encode() == b.encode()
    elapsed = time.monotonic() - t0
    _report(10, "verify-paper reports byte-identical, all checks green", elapsed)
