"""The parity engine: h at good primes, omega, flips, delta, densities."""

import random
from fractions import Fraction

import pytest

from twistparity.characters import QuadTwist, local_classes, local_square_class, sigma_trivial
from twistparity.curves import CurveSpec
from twistparity.errors import (
    BadPrimeError,
    InvalidInputError,
    ResourceLimitError,
    UnknownProfileError,
)
from twistparity.frobenius import classify_prime, sigma_set
from twistparity.modular import Place, hilbert_symbol, is_squarefree
from twistparity.papercases import (
    GOLDEN_CURVES,
    curve_1440d1,
    curve_g,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)
from twistparity.parity import (
    LocalProfile,
    delta_inf_closed_form,
    delta_v,
    density_scan,
    disparity,
    global_consistency_check,
    infinity_profile,
    omega_tables,
    parity_flip,
)
from twistparity.metabolic import Subspace
from twistparity.ratpoly import RatPoly, real_root_signature
from twistparity import parity as parity_module

from conftest import random_separable_poly
from oracles import enumerate_characters

INF = Place.infinity()


def zero_profiles(curve):
    """Fully specified h = 0 tables at every finite bad place."""
    out = {}
    for place in sigma_set(curve).iter_places():
        if not place.is_infinity:
            out[place] = LocalProfile(place, {k: 0 for k in local_classes(place)})
    return out


def linear_profile(place, bits):
    """h parities forming a linear functional of the class-group exponents."""
    gens = {
        2: {5: 0, -1: 1, 2: 2},
    }
    table = {}
    if place.q == 2:
        vecs = {1: (), 5: (5,), -1: (-1,), -5: (5, -1), 2: (2,), 10: (5, 2), -2: (-1, 2), -10: (5, -1, 2)}
        for label, gen_list in vecs.items():
            table[label] = sum(bits[gens[2][g]] for g in gen_list) % 2
    else:
        u, q = local_classes(place)[1], place.q
        table = {1: 0, u: bits[0], q: bits[1], u * q: (bits[0] + bits[1]) % 2}
    return LocalProfile(place, table)


def linear_profiles(curve, rng):
    out = {}
    for place in sigma_set(curve).iter_places():
        if not place.is_infinity:
            bits = [rng.randrange(2) for _ in range(3)]
            out[place] = linear_profile(place, bits)
    return out


def omega_by_definition(curve, place, label, profile):
    """(-1)^h_v(label) * (label, disc)_v, or None when h is unknown."""
    if place.is_infinity:
        h = 0 if label == 1 else real_root_signature(curve.f)[1] - 1
    else:
        h = 0 if label == 1 else None if profile is None else profile.h(label)
    return None if h is None else (-1) ** h * hilbert_symbol(label, curve.discriminant(), place)


def test_good_prime_h_examples():
    """h_l of a character ramified at a good prime l is the class index of l."""
    c = curve_x3_minus_2()
    assert classify_prime(c, 5).i == 1
    assert classify_prime(c, 7).i == 0
    with pytest.raises(BadPrimeError):
        classify_prime(c, 3)


def test_omega_at_infinity_examples():
    assert omega_tables(curve_x3_minus_2())[INF] == {1: 1, -1: -1}  # h = 0, disc < 0
    assert omega_tables(curve_h())[INF][-1] == 1  # (-1)^1 * (-1)^1


def test_omega_consumes_profile_entries():
    c = curve_x3_minus_2()
    p3 = Place.finite(3)
    prof = LocalProfile(p3, {1: 0, 2: 1, 3: None, 6: 0})
    row = omega_tables(c, {p3: prof})[p3]
    assert row[1] == 1
    assert row[2] == -hilbert_symbol(2, -108, p3)  # (-1)^1 * chi(disc)
    assert row[3] is None
    assert row[6] == hilbert_symbol(6, -108, p3)


def test_parity_flip_examples():
    c = curve_x3_minus_2()
    v = parity_flip(c, QuadTwist(73))
    assert (v.flip, v.status) == (1, "relative_only")
    v = parity_flip(c, QuadTwist(1))
    assert (v.flip, v.status) == (1, "exact")
    v = parity_flip(c, QuadTwist(5))
    assert v.flip is None and v.status == "unknown"
    assert set(v.missing) == {Place.finite(2), Place.finite(3)}
    # nontrivial only at the real place: exact without any user profile
    v = parity_flip(c, QuadTwist(-23))
    assert (v.flip, v.status) == (-1, "exact")


def test_parity_flip_with_full_profiles_is_exact():
    c = curve_x3_minus_2()
    prof = zero_profiles(c)
    v = parity_flip(c, QuadTwist(5), prof)
    assert v.status == "exact"
    assert v.flip == hilbert_symbol(5, -108, Place.finite(2)) * hilbert_symbol(
        5, -108, Place.finite(3)
    )


def test_sigma_trivial_twists_of_h_never_flip():
    ch = curve_h()
    sigma = sigma_set(ch)
    found = 0
    d = 1
    while found < 25:
        d += 8
        if not is_squarefree(d):
            continue
        t = QuadTwist(d)
        if sigma_trivial(t, sigma):
            found += 1
            assert parity_flip(ch, t).flip == 1


def test_global_consistency_spec_example():
    c = curve_x3_minus_2()
    # LHS: 5 is in P_1, so h = 1 and the sign is -1
    assert classify_prime(c, 5).i == 1
    rhs = 1
    for v in sigma_set(c).iter_places():
        rhs *= hilbert_symbol(5, -108, v)
    assert rhs == -1
    assert global_consistency_check(c, QuadTwist(5))
    assert global_consistency_check(c, QuadTwist(1))


def test_global_consistency_random_sweep():
    rng = random.Random(55)
    ch = curve_h()
    for _ in range(200):
        d = 0
        while d == 0 or not is_squarefree(d):
            d = rng.randint(-(10**6), 10**6)
        assert global_consistency_check(ch, QuadTwist(d)), d


def test_flip_multiplicative_on_disjoint_ramified_sets():
    """With linear-parity profiles, flip(d) flip(d') = flip(dd')."""
    rng = random.Random(66)
    for curve in (curve_x3_minus_2(), curve_g()):
        profs = linear_profiles(curve, rng)
        pairs = 0
        while pairs < 60:
            a = QuadTwist.of(rng.randint(1, 5000) * rng.choice((1, -1)))
            b = QuadTwist.of(rng.randint(1, 5000) * rng.choice((1, -1)))
            if set(a.ramified_primes()) & set(b.ramified_primes()):
                continue
            pairs += 1
            va = parity_flip(curve, a, profs)
            vb = parity_flip(curve, b, profs)
            vab = parity_flip(curve, a * b, profs)
            assert va.flip * vb.flip == vab.flip, (a.d, b.d)


def test_flip_depends_only_on_local_classes():
    c = curve_x3_minus_2()
    profs = zero_profiles(c)
    rng = random.Random(10)
    sigma = sigma_set(c)
    seen = {}
    for _ in range(400):
        d = QuadTwist.of(rng.randint(1, 10**5) * rng.choice((1, -1)))
        key = tuple(local_square_class(d, v) for v in sigma.iter_places())
        flip = parity_flip(c, d, profs).flip
        if key in seen:
            assert seen[key] == flip, (key, d)
        else:
            seen[key] = flip
    assert len(seen) > 30  # the scan actually hit many distinct class vectors


def test_delta_infinity_closed_form_matches_brute_average():
    rng = random.Random(20)
    count = 0
    while count < 20:
        n = rng.choice((3, 5, 7, 9, 11))
        f = random_separable_poly(rng, n)
        count += 1
        curve = CurveSpec(f=f)
        brute = delta_v(curve, INF, None)
        assert brute == delta_inf_closed_form(n), str(f)


def test_delta_infinity_every_signature_up_to_degree_11():
    """The closed form holds for every odd n <= 11 and every (k1, k2) split."""
    for n in (3, 5, 7, 9, 11):
        for k1 in range(1, (n + 1) // 2 + 1):
            r = 2 * k1 - 1
            f = RatPoly.one()
            for a in range(r):
                f = f * RatPoly((-a, 1))  # distinct real roots 0..r-1
            for b in range((n - r) // 2):
                f = f * RatPoly((b + 1, 0, 1))  # x^2 + (b+1): no real roots
            curve = CurveSpec(f=f)
            assert real_root_signature(f)[1] == k1
            assert delta_v(curve, INF, None) == delta_inf_closed_form(n), (n, k1)


def test_delta_infinity_brute_force_detail():
    # average over {1, sign} by hand
    c = curve_h()
    w_triv = omega_by_definition(c, INF, 1, None)
    w_sign = omega_by_definition(c, INF, -1, None)
    assert delta_v(c, INF, None) == Fraction(w_triv + w_sign, 2) == 1
    assert delta_v(curve_x3_minus_2(), INF, None) == 0


def test_delta_v_reports_unknown_entries():
    c = curve_x3_minus_2()
    p3 = Place.finite(3)
    prof = LocalProfile(p3, {1: 0, 2: 1})
    with pytest.raises(UnknownProfileError) as err:
        delta_v(c, p3, prof)
    assert (p3, 3) in err.value.missing and (p3, 6) in err.value.missing


def test_disparity_report():
    c = curve_x3_minus_2()
    profs = zero_profiles(c)
    rep = disparity(c, profs, 0)
    prod = Fraction(1)
    for place, v in rep.per_place.items():
        prod *= v
        assert -1 <= v <= 1
        # an average of +-1 over the local class group
        group = 2 if place.is_infinity else (8 if place.q == 2 else 4)
        assert (v * group).denominator == 1
    assert rep.delta == prod
    assert -1 <= rep.delta <= 1
    assert rep.even_density == (1 + rep.delta) / 2
    flipped = disparity(c, profs, 1)
    assert flipped.delta == -rep.delta


def test_density_scan_exhaustive_matches_group_average():
    c = curve_x3_minus_2()
    profs = zero_profiles(c)
    res = density_scan(c, profs, max_norm=50)
    assert res.mode == "exhaustive"
    assert res.total == 1 << 16
    assert res.fraction_even == (1 + res.flip_average) / 2
    rep = disparity(c, profs, 0)
    prod = Fraction(1)
    for v in rep.per_place.values():
        prod *= v
    assert res.flip_average == prod == 0
    assert res.fraction_even == Fraction(1, 2)


def test_density_scan_r1_parity_shifts_even_fraction():
    c = curve_x3_minus_2()
    profs = zero_profiles(c)
    even = density_scan(c, profs, max_norm=20, r1_parity=0)
    odd = density_scan(c, profs, max_norm=20, r1_parity=1)
    assert even.even_count + odd.even_count == even.total


def test_density_scan_restricted_mode():
    c = curve_x3_minus_2()
    res = density_scan(c, None, max_norm=50)
    assert res.mode == "sigma_trivial_only"
    assert res.fraction_even == 1
    assert res.warning


@pytest.mark.parametrize("name", sorted(GOLDEN_CURVES))
def test_density_scan_exact_counts_match_enumeration(name):
    """Exact counts equal a walk over every character, for bounds 2..30."""
    curve = GOLDEN_CURVES[name]()
    sigma = sigma_set(curve)
    rng = random.Random(name)
    complete = {
        place: LocalProfile(place, {k: 0 if k == 1 else rng.randint(0, 1) for k in local_classes(place)})
        for place in sigma.iter_places()
        if not place.is_infinity
    }
    omega = {
        place: {
            k: omega_by_definition(curve, place, k, complete.get(place))
            for k in local_classes(place)
        }
        for place in sigma.iter_places()
    }
    tables = omega_tables(curve, complete)
    assert tables == omega
    assert all(tuple(row) == local_classes(place) for place, row in tables.items())
    flip = {}
    for d in enumerate_characters(30):
        flip[d] = 1
        for place, tab in omega.items():
            flip[d] *= tab[local_square_class(d, place)]
    for bound in range(2, 31):
        chars = enumerate_characters(bound)
        kept = [d for d in chars if sigma_trivial(d, sigma)]
        plus = sum(1 for d in chars if flip[d] == 1)
        for r1 in (0, 1):
            res = density_scan(curve, None, max_norm=bound, r1_parity=r1)
            assert res.mode == "sigma_trivial_only"
            assert (res.total, res.even_count) == (len(kept), len(kept) * (1 - r1))
            res = density_scan(curve, complete, max_norm=bound, r1_parity=r1)
            even = plus if r1 == 0 else len(chars) - plus
            assert res.mode == "exhaustive"
            assert (res.total, res.even_count) == (len(chars), even), (bound, r1)
            assert res.fraction_even == Fraction(even, len(chars))
            assert res.flip_average == Fraction(sum(flip[d] for d in chars), len(chars))


def test_density_scan_exact_resource_limits():
    c = curve_x3_minus_2()
    # generators -1, 2 and the 17,983 odd primes below 200,000: no cap on k
    res = density_scan(c, zero_profiles(c), max_norm=200_000)
    assert res.mode == "exhaustive" and res.total == 1 << 17_985
    with pytest.raises(ResourceLimitError):
        parity_module._image_sum(Subspace.from_vectors(1 << i for i in range(21)), [])


def test_density_scan_monte_carlo_deterministic():
    c = curve_x3_minus_2()
    profs = zero_profiles(c)
    a = density_scan(c, profs, sample=300, bound=10**5, seed=7)
    b = density_scan(c, profs, sample=300, bound=10**5, seed=7)
    assert a == b
    assert a.mode == "monte_carlo" and a.total == 300
    # delta = 0 here: the sampled even fraction should hover around 1/2
    assert Fraction(1, 4) < a.fraction_even < Fraction(3, 4)


def test_density_scan_argument_validation():
    c = curve_x3_minus_2()
    with pytest.raises(InvalidInputError):
        density_scan(c, None)
    with pytest.raises(InvalidInputError):
        density_scan(c, None, max_norm=10, sample=5)
    for profiles in (None, zero_profiles(c)):  # restricted and complete
        with pytest.raises(InvalidInputError):
            density_scan(c, profiles, sample=0, bound=100)


def test_local_profile_validation():
    p3 = Place.finite(3)
    with pytest.raises(InvalidInputError):
        LocalProfile(p3, {4: 0})  # 4 is not a canonical label at 3
    with pytest.raises(InvalidInputError):
        LocalProfile(p3, {1: 2})  # trivial class must have h = 0
    prof = LocalProfile(p3, {2: 1})
    assert prof.h(1) == 0
    assert prof.h(2) == 1
    assert prof.h(3) is None


def test_infinity_profile_auto_fill():
    prof = infinity_profile(curve_h())
    assert prof.h(1) == 0
    assert prof.h(-1) == 1  # k1 - 1 with k1 = 2
    r, k1, k2 = real_root_signature(curve_h().f)
    assert (r, k1, k2) == (3, 2, 1)
