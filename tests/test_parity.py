"""The parity engine: h at good primes, omega, flips, delta, densities."""

import random
from fractions import Fraction

import pytest

from twistparity.characters import sigma_trivial
from twistparity.curves import CurveSpec
from twistparity.errors import (
    BadPrimeError,
    InvalidInputError,
    ParseError,
    ResourceLimitError,
)
from twistparity.frobenius import classify_prime, sigma_set
from twistparity.files import parse_profiles_text
from twistparity.modular import (
    factor_integer,
    hilbert_symbol,
    is_squarefree,
    local_classes,
    square_class_index,
)
from twistparity.papercases import (
    GOLDEN_CURVES,
    curve_1440d1,
    curve_g,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)
from twistparity.parity import (
    delta_v,
    density_scan,
    disparity,
    echelon,
    exact_scan,
    global_consistency_check,
    omega_tables,
    parity_flip,
)
from twistparity.ratpoly import RatPoly, real_root_signature
from twistparity import parity as parity_module

from conftest import random_separable_poly
from oracles import (
    delta_inf_closed_form,
    enumerate_characters,
    exact_flip_average,
    flip_average_limit,
    local_root_number,
    ramified_primes,
    squarefree_part,
)

INF = 0  # the real place


def zero_profiles(curve):
    """Fully specified h = 0 tables at every finite bad place."""
    out = {}
    for place in sigma_set(curve):
        if place:
            out[place] = (0,) * len(local_classes(place))
    return out


def linear_profile(place, bits):
    """h parities forming a linear functional of the class-group exponents."""
    gens = {
        2: {5: 0, -1: 1, 2: 2},
    }
    table = {}
    if place == 2:
        vecs = {1: (), 5: (5,), -1: (-1,), -5: (5, -1), 2: (2,), 10: (5, 2), -2: (-1, 2), -10: (5, -1, 2)}
        for label, gen_list in vecs.items():
            table[label] = sum(bits[gens[2][g]] for g in gen_list) % 2
    else:
        u, q = local_classes(place)[1], place
        table = {1: 0, u: bits[0], q: bits[1], u * q: (bits[0] + bits[1]) % 2}
    return tuple(table[k] for k in local_classes(place))


def linear_profiles(curve, rng):
    out = {}
    for place in sigma_set(curve):
        if place:
            bits = [rng.randrange(2) for _ in range(3)]
            out[place] = linear_profile(place, bits)
    return out


def omega_by_definition(curve, place, label, table):
    """(-1)^h_v(label) * (label, disc)_v, or None when h is unknown."""
    if place == 0:
        h = 0 if label == 1 else real_root_signature(curve.f)[1] - 1
    else:
        h = 0 if label == 1 else None if table is None else table[local_classes(place).index(label)]
    return None if h is None else (-1) ** h * hilbert_symbol(label, curve.discriminant(), place)


def test_good_prime_h_examples():
    """h_l of a character ramified at a good prime l is the class index of l."""
    c = curve_x3_minus_2()
    assert classify_prime(c, 5).i == 1
    assert classify_prime(c, 7).i == 0
    with pytest.raises(BadPrimeError):
        classify_prime(c, 3)


def test_omega_at_infinity_examples(monkeypatch):
    assert omega_tables(curve_x3_minus_2())[INF] == (1, -1)  # h = 0, disc < 0
    assert omega_tables(curve_h())[INF][1] == 1  # (-1)^1 * (-1)^1
    cg = curve_g()
    assert omega_tables(cg)[INF] == (1, 1)  # k1 = 1 so h = 0, disc a positive square
    # a real-place h read as k1, not k1 - 1, flips that row
    r, k1, k2 = cg.real_root_signature()
    monkeypatch.setattr(CurveSpec, "real_root_signature", lambda self: (r, k1 + 1, k2))
    assert omega_tables(cg)[INF] == (1, -1)


def test_omega_consumes_profile_entries():
    c = curve_x3_minus_2()
    p3 = 3
    assert local_classes(p3) == (1, 2, 3, 6)
    row = omega_tables(c, {p3: (0, 1, None, 0)})[p3]
    assert row[0] == 1
    assert row[1] == -hilbert_symbol(2, -108, p3)  # (-1)^1 * chi(disc)
    assert row[2] is None
    assert row[3] == hilbert_symbol(6, -108, p3)


def test_parity_flip_examples():
    tables = omega_tables(curve_x3_minus_2())
    v = parity_flip(tables, 73)
    assert (v.flip, v.status) == (1, "relative_only")
    v = parity_flip(tables, 1)
    assert (v.flip, v.status) == (1, "exact")
    v = parity_flip(tables, 5)
    assert v.flip is None and v.status == "unknown"
    assert set(v.missing) == {2, 3}
    # nontrivial only at the real place: exact without any user profile
    v = parity_flip(tables, -23)
    assert (v.flip, v.status) == (-1, "exact")


def test_parity_flip_with_full_profiles_is_exact():
    c = curve_x3_minus_2()
    v = parity_flip(omega_tables(c, zero_profiles(c)), 5)
    assert v.status == "exact"
    assert v.flip == hilbert_symbol(5, -108, 2) * hilbert_symbol(
        5, -108, 3
    )


def test_sigma_trivial_twists_of_h_never_flip():
    ch = curve_h()
    sigma = sigma_set(ch)
    tables = omega_tables(ch)
    found = 0
    d = 1
    while found < 25:
        d += 8
        if not is_squarefree(d):
            continue
        if sigma_trivial(d, sigma):
            found += 1
            assert parity_flip(tables, d).flip == 1


def test_global_consistency_spec_example():
    c = curve_x3_minus_2()
    # LHS: 5 is in P_1, so h = 1 and the sign is -1
    assert classify_prime(c, 5).i == 1
    rhs = 1
    for v in sigma_set(c):
        rhs *= hilbert_symbol(5, -108, v)
    assert rhs == -1
    assert global_consistency_check(c, 5)
    assert global_consistency_check(c, 1)


def test_global_consistency_random_sweep():
    rng = random.Random(55)
    ch = curve_h()
    for _ in range(200):
        d = 0
        while d == 0 or not is_squarefree(d):
            d = rng.randint(-(10**6), 10**6)
        assert global_consistency_check(ch, d), d


def test_flip_multiplicative_on_disjoint_ramified_sets():
    """With linear-parity profiles, flip(d) flip(d') = flip(dd')."""
    rng = random.Random(66)
    for curve in (curve_x3_minus_2(), curve_g()):
        tables = omega_tables(curve, linear_profiles(curve, rng))
        pairs = 0
        while pairs < 60:
            a = squarefree_part(rng.randint(1, 5000) * rng.choice((1, -1)))
            b = squarefree_part(rng.randint(1, 5000) * rng.choice((1, -1)))
            if set(ramified_primes(a)) & set(ramified_primes(b)):
                continue
            pairs += 1
            va = parity_flip(tables, a)
            vb = parity_flip(tables, b)
            vab = parity_flip(tables, squarefree_part(a * b))
            assert va.flip * vb.flip == vab.flip, (a, b)


def test_flip_depends_only_on_local_classes():
    c = curve_x3_minus_2()
    tables = omega_tables(c, zero_profiles(c))
    rng = random.Random(10)
    sigma = sigma_set(c)
    seen = {}
    for _ in range(400):
        d = squarefree_part(rng.randint(1, 10**5) * rng.choice((1, -1)))
        key = tuple(square_class_index(d, v) for v in sigma)
        flip = parity_flip(tables, d).flip
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
        brute = delta_v(omega_tables(curve)[INF])
        assert brute == delta_inf_closed_form(n), str(f)


def test_delta_infinity_every_signature_up_to_degree_11():
    """The closed form holds for every odd n <= 11 and every (k1, k2) split."""
    for n in (3, 5, 7, 9, 11):
        for k1 in range(1, (n + 1) // 2 + 1):
            r = 2 * k1 - 1
            f = RatPoly((1,))
            for a in range(r):
                f = f * RatPoly((-a, 1))  # distinct real roots 0..r-1
            for b in range((n - r) // 2):
                f = f * RatPoly((b + 1, 0, 1))  # x^2 + (b+1): no real roots
            curve = CurveSpec(f=f)
            assert real_root_signature(f)[1] == k1
            assert delta_v(omega_tables(curve)[INF]) == delta_inf_closed_form(n), (n, k1)


def test_delta_infinity_brute_force_detail():
    # average over {1, sign} by hand
    c = curve_h()
    w_triv = omega_by_definition(c, INF, 1, None)
    w_sign = omega_by_definition(c, INF, -1, None)
    assert delta_v(omega_tables(c)[INF]) == Fraction(w_triv + w_sign, 2) == 1
    assert delta_v(omega_tables(curve_x3_minus_2())[INF]) == 0


def test_disparity_is_none_on_unknown_entries():
    c = curve_x3_minus_2()
    p3 = 3
    profs = zero_profiles(c)
    assert disparity(omega_tables(c, profs), 0) is not None
    profs[p3] = (0, 1, None, None)
    tables = omega_tables(c, profs)
    unknown = [(p3, label) for label, w in zip(local_classes(p3), tables[p3]) if w is None]
    assert (p3, 3) in unknown and (p3, 6) in unknown
    for r1 in (0, 1):
        assert disparity(tables, r1) is None


def test_disparity_report():
    c = curve_x3_minus_2()
    tables = omega_tables(c, zero_profiles(c))
    rep = disparity(tables, 0)
    prod = Fraction(1)
    for place, v in rep.per_place.items():
        prod *= v
        assert -1 <= v <= 1
        # an average of +-1 over the local class group
        group = 2 if place == 0 else (8 if place == 2 else 4)
        assert (v * group).denominator == 1
    assert rep.delta == prod
    assert -1 <= rep.delta <= 1
    assert rep.even_density == (1 + rep.delta) / 2
    flipped = disparity(tables, 1)
    assert flipped.delta == -rep.delta


def test_density_scan_exhaustive_matches_group_average():
    c = curve_x3_minus_2()
    tables = omega_tables(c, zero_profiles(c))
    res = exact_scan(tables, 50, 0)
    assert res.mode == "exhaustive"
    assert res.total == 1 << 16
    assert res.fraction_even == (1 + res.flip_average) / 2
    rep = disparity(tables, 0)
    prod = Fraction(1)
    for v in rep.per_place.values():
        prod *= v
    assert res.flip_average == prod == 0
    assert res.fraction_even == Fraction(1, 2)


def test_density_scan_r1_parity_shifts_even_fraction():
    c = curve_x3_minus_2()
    tables = omega_tables(c, zero_profiles(c))
    even = exact_scan(tables, 20, 0)
    odd = exact_scan(tables, 20, 1)
    assert even.even_count + odd.even_count == even.total


def test_density_scan_restricted_mode():
    c = curve_x3_minus_2()
    res = exact_scan(omega_tables(c), 50, 0)
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
        place: tuple(0 if k == 1 else rng.randint(0, 1) for k in local_classes(place))
        for place in sigma
        if place
    }
    omega = {
        place: {
            k: omega_by_definition(curve, place, k, complete.get(place))
            for k in local_classes(place)
        }
        for place in sigma
    }
    tables = omega_tables(curve, complete)
    restricted = omega_tables(curve, None)
    assert tables == {place: tuple(row.values()) for place, row in omega.items()}
    flip = {}
    for d in enumerate_characters(30):
        flip[d] = 1
        for place, tab in omega.items():
            flip[d] *= tab[local_classes(place)[square_class_index(d, place)]]
    for bound in range(2, 31):
        chars = enumerate_characters(bound)
        kept = [d for d in chars if sigma_trivial(d, sigma)]
        plus = sum(1 for d in chars if flip[d] == 1)
        for r1 in (0, 1):
            res = exact_scan(restricted, bound, r1)
            assert res.mode == "sigma_trivial_only"
            assert (res.total, res.even_count) == (len(kept), len(kept) * (1 - r1))
            res = exact_scan(tables, bound, r1)
            even = plus if r1 == 0 else len(chars) - plus
            assert res.mode == "exhaustive"
            assert (res.total, res.even_count) == (len(chars), even), (bound, r1)
            assert res.fraction_even == Fraction(even, len(chars))
            assert res.flip_average == Fraction(sum(flip[d] for d in chars), len(chars))


def test_density_scan_exact_resource_limits():
    c = curve_x3_minus_2()
    # generators -1, 2 and the 17,983 odd primes below 200,000: no cap on k
    res = exact_scan(omega_tables(c, zero_profiles(c)), 200_000, 0)
    assert res.mode == "exhaustive" and res.total == 1 << 17_985
    with pytest.raises(ResourceLimitError):
        parity_module._image_sum(echelon(1 << i for i in range(21)), [])


def test_density_scan_monte_carlo_deterministic():
    c = curve_x3_minus_2()
    tables = omega_tables(c, zero_profiles(c))
    a = density_scan(tables, 300, 10**5, 0, 7)
    b = density_scan(tables, 300, 10**5, 0, 7)
    assert a == b
    assert a.mode == "monte_carlo" and a.total == 300
    # delta = 0 here: the sampled even fraction should hover around 1/2
    assert Fraction(1, 4) < a.fraction_even < Fraction(3, 4)


def test_density_scan_argument_validation():
    c = curve_x3_minus_2()
    for profiles in (None, zero_profiles(c)):  # restricted and complete
        tables = omega_tables(c, profiles)
        with pytest.raises(InvalidInputError):
            density_scan(tables, 0, 100, 0, 0)
        with pytest.raises(InvalidInputError):
            density_scan(tables, 5, 1, 0, 0)
        with pytest.raises(InvalidInputError):
            exact_scan(tables, 1, 0)


def test_local_profile_validation():
    """A place's h table: canonical labels only, h = 0 at the trivial class,
    None where unknown, in ``local_classes`` order."""
    with pytest.raises(ParseError):
        parse_profiles_text("place = 3\nh[4] = 0\n")  # 4 is not a canonical label at 3
    with pytest.raises(ParseError):
        parse_profiles_text("place = 3\nh[1] = 2\n")  # trivial class must have h = 0
    p3 = 3
    assert parse_profiles_text("place = 3\nh[2] = 1\n") == {p3: (0, 1, None, None)}
    assert parse_profiles_text("place = 3\nh[6] = 1\nh[1] = unknown\n") == {p3: (0, None, None, 1)}


def test_infinity_profile_auto_fill():
    """The real place's h is auto-filled: h(sign) = k1 - 1."""
    c = curve_h()
    r, k1, k2 = real_root_signature(c.f)
    assert (r, k1, k2) == (3, 2, 1)
    sign = hilbert_symbol(-1, c.discriminant(), INF)
    assert omega_tables(c)[INF] == (1, (-1) ** (k1 - 1) * sign)
    assert omega_tables(c, {INF: (0, 0)})[INF] == (1, -sign)  # a supplied table is not read


# ---------------------------------------------------------------------------
# the natural density of the flip, against an exact count over every squarefree d


def _random_complete_tables(curve, rng):
    """The omega table of curve under a random h table at each finite place of Sigma."""
    profiles = {
        q: (0, *(rng.randint(0, 1) for _ in local_classes(q)[1:])) for q in sigma_set(curve)[1:]
    }
    return omega_tables(curve, profiles)


def test_flip_average_limit_matches_the_exact_squarefree_average():
    """On g_quintic (Sigma = {inf, 2, 3}) the closed form of the average
    flip agrees with the exact average over the squarefree |d| <= 10^5 to
    within 10^-3; with uniform masses, the weighting of disparity's delta,
    it misses by more than 10^-1."""
    curve, rng = curve_g(), random.Random(22)
    assert sigma_set(curve) == (0, 2, 3)

    def uniform(place):
        return (Fraction(1, len(local_classes(place))),) * len(local_classes(place))

    misses = []
    for _ in range(6):
        tables = _random_complete_tables(curve, rng)
        exact = exact_flip_average(tables, 10**5)
        assert abs(flip_average_limit(tables) - exact) < Fraction(1, 1000), tables
        misses.append(abs(flip_average_limit(tables, uniform) - exact))
    assert max(misses) > Fraction(1, 10), misses


@pytest.mark.parametrize("make", [curve_x3_minus_2, curve_1440d1], ids=["x3_minus_2", "cubic_1440d1"])
def test_real_row_of_opposite_signs_makes_the_flip_average_zero(make):
    """The real-place row (1, -1) makes the limit 0 for every complete
    profile, and the sampled scan's flip average over 5,000 draws is within
    4 standard errors of it for seeds 0 to 4."""
    curve, rng = make(), random.Random(make.__name__)
    tables = _random_complete_tables(curve, rng)
    assert tables[0] == (1, -1)
    for _ in range(6):
        assert flip_average_limit(_random_complete_tables(curve, rng)) == 0
    for seed in range(5):
        average = density_scan(tables, 5000, 10**6, 0, seed).flip_average
        assert abs(average) < 4 / 5000**0.5, (seed, average)


# elliptic curves y^2 = f(x), with h profiles derived from local points at odd bad primes
_ROOT_NUMBER_CURVES = {
    "x3_minus_2": (curve_x3_minus_2, {}),
    "cubic_1440d1": (curve_1440d1, {5: (0, 1, 2, 2)}),
    "x^3-x": (lambda: CurveSpec(f=RatPoly((0, -1, 0, 1))), {}),
    "x^3-17x": (lambda: CurveSpec(f=RatPoly((0, -17, 0, 1))), {17: (0, 1, 0, 1)}),
    "x^3+5x+7": (lambda: CurveSpec(f=RatPoly((7, 5, 0, 1))), {}),
    "3x^3-7x+11": (lambda: CurveSpec(f=RatPoly((11, -7, 0, 3))), {}),
}


def _root_number_mismatches(curve, profiles):
    """The (place, d) at which omega_v(d) differs from w_v(E) w_v(E^d) (d, -1)_v,
    the Kramer-Tunnell identity (Compositio Math. 1982), over the squarefree
    d != 1 with |d| <= 400: at the real place, where w = -1; at each good
    p >= 5 dividing d, where omega is (-1)^(class index) (d, disc)_p; and at
    each place of ``profiles``.  w_p comes from Rohrlich's rules."""
    tables, sigma, disc = omega_tables(curve, profiles), sigma_set(curve), curve.discriminant()
    w = {p: local_root_number(curve.f, p) for p in profiles}
    out = []
    for d in range(-400, 401):
        if d in (0, 1) or not is_squarefree(d):
            continue
        twist = RatPoly([d * c for c in curve.f.coeffs])
        if tables[INF][square_class_index(d, INF)] != -1 * -1 * (-1 if d < 0 else 1):
            out.append((INF, d))
        for p in factor_integer(abs(d)):
            if p >= 5 and p not in sigma:
                omega = (-1) ** classify_prime(curve, p).i * hilbert_symbol(d, disc, p)
                if omega != local_root_number(twist, p) * (-1 if p % 4 == 3 else 1):
                    out.append((p, d))
        for p in profiles:
            minus_one = -1 if d % p == 0 and p % 4 == 3 else 1
            if tables[p][square_class_index(d, p)] != w[p] * local_root_number(twist, p) * minus_one:
                out.append((p, d))
    return out


@pytest.mark.parametrize("name", list(_ROOT_NUMBER_CURVES))
def test_omega_is_a_product_of_root_numbers(name):
    make, profiles = _ROOT_NUMBER_CURVES[name]
    assert _root_number_mismatches(make(), profiles) == []


def test_the_zero_profile_at_17_disagrees_with_root_numbers():
    """On y^2 = x^3 - 17x the Hilbert factor at 17 is not trivial, and the
    profile h_17 = 0 misses the root numbers."""
    curve = CurveSpec(f=RatPoly((0, -17, 0, 1)))
    assert {p for p, _ in _root_number_mismatches(curve, {17: (0, 0, 0, 0)})} == {17}
