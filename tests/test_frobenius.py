"""Sigma sets, prime classification, the disc dichotomy, Galois labels."""

import errno
import itertools
import math
import os
import random
import signal
from fractions import Fraction

import pytest

from twistparity.curves import CurveSpec, curve_hash
from twistparity.errors import BadPrimeError
from twistparity import frobenius
from twistparity.frobenius import (
    PrimeCache,
    PrimeClass,
    classify_prime,
    disc_is_square,
    galois_classify,
    prime_scan,
    sigma_set,
)
from twistparity.modular import iter_primes, kronecker_symbol
from twistparity.papercases import (
    curve_1440d1,
    curve_g,
    curve_h,
    curve_s5_quintic,
    curve_x3_minus_2,
)
from twistparity.ratpoly import RatPoly, discriminant
from twistparity.torsion import cycle_lengths

from oracles import load_prime_cache_whole


def test_sigma_set_examples():
    assert sigma_set(curve_x3_minus_2()) == (0, 2, 3)
    assert sigma_set(curve_1440d1()) == (0, 2, 3, 5)
    h_sigma = set(sigma_set(curve_h()))
    assert {0, 2, 3, 5, 7, 13} <= h_sigma
    assert sigma_set(curve_g()) == (0, 2, 3)
    assert sigma_set(curve_s5_quintic()) == (0, 2, 19, 151)


def test_sigma_includes_denominator_primes():
    from fractions import Fraction

    c = CurveSpec(f=RatPoly((Fraction(1, 7), 0, 0, 1)))
    assert 7 in sigma_set(c)


def test_sigma_set_matches_sympy_on_rational_coefficients():
    """{2} plus the primes of lead, denominators and disc, by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(61)
    checked = 0
    while checked < 24:
        degree = rng.choice((3, 5))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1)]
        f = RatPoly(coeffs)
        if f.degree != degree or discriminant(f) == 0:
            continue
        checked += 1
        sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
        want = {2}
        for n in (f.lead.numerator, *(c.denominator for c in f.coeffs),
                  sympy.fraction(sympy.discriminant(sym))[0]):
            want.update(sympy.primefactors(n))
        assert sigma_set(CurveSpec(f=f)) == (0, *sorted(want)), f


def test_classify_prime_examples():
    c = curve_x3_minus_2()
    assert classify_prime(c, 5).lengths == (1, 2)
    assert classify_prime(c, 5).i == 1
    assert classify_prime(c, 7).lengths == (3,)
    assert classify_prime(c, 7).i == 0
    assert classify_prime(c, 31).lengths == (1, 1, 1)
    assert classify_prime(c, 31).i == 2
    with pytest.raises(BadPrimeError):
        classify_prime(c, 3)


def test_dichotomy_class_parity_vs_disc_symbol(golden_curves):
    """class index even iff (disc | l) = +1, for all good odd l <= 2000."""
    for name, curve in golden_curves.items():
        disc_num = (
            curve.discriminant().numerator * curve.discriminant().denominator
        )
        sigma = sigma_set(curve)
        for l in iter_primes(2, 2001):
            if l == 2 or l in sigma:
                continue
            pc = classify_prime(curve, l)
            assert (pc.i % 2 == 0) == (kronecker_symbol(disc_num, l) == 1), (name, l)


def test_class_parity_is_permutation_sign():
    rng = random.Random(15)
    for _ in range(300):
        n = rng.choice((3, 5, 7, 9))
        images = list(range(n))
        rng.shuffle(images)
        lengths = cycle_lengths(images)
        i = len(lengths) - 1
        sign = (-1) ** sum(m - 1 for m in lengths)
        assert (-1) ** i == sign * (-1) ** (n - 1)


def test_square_disc_curve_has_only_even_classes():
    c = curve_1440d1()
    assert disc_is_square(c)
    for pc in prime_scan(c, 1000):
        assert pc.i % 2 == 0


def test_s3_cycle_type_distribution():
    """Empirical Chebotarev for x^3 - 2: frequencies near (1/6, 1/2, 1/3)."""
    c = curve_x3_minus_2()
    counts = {(1, 1, 1): 0, (1, 2): 0, (3,): 0}
    total = 0
    for pc in prime_scan(c, 10**5):
        counts[pc.lengths] += 1
        total += 1
    assert total > 9000
    assert abs(counts[(1, 1, 1)] / total - 1 / 6) < 0.02
    assert abs(counts[(1, 2)] / total - 1 / 2) < 0.02
    assert abs(counts[(3,)] / total - 1 / 3) < 0.02


def test_prime_scan_p0_primes_below_50():
    c = curve_x3_minus_2()
    got = [pc.l for pc in prime_scan(c, 50) if pc.i == 0]
    assert got == [7, 13, 19, 37]


def test_prime_scan_p2_one_mod_8_below_500():
    c = curve_x3_minus_2()
    got = [pc.l for pc in prime_scan(c, 501, prime_filter=lambda l: l % 8 == 1) if pc.i == 2]
    assert got == [433, 457]
    assert [pc.l for pc in prime_scan(c, 501, m=8) if pc.i == 2] == got


def test_prime_scan_empty_range():
    assert list(prime_scan(curve_x3_minus_2(), 2)) == []


def test_cache_roundtrip_and_truncation(tmp_path):
    path = str(tmp_path / "primes.cache")
    c = curve_x3_minus_2()
    with PrimeCache(path) as cache:
        first = [classify_prime(c, l, cache=cache) for l in (5, 7, 11, 13)]
    # reload: values come from the file and match a fresh computation
    with PrimeCache(path) as cache2:
        again = [classify_prime(c, l, cache=cache2) for l in (5, 7, 11, 13)]
    assert [pc.lengths for pc in first] == [pc.lengths for pc in again]

    with open(path, "a", encoding="utf-8") as fh:
        fh.write("deadbeef 17 torn-rec")  # corrupt trailing record, no newline
    cache3 = PrimeCache(path)
    assert cache3.get("deadbeef", 17) is None
    with open(path, "r", encoding="utf-8") as fh:
        assert "torn-rec" not in fh.read()  # truncated back to the valid prefix
    # cache deletion changes nothing about reported values
    os.remove(path)
    fresh = [classify_prime(c, l) for l in (5, 7, 11, 13)]
    assert [pc.lengths for pc in fresh] == [pc.lengths for pc in first]


def test_poisoned_cache_record_is_recomputed(tmp_path):
    c = curve_x3_minus_2()
    key = curve_hash(c)
    path = tmp_path / "primes.cache"
    path.write_text(f"{key} 7 1,1\n")  # two lengths on a cubic
    with PrimeCache(str(path)) as cache:
        pc = classify_prime(c, 7, cache=cache)
    assert pc.lengths == (3,) and pc.i == 0
    # the corrected record is appended and wins on the next load
    assert path.read_text().splitlines() == [f"{key} 7 1,1", f"{key} 7 3"]
    assert PrimeCache(str(path)).get(key, 7) == (3,)


# lines that are not records
_JUNK = ("", "garbage", "h 5", "h 5 1 2", "h x 1,2", "h 5 0,1", "h 5 1,,2", "h 5 -1", "\t",
         "h 5 1,2\x0c", "\x0bh 5 1,2", "h 5 1\u20282", "h\x1c5 1,2", "é 5")
# bytes that no UTF-8 text holds: lone continuation or lead bytes, a cut sequence
_NOT_UTF8 = (b"\xff", b"\xfe\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"5\xff 1")
# records spelt as no put writes them
_ODD_RECORDS = ("h  5\t1,2 ", "h +7 3", "h \u0665 1,2", "h 1_1 2,1", "é 5 1")


def _cache_text(rng, keys):
    """A random cache file: records of several curve hashes over a few
    primes, so keys repeat, perhaps with a junk or odd line, a torn or
    unterminated last line, and \\n, \\r\\n or \\r line endings."""
    lines = []
    for _ in range(rng.randint(0, 10)):
        lengths = ",".join(str(rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        lines.append(f"{rng.choice(keys)} {rng.choice((3, 5, 7, 11))} {lengths}")
    for extra in (_JUNK, _ODD_RECORDS):
        if rng.random() < 0.3:
            lines.insert(rng.randint(0, len(lines)), rng.choice(extra))
    ends = [rng.choice(("\n", "\n", "\r\n", "\r")) for _ in lines]
    if rng.random() < 0.8:  # one ending for the whole file
        ends = [ends[0]] * len(ends) if ends else []
    text = "".join(line + end for line, end in zip(lines, ends))
    cut = rng.random()
    if text and cut < 0.2:  # torn while writing its last record
        text = text[: rng.randrange(len(text))]
    elif lines and cut < 0.35:  # the last record lost its newline
        text = text[: len(text) - len(ends[-1])]
    return text


def test_cache_load_matches_the_whole_text_oracle(tmp_path):
    """Line by line, the loader keeps the records and leaves the bytes that
    reading the whole file and splitting it at each newline keeps and leaves."""
    rng = random.Random(2024)
    spoil = random.Random(7)  # bytes that are not UTF-8, spliced into a copy of some files
    keys = ["%016x" % rng.getrandbits(64) for _ in range(3)]
    ours, oracle = tmp_path / "ours", tmp_path / "oracle"
    truncated = kept_as_is = spoilt = 0
    for _ in range(1500):
        data = _cache_text(rng, keys).encode()
        files = [data]
        if spoil.random() < 0.2:
            at = spoil.randint(0, len(data))
            files.append(data[:at] + spoil.choice(_NOT_UTF8) + data[at:])
        for data in files:
            ours.write_bytes(data)
            oracle.write_bytes(data)
            want = load_prime_cache_whole(oracle)
            cache = PrimeCache(str(ours))
            got = {(h, l): t for h, by_l in cache._mem.items() for l, t in by_l.items()}
            assert got == want, data
            assert ours.read_bytes() == oracle.read_bytes(), data
            if oracle.read_bytes() == data:
                kept_as_is += 1
            else:
                truncated += 1
        spoilt += len(files) - 1
    assert truncated > 300 and kept_as_is > 300 and spoilt > 200


@pytest.mark.parametrize("data, kept", [
    (b"h 5 1,2\r\nh 7 3\r\n", b"h 5 1,2\r\nh 7 3\r\n"),  # CRLF: every record and byte
    (b"h 5 1,2\nh 7 3", b"h 5 1,2\n"),  # a last line without its newline is torn
])
def test_cache_keeps_only_newline_ended_records(tmp_path, data, kept):
    path = tmp_path / "c"
    path.write_bytes(data)
    cache = PrimeCache(str(path))
    assert path.read_bytes() == kept
    assert cache.get("h", 5) == (1, 2)
    assert cache.get("h", 7) == ((3,) if kept == data else None)


def _spy_on_writes(monkeypatch):
    """The list of each mode the cache opens a file in and each truncate it calls.

    A suite run as root ignores file modes, so a read-only file would not
    show a write."""
    calls = []
    real_open, real_truncate = open, os.truncate

    def spy_open(file, mode="r", *args, **kwargs):
        calls.append(("open", mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_truncate(*args):
        calls.append(("truncate", *args))
        return real_truncate(*args)

    monkeypatch.setattr(frobenius, "open", spy_open, raising=False)
    monkeypatch.setattr(os, "truncate", spy_truncate)
    return calls


def test_cache_reloads_what_put_wrote_by_reading_only(tmp_path, monkeypatch):
    path = tmp_path / "c"
    with PrimeCache(str(path)) as cache:
        cache.put("a" * 16, 5, (1, 2))
        cache.put("a" * 16, 5, [3])  # a later record overrides
        cache.put("b" * 16, 7, (1, 1, 1))
    written = path.read_bytes()
    calls = _spy_on_writes(monkeypatch)
    again = PrimeCache(str(path))
    assert calls == [("open", "rb")]
    assert again._mem == cache._mem == {"a" * 16: {5: (3,)}, "b" * 16: {7: (1, 1, 1)}}
    assert path.read_bytes() == written


def test_cache_put_after_a_truncating_load_appends_after_the_records(tmp_path):
    path = tmp_path / "c"
    path.write_bytes(b"h 5 1,2\nnot a record\nh 7 3\n")
    with PrimeCache(str(path)) as cache:
        cache.put("h", 11, (1, 1, 1))
    assert path.read_bytes() == b"h 5 1,2\nh 11 1,1,1\n"


def test_cache_shares_one_tuple_per_cycle_type(tmp_path):
    path = tmp_path / "c"
    keys = ("a" * 16, "b" * 16)
    path.write_text("".join(f"{h} {l} 1,2,2\n" for h in keys for l in (5, 7, 11)))
    with PrimeCache(str(path)) as cache:
        cache.put(keys[0], 13, [1, 2, 2])
        cache.put(keys[1], 17, (1, 4))
        cache.put(keys[0], 19, [1, 4])
        got = [cache.get(h, l) for h in keys for l in (5, 7, 11)] + [cache.get(keys[0], 13)]
        assert len({id(t) for t in got}) == 1 and got[0] == (1, 2, 2)
        assert cache.get(keys[1], 17) is cache.get(keys[0], 19)


def test_galois_classify_examples():
    assert galois_classify(curve_x3_minus_2(), 100)[0] == "Sn_certified"
    label, evidence = galois_classify(curve_1440d1(), 100)
    assert label == "unknown"
    assert "reducible" in evidence["note"]
    assert galois_classify(curve_h(), 500)[0] == "unknown"
    assert galois_classify(curve_s5_quintic(), 300)[0] == "Sn_certified"


def test_galois_classify_an_side():
    # x^3 + x^2 - 2x - 1: cyclic cubic, disc 49
    c = CurveSpec(f=RatPoly((-1, -2, 1, 1)))
    assert disc_is_square(c)
    assert galois_classify(c, 200)[0] == "An_certified"
    # with a tiny sample bound nothing can be certified
    assert galois_classify(c, 12)[0] in ("inside_An", "An_certified")


def test_galois_classify_agrees_with_sympy_galois_group():
    """A certified label never disagrees with sympy's Galois group."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    named = {
        x**3 - 3 * x + 1: "A3",
        x**3 - 7 * x - 7: "A3",
        x**3 - x - 1: "S3",
        x**5 - 5 * x + 12: "D5",
        x**5 + 20 * x + 16: "A5",
        x**5 - 2: "M20",
        x**5 + x**4 - 4 * x**3 - 3 * x**2 + 3 * x + 1: "C5",
        x**5 - x - 1: "S5",
    }
    cases = [(sympy.Poly(e, x), name) for e, name in named.items()]
    rng = random.Random(2024)
    while len(cases) < len(named) + 40:
        poly = sympy.Poly([1] + [rng.randint(-9, 9) for _ in range(rng.choice((3, 5)))], x)
        if poly.is_irreducible:
            cases.append((poly, None))
    labels = set()
    for poly, name in cases:
        group, alternating = sympy.galois_group(poly, by_name=True)
        assert name in (None, group.name)
        n = poly.degree()
        curve = CurveSpec(RatPoly([int(c) for c in reversed(poly.all_coeffs())]))
        label = galois_classify(curve, 1000)[0]
        labels.add(label)
        if label == "Sn_certified":
            assert group.name == f"S{n}", poly
        elif label == "An_certified":
            assert group.name == f"A{n}", poly
        elif label == "inside_An":
            assert alternating, poly
    assert labels == {"Sn_certified", "An_certified", "inside_An", "unknown"}


def _closure(gens):
    """The permutation group that the image tuples ``gens`` generate."""
    group = frontier = {tuple(range(len(gens[0])))}
    while frontier:
        frontier = {tuple(s[i] for i in g) for g in frontier for s in gens} - group
        group |= frontier
    return group


def projective_line_group(modulus, field_automorphisms=False):
    """PSL(2,q) on P^1(F_q), q = 2^k; with x -> x^2 added, PGammaL(2,q).

    F_q is F_2[t]/(modulus) with elements as bit masks, for a modulus
    whose t generates F_q^*; q is the point at infinity.  The maps x + 1,
    t x and 1/x generate PSL(2,q) = SL(2,q), since the first two generate
    all of the affine maps x -> a x + b.
    """
    q = 1 << (modulus.bit_length() - 1)

    def mul(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & q:
                a ^= modulus
        return r

    inv = {a: next(b for b in range(1, q) if mul(a, b) == 1) for a in range(1, q)}
    maps = [lambda x: x ^ 1, lambda x: mul(2, x)]
    if field_automorphisms:
        maps.append(lambda x: mul(x, x))
    gens = [tuple(f(x) for x in range(q)) + (q,) for f in maps]
    gens.append(tuple(q if x == 0 else inv[x] for x in range(q)) + (0,))
    return _closure(gens)


def psl28_cycle_types():
    """The cycle types of PSL(2,8) = PGL(2,8), Mobius maps on P^1(F_8)."""
    group = projective_line_group(0b1011)  # t^3 + t + 1
    assert len(group) == 504
    return sorted({cycle_lengths(g) for g in group})


def _classify_types(monkeypatch, degree, types, square=True):
    """galois_classify on an irreducible f of the degree whose disc is a
    square or not, and whose Frobenius cycle types at 3, 5, 7, ... are ``types``."""
    def scan(curve, stop, cache=None):
        return (PrimeClass(l, t, len(t) - 1) for l, t in zip(iter_primes(3, stop + 1), types))

    monkeypatch.setattr(frobenius, "prime_scan", scan)
    monkeypatch.setattr(frobenius, "disc_is_square", lambda curve: square)
    curve = CurveSpec(f=RatPoly((-1, -1, *[0] * (degree - 2), 1)))  # x^n - x - 1
    return galois_classify(curve, 3000)


def test_galois_classify_psl28_is_not_certified_alternating(monkeypatch):
    """PSL(2,8) on 9 points lies in A_9 and holds a 9-cycle and a (7,1,1):
    the n-cycle and (n-2)-cycle rule alone would call it A_9."""
    types = psl28_cycle_types()
    assert types == [(1,) * 9, (1, 1, 7), (1, 2, 2, 2, 2), (3, 3, 3), (9,)]
    label, evidence = _classify_types(monkeypatch, 9, types)
    assert label == "inside_An"
    assert {"n_cycle", "n_minus_2_cycle"} <= evidence["patterns"].keys()
    # a 3-cycle, or a (5, 2, 2) whose fourth power is a 5-cycle, certifies A_9
    for extra in [(1,) * 6 + (3,), (2, 2, 5)]:
        assert _classify_types(monkeypatch, 9, [*types, extra])[0] == "An_certified"
    # one 3-cycle beside a 6-cycle gives no 3-cycle as a power
    assert _classify_types(monkeypatch, 9, [*types, (3, 6)])[0] == "inside_An"


def test_galois_classify_an_rule_below_degree_9_is_unchanged(monkeypatch):
    for n in (3, 5, 7):
        label, evidence = _classify_types(monkeypatch, n, [(n,), (1, 1, n - 2)])
        assert label == "An_certified"
        assert "prime_cycle_power" not in evidence["patterns"]


def transitive_groups():
    """(name, degree, group) for transitive groups of odd degree up to 17,
    each group a set of image tuples."""
    for n in range(3, 18, 2):
        rotations = {tuple((x + k) % n for x in range(n)) for k in range(n)}
        yield f"C{n}", n, rotations
        yield f"D{n}", n, rotations | {tuple((k - x) % n for x in range(n)) for k in range(n)}
    for p in (5, 7, 11, 13, 17):
        maps = {tuple((a * x + b) % p for x in range(p)) for a in range(1, p) for b in range(p)}
        yield f"AGL(1,{p})", p, maps
    # x -> A x + b on F_3^2, the point (x, y) numbered 3x + y
    yield "AGL(2,3)", 9, {
        tuple(3 * ((a * x + b * y + e) % 3) + (c * x + d * y + f) % 3
              for x in range(3) for y in range(3))
        for a, b, c, d, e, f in itertools.product(range(3), repeat=6)
        if (a * d - b * c) % 3
    }
    # GL(3,2) on the nonzero vectors of F_2^3, the vector v numbered v - 1
    psl32 = set()
    for cols in itertools.product(range(1, 8), repeat=3):
        images = []
        for v in range(1, 8):
            w = 0
            for i, col in enumerate(cols):
                if v >> i & 1:
                    w ^= col
            images.append(w - 1)
        if len(set(images)) == 7:
            psl32.add(tuple(images))
    yield "PSL(3,2)", 7, psl32
    yield "PSL(2,8)", 9, projective_line_group(0b1011)
    yield "PGammaL(2,8)", 9, projective_line_group(0b1011, field_automorphisms=True)
    yield "PSL(2,16)", 17, projective_line_group(0b10011)  # t^4 + t + 1
    yield "PGammaL(2,16)", 17, projective_line_group(0b10011, field_automorphisms=True)


def _partitions(n, largest=None):
    """The partitions of n into parts of at most ``largest``, as sorted tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield tuple(sorted((part, *rest)))


def test_galois_classify_certifies_only_alternating_or_symmetric_groups(monkeypatch):
    """Fed the cycle types of a transitive group, Sn_certified fires only for
    S_n and An_certified only for a group of order at least n!/2; A_n and S_n
    themselves, their cycle types read from the partitions of n, are
    always certified.  The disc is a square when every element is even."""
    orders = {
        "AGL(2,3)": 432, "PSL(3,2)": 168, "PSL(2,8)": 504, "PGammaL(2,8)": 1512,
        "PSL(2,16)": 4080, "PGammaL(2,16)": 16320,
    }
    labels = {}
    for name, n, group in transitive_groups():
        assert len(group) == orders.get(name, len(group)), name
        types = {cycle_lengths(g) for g in group}
        assert all(sorted(g) == list(range(n)) for g in group)
        square = all((n - len(t)) % 2 == 0 for t in types)
        label = _classify_types(monkeypatch, n, sorted(types), square)[0]
        labels[name] = label
        if label == "Sn_certified":
            assert len(group) == math.factorial(n), name
        elif label == "An_certified":
            assert len(group) >= math.factorial(n) // 2, name
    assert labels["C3"] == "An_certified" and labels["D3"] == "Sn_certified"
    assert labels["PSL(2,16)"] == labels["PGammaL(2,16)"] == "inside_An"
    for n in range(3, 18, 2):
        types = sorted(_partitions(n))
        even = [t for t in types if (n - len(t)) % 2 == 0]
        assert _classify_types(monkeypatch, n, types, square=False)[0] == "Sn_certified", n
        assert _classify_types(monkeypatch, n, even, square=True)[0] == "An_certified", n


def test_galois_low_bound_degrades_to_unknown():
    assert galois_classify(curve_x3_minus_2(), 4)[0] == "unknown"


# ---------------------------------------------------------------------------
# the cold scan shared over the cores

_SEPTIC = RatPoly((-3, 0, 0, 2, 0, 0, 0, 1))  # not the hygiene test's septic: sigma_set is cached


def _cores(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _scan_with_cache(curve, path, stop):
    with PrimeCache(str(path)) as cache:
        got = list(prime_scan(curve, stop, cache=cache))
    with pytest.raises(ChildProcessError):  # every forked child has been reaped
        os.waitpid(-1, os.WNOHANG)
    return got, path.read_bytes()


@pytest.mark.parametrize(
    "make",
    [curve_x3_minus_2, curve_1440d1, curve_s5_quintic, curve_g, curve_h, lambda: CurveSpec(_SEPTIC)],
    ids=["x3_minus_2", "cubic_1440d1", "s5_quintic", "g_quintic", "h_quintic", "septic"],
)
def test_split_scan_matches_one_worker(make, tmp_path, monkeypatch):
    curve = make()
    _cores(monkeypatch, 1)
    one = _scan_with_cache(curve, tmp_path / "one.cache", 20_000)
    _cores(monkeypatch, 3)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    several = _scan_with_cache(curve, tmp_path / "several.cache", 20_000)
    assert several == one
    assert forks and len(forks) % 2 == 0  # two children per block shared out


def _in_children(monkeypatch, module, name, act):
    """Make each forked child call act(real, *args) where it calls module.name."""
    parent = os.getpid()
    real = getattr(module, name)

    def patched(*args):
        return real(*args) if os.getpid() == parent else act(real, *args)

    monkeypatch.setattr(module, name, patched)


def _exit_after(count):
    calls = []

    def act(real, *args):
        calls.append(1)
        if len(calls) > count:
            os._exit(0)
        return real(*args)

    return act


_FAILURES = {
    "raises": (frobenius, "factor_degrees", lambda real, *args: 1 / 0),  # leaves by os._exit(1)
    "killed": (frobenius, "factor_degrees", lambda real, *args: os.kill(os.getpid(), signal.SIGKILL)),
    "short": (frobenius, "factor_degrees", _exit_after(25)),  # exits 0 with a share half sent
    "garbled": (frobenius, "factor_degrees", lambda real, *args: (1,)),  # lengths not summing to n
    "truncated": (os, "write", lambda real, fd, data: real(fd, data[: len(data) // 2])),
}


def _no_process_to_spare():
    raise OSError(errno.EAGAIN, "fork failed")


@pytest.mark.parametrize("failure", ["unforked", *_FAILURES])
def test_failed_children_are_recomputed(failure, tmp_path, monkeypatch):
    curve = curve_s5_quintic()
    _cores(monkeypatch, 1)
    want = _scan_with_cache(curve, tmp_path / "one.cache", 5000)
    _cores(monkeypatch, 3)
    if failure == "unforked":
        monkeypatch.setattr(os, "fork", _no_process_to_spare)
    else:
        _in_children(monkeypatch, *_FAILURES[failure])
    assert _scan_with_cache(curve, tmp_path / "several.cache", 5000) == want


def test_children_are_reaped_when_the_parent_raises(tmp_path, monkeypatch):
    _cores(monkeypatch, 3)
    parent = os.getpid()
    factor = frobenius.factor_degrees

    def factor_degrees(f, l, disc):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return factor(f, l, disc)

    monkeypatch.setattr(frobenius, "factor_degrees", factor_degrees)
    with PrimeCache(str(tmp_path / "x.cache")) as cache:
        with pytest.raises(KeyboardInterrupt):
            list(prime_scan(curve_s5_quintic(), 5000, cache=cache))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_warm_scan_forks_nothing(tmp_path, monkeypatch):
    _cores(monkeypatch, 3)
    curve = curve_h()
    cold = _scan_with_cache(curve, tmp_path / "h.cache", 5000)

    def no_fork():
        raise AssertionError("a warm scan forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _scan_with_cache(curve, tmp_path / "h.cache", 5000) == cold


def test_small_blocks_and_scans_without_a_cache_stay_in_process(tmp_path, monkeypatch):
    _cores(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    curve = curve_s5_quintic()
    want = [classify_prime(curve, l) for l in iter_primes(2, 20_000) if l not in sigma_set(curve)]
    assert list(prime_scan(curve, 20_000)) == want
    small = [pc for pc in want if pc.l < 300]
    assert len(small) < 2 * frobenius._MIN_SHARE
    with PrimeCache(str(tmp_path / "s.cache")) as cache:
        assert list(prime_scan(curve, 300, cache=cache)) == small
