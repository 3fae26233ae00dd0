"""Bad places, Frobenius cycle types and the prime classification.

At a good prime l the degrees of the irreducible factors of f mod l are
the orbit lengths of Frobenius acting on the roots; the class index of l
is (number of orbits) - 1.  Everything downstream (local h-invariants,
parity weights, twist searches) keys off this classification.  It is a
deterministic function of (curve, l), computed by ``factor_degrees`` on
one serial path, and cached per (curve hash, l) in an append-only line
file that tolerates a torn final record.  A cached cycle type whose
lengths do not sum to the degree of f is never trusted: it is recomputed
and the corrected record appended, so deleting or damaging a cache never
changes a reported value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .curves import CurveSpec, curve_hash
from .errors import BadPrimeError
from .modular import Place, factor_degrees, is_prime, iter_primes
from .ratpoly import bad_primes, rational_roots

__all__ = [
    "SigmaSet",
    "sigma_set",
    "PrimeClass",
    "classify_prime",
    "prime_scan",
    "PrimeCache",
    "GaloisVerdict",
    "galois_classify",
    "disc_is_square",
]


@dataclass(frozen=True)
class SigmaSet:
    """The bad set: the real place, 2, and the primes of lead/denominators/disc."""

    finite: tuple
    odd_primes: tuple = field(init=False, repr=False, compare=False)
    places: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "odd_primes", tuple(q for q in self.finite if q != 2))
        places = (Place.infinity(), *(Place.finite(q) for q in self.finite))
        object.__setattr__(self, "places", places)

    def __contains__(self, place) -> bool:
        if isinstance(place, Place):
            return place.is_infinity or place.q in self.finite
        return place in self.finite

    def iter_places(self):
        return iter(self.places)

    def __str__(self):
        return "{inf, " + ", ".join(str(q) for q in self.finite) + "}"


_sigma_cache: dict = {}


def sigma_set(curve: CurveSpec) -> SigmaSet:
    """Minimal checkable bad set for the curve (always contains 2)."""
    key = curve_hash(curve)
    if key not in _sigma_cache:
        _sigma_cache[key] = SigmaSet(tuple(sorted({2} | bad_primes(curve.f))))
    return _sigma_cache[key]


@dataclass(frozen=True)
class PrimeClass:
    """A good prime with its Frobenius cycle type and class index i = b - 1."""

    l: int
    lengths: tuple
    i: int


class PrimeCache:
    """Append-only cycle-type cache: lines of ``<curve_hash> <l> <l1,l2,...>``.

    Loading stops at the first corrupt record and truncates the file back
    to the valid prefix, so a torn write never poisons later runs.  A later
    record for the same key overrides an earlier one.  The first ``put``
    opens one append handle, flushed after every record, so a killed scan
    keeps each record written so far; leaving a ``with`` block closes it.
    A cache is not thread-safe: callers that share one across threads
    must lock around it.
    """

    def __init__(self, path):
        self.path = path
        self._mem: dict = {}
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        good = []
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        for line in raw.splitlines():
            try:
                h, ls, lens = line.split()
                l = int(ls)
                lengths = tuple(int(x) for x in lens.split(","))
                if not lengths or any(x < 1 for x in lengths):
                    raise ValueError
            except ValueError:
                break
            self._mem[(h, l)] = lengths
            good.append(line)
        cleaned = "".join(s + "\n" for s in good)
        if cleaned != raw:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(cleaned)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def get(self, key, l):
        return self._mem.get((key, l))

    def put(self, key, l, lengths):
        lengths = tuple(lengths)
        if self._mem.get((key, l)) == lengths:
            return
        self._mem[(key, l)] = lengths
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(f"{key} {l} {','.join(str(x) for x in lengths)}\n")
        self._fh.flush()


def classify_prime(
    curve: CurveSpec, l: int, cache: PrimeCache | None = None
) -> PrimeClass:
    """Cycle type and class index of a good prime l."""
    if l in sigma_set(curve):
        raise BadPrimeError(f"{l} is a bad prime for this curve")
    key = curve_hash(curve)
    lengths = cache.get(key, l) if cache is not None else None
    if lengths is None or sum(lengths) != curve.degree:
        lengths = factor_degrees(curve.f, l)
        if cache is not None:
            cache.put(key, l, lengths)
    return PrimeClass(l=l, lengths=tuple(lengths), i=len(lengths) - 1)


def prime_scan(
    curve: CurveSpec,
    start: int,
    stop: int,
    predicate=None,
    cache: PrimeCache | None = None,
    prime_filter=None,
):
    """Good primes in [start, stop) whose PrimeClass satisfies ``predicate``.

    ``prime_filter`` is applied to the bare prime before classification
    (use it for congruence or symbol conditions, which are much cheaper
    than factoring f mod l).  Yields PrimeClass records in increasing
    prime order, one prime at a time, so a consumer that stops early
    classifies no further; resumable by calling again with
    start = last_prime + 1.
    """
    sigma = sigma_set(curve)
    for l in iter_primes(start, stop):
        if l in sigma:
            continue
        if prime_filter is not None and not prime_filter(l):
            continue
        pc = classify_prime(curve, l, cache=cache)
        if predicate is None or predicate(pc):
            yield pc


# ---------------------------------------------------------------------------
# heuristic Galois classification


@dataclass(frozen=True)
class GaloisVerdict:
    """Certified-or-honest label for Gal(f) with the evidence that produced it."""

    label: str  # Sn_certified | An_certified | inside_An | unknown
    evidence: dict = field(compare=False, default_factory=dict)


def disc_is_square(curve: CurveSpec) -> bool:
    d = curve.discriminant()
    if d <= 0:
        return False
    a = _isqrt_exact(d.numerator)
    b = _isqrt_exact(d.denominator)
    return a is not None and b is not None


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def _looks_reducible(curve: CurveSpec) -> bool:
    return len(curve.declared_factors) > 1 or bool(rational_roots(curve.f))


def galois_classify(
    curve: CurveSpec, sample_bound: int, cache: PrimeCache | None = None
) -> GaloisVerdict:
    """Classify Gal(f) from the disc-square test plus sampled cycle types.

    Only standard sufficient criteria are used, so a certified label is
    trustworthy while everything else degrades to inside_An / unknown.
    Sn needs the disc to be a nonsquare plus an n-cycle, an (n-1)-cycle
    and a transposition-type pattern; An needs a square disc plus an
    n-cycle and an (n-2)-cycle with fixed points.
    """
    n = curve.degree
    square = disc_is_square(curve)
    evidence: dict = {"disc_square": square, "sample_bound": sample_bound}
    if _looks_reducible(curve):
        evidence["note"] = "f reducible over Q"
        return GaloisVerdict("unknown", evidence)

    seen: dict = {}
    first_at: dict = {}
    for pc in prime_scan(curve, 2, sample_bound + 1, cache=cache):
        t = pc.lengths
        if t not in seen:
            seen[t] = pc.l
        for name, ok in _pattern_tests(t, n):
            if ok and name not in first_at:
                first_at[name] = pc.l
    evidence["patterns"] = dict(sorted(first_at.items()))
    evidence["distinct_types"] = len(seen)

    has = first_at.__contains__
    if not square:
        if has("n_cycle") and has("n_minus_1_cycle") and (
            has("transposition") or has("transposition_power")
        ):
            return GaloisVerdict("Sn_certified", evidence)
        return GaloisVerdict("unknown", evidence)
    if has("n_cycle") and has("n_minus_2_cycle"):
        return GaloisVerdict("An_certified", evidence)
    return GaloisVerdict("inside_An", evidence)


def _pattern_tests(t: tuple, n: int):
    """Cycle-type patterns consumed by the certification rules."""
    counts: dict = {}
    for x in t:
        counts[x] = counts.get(x, 0) + 1
    yield "n_cycle", t == (n,)
    yield "n_minus_1_cycle", n > 2 and sorted(t) == sorted((n - 1, 1))
    yield "transposition", counts.get(2, 0) == 1 and counts.get(1, 0) == n - 2
    # one 2-cycle, one odd prime q-cycle with q > n/2, rest fixed points:
    # the q-th power of such a permutation is a transposition
    odd_big = [x for x in t if x % 2 == 1 and x > n / 2 and is_prime(x)]
    yield "transposition_power", (
        counts.get(2, 0) == 1
        and len(odd_big) == 1
        and counts.get(1, 0) == n - 2 - odd_big[0]
        and len(t) == n - odd_big[0]
    )
    yield "n_minus_2_cycle", n > 4 and sorted(t) == sorted((n - 2, 1, 1)) or (
        n == 3 and t == (1, 1, 1)
    )
