"""Bad places, Frobenius cycle types and the prime classification.

At a good prime l the degrees of the irreducible factors of f mod l are
the orbit lengths of Frobenius acting on the roots; the class index of l
is (number of orbits) - 1.  Everything downstream (local h-invariants,
parity weights, twist searches) keys off this classification.  It is a
deterministic function of (curve, l), the union of the cycle types of
the curve's parts (``CurveSpec.parts``: f, or its declared factors,
split at its rational roots, as primitive integer coefficients and
discriminant).  The parts multiply to +-1 times the primitive
form of f (Gauss's lemma), whose lead and discriminant gain only primes
of f's denominators and content, all in Sigma; so mod an l outside Sigma
the parts keep their degrees and stay separable and coprime.  Sigma alone
decides which primes are good: ``classify_prime``, where a prime from
outside the program arrives, checks that l is prime and outside Sigma; a
scan passes only sieved primes outside it.  Each part g goes to
``factor_degrees``, distinct-degree factorization in which the sign
(disc g | l) = (-1)^(deg g - #orbits) of Stickelberger's theorem decides
the last step whenever one cycle type alone fits it (every linear or
quadratic g and every cubic with a nonsquare discriminant mod l without
any x^l ladder, every quintic after x^l mod g), and each step after the
first applies the Frobenius matrix of x^l instead of powering again.  A
scan shares the primes its cache lacks out to forked children, one per
usable core, and writes their cycle types to the cache itself, in the
order one core gives.  Every scan opens its own cache (``primecache``)
at the path it is given: an append-only line file of cycle types per
(curve hash, l), cut back after its last whole record, of which it holds
only its curve's records, as they were when it opened the file: what
one scan appends, the next reads.  A scan is a generator that holds one
block of primes at a time, so a consumer can write each record as it
comes and hold none.  A cached cycle type is recomputed, and the corrected record
appended, when its lengths do not sum to the degree n of f or its orbit
count has the wrong sign, (disc f | l) = (-1)^(n - #orbits).  A Galois
label is certified only from cycle types computed in its run; a wrong
record of the right sign can still change what a scan yields, until the
cache is deleted.  ``classify_prime`` reads no cache.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter, namedtuple

from .curves import CurveSpec, curve_hash
from .errors import BadPrimeError, InvalidInputError
from .modular import factor_degrees, is_prime, iter_primes
from .primecache import PrimeCache
from .ratpoly import bad_primes

__all__ = [
    "sigma_set",
    "PrimeClass",
    "classify_prime",
    "prime_scan",
    "galois_classify",
    "disc_is_square",
]


def sigma_set(curve: CurveSpec) -> tuple:
    """The bad set as its places, sorted: (0, 2, q, ...).

    0 is the real place, then 2 and the primes of the lead coefficient,
    the denominators and the discriminant, so ``sigma[2:]`` are the odd
    bad primes.  It is computed once per curve and held on it.
    """
    if curve._sigma is None:
        curve._sigma = (0, *sorted({2} | bad_primes(curve.f, curve.discriminant())))
    return curve._sigma


class PrimeClass(namedtuple("PrimeClass", "l lengths i")):
    """A good prime with its Frobenius cycle type and class index i = b - 1."""

    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {"l": self.l, "cycle_type": self.lengths, "class_index": self.i}


def classify_prime(curve: CurveSpec, l: int) -> PrimeClass:
    """Cycle type and class index of a prime l outside Sigma, read from the curve's parts uncached."""
    if not is_prime(l):
        raise InvalidInputError(f"{l} is not prime")
    if l in sigma_set(curve):
        raise BadPrimeError(f"{l} is a bad prime for this curve")
    lengths = _cycle_type(curve.parts, l)
    return PrimeClass(l, lengths, len(lengths) - 1)


def _cycle_type(parts: tuple, l: int) -> tuple:
    """The sorted union of the cycle types of the parts mod a prime l outside Sigma."""
    return tuple(sorted(x for ints, disc in parts for x in factor_degrees(ints, l, disc)))


def prime_scan(curve: CurveSpec, stop: int, cache_path: str, m: int = 1, prime_filter=None):
    """The PrimeClass of each good prime l = 1 mod m in [2, stop) passing ``prime_filter``.

    Only the primes l = 1 mod m are sieved (``iter_primes``), so a
    congruence costs nothing per excluded prime.  The filter sees the bare
    prime before classification (use it for symbol conditions, which are
    much cheaper than factoring f mod l).  The cache at ``cache_path``
    stays open while the scan runs.  Candidates come ``_BLOCK`` at a
    time: the records of a block are read from the cache once, the primes
    it lacks or holds poisoned (of the wrong sum, or of the wrong sign by
    Euler's criterion on num*den of disc f) are factored
    (``_factor_split``) and appended in prime order, and the block is
    yielded from the one tuple per cycle type that the cache's ``get`` and
    ``put`` return, so records come in increasing prime order, and a
    consumer that stops early classifies at most the rest of its block.
    Blocks are disjoint, so the scan never reads back a prime it put.
    """
    sigma, disc = sigma_set(curve), curve.discriminant()
    n, s = curve.degree, disc.numerator * disc.denominator
    good = (
        l for l in iter_primes(2, stop, m)
        if l not in sigma and (prime_filter is None or prime_filter(l))
    )
    with PrimeCache(cache_path, curve_hash(curve)) as cache:
        while block := list(itertools.islice(good, _BLOCK)):
            held = [cache.get(l) for l in block]
            todo = [
                j for j, (l, t) in enumerate(zip(block, held))
                if t is None or sum(t) != n or (pow(s, (l - 1) // 2, l) == 1) != ((n - len(t)) % 2 == 0)
            ]
            for j, lengths in zip(todo, _factor_split(curve, [block[j] for j in todo])):
                held[j] = cache.put(block[j], lengths)
            for l, t in zip(block, held):
                yield PrimeClass(l, t, len(t) - 1)
            del block, held  # so that two blocks are never held at once


_BLOCK = 4096  # candidate primes prime_scan takes at a time
_MIN_SHARE = 64  # the fewest primes a forked share of a block may hold


def _factor_split(curve: CurveSpec, ls: list) -> list:
    """The ``_cycle_type`` of f mod each l in ls, on every usable core.

    ls is cut into k shares ls[j::k], one per usable core but none below
    ``_MIN_SHARE`` primes.  Forked children take shares j >= 1 from the
    front, writing a line per cycle type to a pipe, and leave by
    ``os._exit``, so no buffer is flushed twice.  This process takes share
    0, then each child's share from the back, reading the pipe between
    primes, until the ends meet.  A slow core, or a child that dies or
    writes a torn line, costs time only.
    """
    parts, k = curve.parts, 1
    if len(ls) >= 2 * _MIN_SHARE and hasattr(os, "fork"):
        affinity = getattr(os, "sched_getaffinity", None)
        k = min(len(ls) // _MIN_SHARE, len(affinity(0)) if affinity else os.cpu_count() or 1)
    children = {}  # share j -> (pid, read end of its pipe)
    try:
        for j in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one takes the other shares
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    for l in ls[j::k]:
                        os.write(w, b",".join(b"%d" % x for x in _cycle_type(parts, l)) + b"\n")
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            os.set_blocking(r, False)
            children[j] = pid, r
        out = [None] * len(ls)
        for j in range(k):
            share, front, back, torn = ls[j::k], [], [], b""
            r = children[j][1] if j in children else None
            while len(front) + len(back) < len(share):
                try:
                    lines = (torn + os.read(r, 1 << 16)).split(b"\n") if r is not None else [b""]
                    torn = lines.pop()
                    types = [tuple(map(int, line.split(b","))) for line in lines]
                    if any(sum(t) != curve.degree or min(t) < 1 for t in types):
                        raise ValueError
                    front += types
                except BlockingIOError:  # nothing new from the child
                    pass
                except ValueError:  # a garbled line: trust this child no further
                    r = None
                if len(front) + len(back) < len(share):
                    back.append(_cycle_type(parts, share[-1 - len(back)]))
            out[j::k] = front[: len(share) - len(back)] + back[::-1]
        return out
    finally:
        for pid, r in children.values():
            os.close(r)
            os.kill(pid, 9)  # SIGKILL, by number: importing signal costs every command
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# heuristic Galois classification


def disc_is_square(curve: CurveSpec) -> bool:
    d = curve.discriminant()
    return d > 0 and all(math.isqrt(n) ** 2 == n for n in (d.numerator, d.denominator))


def galois_classify(curve: CurveSpec, sample_bound: int, cache_path: str):
    """(label, evidence) for Gal(f), from the disc-square test plus sampled cycle types.

    The label is Sn_certified, An_certified, inside_An or unknown.  Only
    standard sufficient criteria are used, so a certified label is
    trustworthy while everything else degrades to inside_An / unknown.
    Sn needs the disc to be a nonsquare plus an n-cycle, an (n-1)-cycle
    and a transposition-type pattern.  An needs a square disc plus an
    n-cycle and an (n-2)-cycle with fixed points, which for odd n make the
    group primitive.  When q = n - 1 is a power of 2 above 4, the groups
    from PGL(2,q) to PGammaL(2,q) on the projective line lie in A_n and
    hold both cycles too (PSL(2,8) at n = 9), so An also needs a power of
    an element to be a p-cycle, p prime and p <= n-3: a primitive group
    with such a cycle contains A_n (Jordan, 1873).  The first prime of
    each pattern is its witness, computed again: a cached record that
    disagrees is corrected, through a cache opened for that alone, and
    the scan repeats.  An f of more than one part opens no cache.
    """
    n = curve.degree
    square = disc_is_square(curve)
    evidence: dict = {"disc_square": square, "sample_bound": sample_bound}
    if len(curve.parts) > 1:
        evidence["note"] = "f reducible over Q"
        return "unknown", evidence

    wrong = True
    while wrong:  # until every witness's cycle type is one this run computed
        seen, first_at = set(), {}
        for pc in prime_scan(curve, sample_bound + 1, cache_path):
            seen.add(pc.lengths)
            for name, ok in _pattern_tests(pc.lengths, n):
                if ok and name not in first_at:
                    first_at[name] = pc
        wrong = [(pc.l, t) for pc in sorted(set(first_at.values()))
                 if (t := _cycle_type(curve.parts, pc.l)) != pc.lengths]
        if wrong:
            with PrimeCache(cache_path, curve_hash(curve)) as cache:
                for l, t in wrong:
                    cache.put(l, t)
    evidence["patterns"] = {name: pc.l for name, pc in sorted(first_at.items())}
    evidence["distinct_types"] = len(seen)

    has = first_at.__contains__
    if not square:
        if has("n_cycle") and has("n_minus_1_cycle") and (
            has("transposition") or has("transposition_power")
        ):
            return "Sn_certified", evidence
        return "unknown", evidence
    if has("n_cycle") and has("n_minus_2_cycle") and (
        not _projective_degree(n) or has("prime_cycle_power")
    ):
        return "An_certified", evidence
    return "inside_An", evidence


def _projective_degree(n: int) -> bool:
    """n - 1 is a power of 2 above 4: PGL(2, n-1) acts on n points."""
    return n > 5 and (n - 1) & (n - 2) == 0


def _pattern_tests(t: tuple, n: int):
    """Cycle-type patterns consumed by the certification rules."""
    counts = Counter(t)
    yield "n_cycle", t == (n,)
    yield "n_minus_1_cycle", n > 2 and sorted(t) == sorted((n - 1, 1))
    yield "transposition", counts[2] == 1 and counts[1] == n - 2
    # one 2-cycle, one odd prime q-cycle with q > n/2, rest fixed points:
    # the q-th power of such a permutation is a transposition
    odd_big = [x for x in t if x % 2 == 1 and x > n / 2 and is_prime(x)]
    yield "transposition_power", (
        counts[2] == 1
        and len(odd_big) == 1
        and counts[1] == n - 2 - odd_big[0]
        and len(t) == n - odd_big[0]
    )
    yield "n_minus_2_cycle", n > 4 and sorted(t) == sorted((n - 2, 1, 1)) or (
        n == 3 and t == (1, 1, 1)
    )
    if _projective_degree(n):
        # exactly one cycle of prime length p <= n-3, no other length divisible
        # by p: the power by the other lengths' lcm is a p-cycle
        yield "prime_cycle_power", any(
            counts[x] == 1 and x <= n - 3 and is_prime(x)
            and all(y % x for y in counts if y != x)
            for x in counts
        )
