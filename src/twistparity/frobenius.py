"""Bad places, Frobenius cycle types and the prime classification.

At a good prime l the degrees of the irreducible factors of f mod l are
the orbit lengths of Frobenius acting on the roots; the class index of l
is (number of orbits) - 1.  Everything downstream (local h-invariants,
parity weights, twist searches) keys off this classification.  It is a
deterministic function of (curve, l), computed by ``factor_degrees``:
distinct-degree factorization in which the sign (disc f | l) =
(-1)^(n - #orbits) of Stickelberger's theorem decides the last step
whenever one cycle type alone fits it (every quintic after x^l mod f,
every cubic with a nonsquare discriminant mod l without it), and each
step after the first applies the Frobenius matrix of x^l instead of
powering again.  A scan shares the primes its cache lacks out to forked
children, one per usable core, and writes their cycle types to the
cache itself, in the order one core gives.  The result is cached per
(curve hash, l) in an append-only line file, cut back after its last
whole record.  A cached cycle type whose lengths do not sum to the
degree of f is never trusted: it is recomputed and the corrected record
appended, so deleting or damaging a cache never changes a reported value.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter, namedtuple

from .curves import CurveSpec, curve_hash
from .errors import BadPrimeError
from .modular import factor_degrees, is_prime, iter_primes
from .ratpoly import bad_primes, rational_roots

__all__ = [
    "sigma_set",
    "PrimeClass",
    "classify_prime",
    "prime_scan",
    "PrimeCache",
    "galois_classify",
    "disc_is_square",
]


_sigma_cache: dict = {}


def sigma_set(curve: CurveSpec) -> tuple:
    """The bad set as its places, sorted: (0, 2, q, ...).

    0 is the real place, then 2 and the primes of the lead coefficient,
    the denominators and the discriminant, so ``sigma[2:]`` are the odd
    bad primes.
    """
    key = curve_hash(curve)
    if key not in _sigma_cache:
        _sigma_cache[key] = (0, *sorted({2} | bad_primes(curve.f, curve.discriminant())))
    return _sigma_cache[key]


class PrimeClass(namedtuple("PrimeClass", "l lengths i")):
    """A good prime with its Frobenius cycle type and class index i = b - 1."""

    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {"l": self.l, "cycle_type": self.lengths, "class_index": self.i}


class PrimeCache:
    """Append-only cycle-type cache: lines of ``<curve_hash> <l> <l1,l2,...>``.

    A record is such a line split at single spaces: a UTF-8 curve hash, an
    int l and ints >= 1, ended by a newline.  Loading stops at the first
    line that is not a record and truncates the file after the last one
    when more bytes follow, so a torn write never poisons later runs and a
    valid file is only read.  A later record for the same key overrides an
    earlier one.  Records are held by curve hash, then by l, so each curve
    hash is one string, and each cycle type read or written is one tuple
    however many primes share it.  The first ``put`` opens one append
    handle, flushed after every record, so a killed scan keeps each record
    written so far; leaving a ``with`` block closes it.
    """

    def __init__(self, path):
        self.path = path
        self._mem: dict = {}  # curve hash -> {l: cycle type}
        self._types: dict = {}  # bytes of a lengths field, newline included -> its one tuple
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        """Read the records, truncating the file after them when more bytes follow."""
        mem, types = self._mem, self._types
        end = 0  # bytes in the records read so far
        with open(self.path, "rb") as fh:
            for line in fh:
                try:
                    key, ls, lens = line.split(b" ")
                    l = int(ls)
                    lengths = types.get(lens)
                    if lengths is None:  # every field in types ends in a newline
                        lengths = tuple(int(x) for x in lens.split(b","))
                        if lens[-1:] != b"\n" or min(lengths) < 1:
                            raise ValueError
                        types[lens] = lengths
                    key = key.decode()
                except ValueError:  # UnicodeDecodeError included
                    os.truncate(self.path, end)
                    break
                by_l = mem.get(key)
                if by_l is None:
                    by_l = mem[key] = {}
                by_l[l] = lengths
                end += len(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def get(self, key, l):
        by_l = self._mem.get(key)
        return None if by_l is None else by_l.get(l)

    def put(self, key, l, lengths):
        """Record the cycle type of l; return the one tuple held for it."""
        lengths = tuple(lengths)
        by_l = self._mem.setdefault(key, {})
        held = by_l.get(l)
        if held == lengths:
            return held
        text = b",".join(b"%d" % x for x in lengths)
        held = by_l[l] = self._types.setdefault(text + b"\n", lengths)
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(b"%s %d %s\n" % (key.encode(), l, text))
        self._fh.flush()
        return held


def classify_prime(
    curve: CurveSpec, l: int, cache: PrimeCache | None = None
) -> PrimeClass:
    """Cycle type and class index of a good prime l."""
    if l in sigma_set(curve):
        raise BadPrimeError(f"{l} is a bad prime for this curve")
    key = curve_hash(curve)
    lengths = cache.get(key, l) if cache is not None else None
    if lengths is None or sum(lengths) != curve.degree:
        lengths = factor_degrees(curve.f, l, curve.discriminant())
        if cache is not None:
            lengths = cache.put(key, l, lengths)
    return PrimeClass(l=l, lengths=tuple(lengths), i=len(lengths) - 1)


def prime_scan(
    curve: CurveSpec,
    stop: int,
    cache: PrimeCache | None = None,
    m: int = 1,
    prime_filter=None,
):
    """The PrimeClass of each good prime l = 1 mod m in [2, stop) passing ``prime_filter``.

    Only the primes l = 1 mod m are sieved (``iter_primes``), so a
    congruence costs nothing per excluded prime.  The filter sees the bare
    prime before classification (use it for symbol conditions, which are
    much cheaper than factoring f mod l).  Candidates come ``_BLOCK`` at a
    time: with a cache, the primes of a block it lacks are factored first
    (``_factor_split``) and appended in prime order, and the block is then
    read back, so records come in increasing prime order, and a consumer
    that stops early classifies at most the rest of its block.
    """
    sigma = sigma_set(curve)
    key, n = curve_hash(curve), curve.degree
    good = (
        l for l in iter_primes(2, stop, m)
        if l not in sigma and (prime_filter is None or prime_filter(l))
    )
    while block := list(itertools.islice(good, _BLOCK)):
        if cache is not None:
            todo = [l for l in block if (t := cache.get(key, l)) is None or sum(t) != n]
            for l, lengths in zip(todo, _factor_split(curve, todo)):
                cache.put(key, l, lengths)
        for l in block:
            yield classify_prime(curve, l, cache=cache)


_BLOCK = 4096  # candidate primes prime_scan takes at a time
_MIN_SHARE = 64  # the fewest primes a forked share of a block may hold


def _factor_split(curve: CurveSpec, ls: list) -> list:
    """``factor_degrees`` of f mod each l in ls, on every usable core.

    ls is cut into k shares ls[j::k], one per usable core but none below
    ``_MIN_SHARE`` primes.  Forked children take shares j >= 1 from the
    front, writing a line per cycle type to a pipe, and leave by
    ``os._exit``, so no buffer is flushed twice.  This process takes share
    0, then each child's share from the back, reading the pipe between
    primes, until the ends meet.  A slow core, or a child that dies or
    writes a torn line, costs time only.
    """
    f, disc, k = curve.f, curve.discriminant(), 1
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
                        os.write(w, b",".join(b"%d" % x for x in factor_degrees(f, l, disc)) + b"\n")
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
                    back.append(factor_degrees(f, share[-1 - len(back)], disc))
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


def galois_classify(curve: CurveSpec, sample_bound: int, cache: PrimeCache | None = None):
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
    with such a cycle contains A_n (Jordan, 1873).
    """
    n = curve.degree
    square = disc_is_square(curve)
    evidence: dict = {"disc_square": square, "sample_bound": sample_bound}
    if len(curve.declared_factors) > 1 or rational_roots(curve.f):
        evidence["note"] = "f reducible over Q"
        return "unknown", evidence

    seen = set()
    first_at: dict = {}
    for pc in prime_scan(curve, sample_bound + 1, cache=cache):
        t = pc.lengths
        seen.add(t)
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
