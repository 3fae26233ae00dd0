"""Local parity invariants h_v / omega_v, the flip predictor and disparity.

The parity of a twisted Selmer rank moves relative to the untwisted one
by sum_v h_v(chi_v) mod 2, and that sum is controlled place-by-place by
the weight omega_v(chi) = (-1)^h_v(chi) * chi_v(disc).  At good primes
h is computable from the Frobenius cycle type; at the real place it is
k1 - 1 for the sign character; at finite bad places no algorithm exists
at this level, so values there are user-supplied tables (``files``
reads them) and every output that consumed a missing entry says so in
its status.  Local tables are tuples indexed by
``modular.square_class_index``: an h table holds h or None (unknown) per
class, with h = 0 at the trivial class, index 0.  ``omega_tables`` holds
omega_v in that order at each place of Sigma; a command builds it once,
and flips, scans and disparity read only it.  A row holding None restricts
a scan to the Sigma-trivial twists and leaves disparity None.

An exact scan works in F_2 subspaces.  A vector of F_2^n is an int, bit i
its i-th coordinate; a subspace is its reduced echelon basis: a tuple of
ints with strictly decreasing pivots (top bits), each pivot clear in
every other row, so the same tuple comes out whatever vectors span it.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .curves import CurveSpec
from .errors import InvalidInputError, ResourceLimitError
from .frobenius import classify_prime, sigma_set
from .modular import (
    factor_integer,
    hilbert_symbol,
    is_squarefree,
    iter_primes,
    local_classes,
    place_name,
    square_class_index,
)

__all__ = [
    "omega_tables",
    "ParityVerdict",
    "parity_flip",
    "global_consistency_check",
    "delta_v",
    "DisparityReport",
    "disparity",
    "DensityResult",
    "reduced",
    "echelon",
    "span",
    "exact_scan",
    "density_scan",
]


class ParityVerdict(namedtuple("ParityVerdict", "flip status missing", defaults=((),))):
    """flip = product of omega_v over the bad set; +1 means parity preserved.

    status 'exact' when every consumed h-entry was known, 'relative_only'
    when the twist is locally trivial on the whole bad set (no local data
    needed), 'unknown' with the missing places otherwise (flip is None).
    """

    __slots__ = ()


def _omega_row(curve: CurveSpec, place: int, h: tuple | None) -> tuple:
    """omega_v or None per class index at a place of Sigma, from its h table.

    omega_v = (-1)^h * chi_v(disc), with chi_v(disc) the Hilbert symbol
    (label, disc)_v, which only depends on the square class of the label;
    None where h is unknown, and everywhere but index 0 when h is None.
    The real place reads h(sign) = k1 - 1 from the curve.
    """
    if place == 0:
        h = (0, curve.real_root_signature()[1] - 1)
    labels = local_classes(place)
    if h is None:
        return (1,) + (None,) * (len(labels) - 1)
    disc = curve.discriminant()
    return (1, *(
        None if hi is None else (-1) ** hi * hilbert_symbol(label, disc, place)
        for label, hi in zip(labels[1:], h[1:])
    ))


def omega_tables(curve: CurveSpec, profiles: dict | None = None) -> dict:
    """{place: omega_v or None per class index} over Sigma.

    The real place is filled in from the curve; a finite place reads its h
    table from ``profiles``, and without one only its trivial class is known.
    A profile for a place outside Sigma would never be read, so it is
    refused.
    """
    profiles = profiles or {}
    sigma = sigma_set(curve)
    unread = sorted(set(profiles).difference(sigma))
    if unread:
        raise InvalidInputError(
            f"the profile at place {', '.join(map(str, unread))} is never read: "
            f"it lies outside Sigma = {{{', '.join(map(place_name, sigma))}}}"
        )
    return {place: _omega_row(curve, place, profiles.get(place)) for place in sigma}


def _unknown(tables: dict) -> bool:
    """True when some omega entry is unknown: scans restrict, disparity is None."""
    return any(None in row for row in tables.values())


def parity_flip(tables: dict, d: int) -> ParityVerdict:
    """The verdict for the twist by a nonzero int d; Sigma is ``tuple(tables)``.

    d is read only through its square-class indices on Sigma, which are
    those of its squarefree kernel, so d is never factored.  When every
    index is 0 the twist is Sigma-trivial: ``exact`` for a perfect square
    (the trivial twist), ``relative_only`` otherwise.
    """
    indices = {v: square_class_index(d, v) for v in tables}
    if not any(indices.values()):
        return ParityVerdict(1, "exact" if d > 0 and math.isqrt(d) ** 2 == d else "relative_only")
    weights = {v: tables[v][i] for v, i in indices.items()}
    missing = tuple(place for place, w in weights.items() if w is None)
    if missing:
        return ParityVerdict(None, "unknown", missing)
    return ParityVerdict(math.prod(weights.values()), "exact")


def global_consistency_check(curve: CurveSpec, d: int) -> bool:
    """Check (-1)^(sum of good-prime h over l | d) = prod_Sigma (d, disc)_v, d squarefree.

    The left side goes through finite-field factorization (cycle types),
    the right side through Hilbert symbols; the identity is a theorem, so
    any False return is a bug in one of the two pipelines.
    """
    sigma = sigma_set(curve)
    hsum = 0
    for l in factor_integer(d):
        if l not in sigma:
            hsum += classify_prime(curve, l).i
    lhs = (-1) ** hsum
    rhs = 1
    disc = curve.discriminant()
    for place in sigma:
        rhs *= hilbert_symbol(d, disc, place)
    return lhs == rhs


# ---------------------------------------------------------------------------
# disparity


def delta_v(row: tuple) -> Fraction:
    """Average of one known omega row over the local character group (2, 8 or 4 classes)."""
    return Fraction(sum(row), len(row))


class DisparityReport(namedtuple("DisparityReport", "per_place delta even_density r1_parity")):
    __slots__ = ()

    def as_json_dict(self):
        return {
            "delta_v": {place_name(v): str(dv) for v, dv in self.per_place.items()},
            "delta": str(self.delta),
            "even_density": str(self.even_density),
            "r1_parity": {"value": self.r1_parity, "provenance": "user"},
        }


def disparity(tables: dict, r1: int) -> DisparityReport | None:
    """delta = (-1)^r1 * prod delta_v and the predicted even-parity density;
    None when some omega entry is unknown."""
    if _unknown(tables):
        return None
    per_place = {v: delta_v(row) for v, row in tables.items()}
    delta = (-1) ** r1 * math.prod(per_place.values())
    return DisparityReport(per_place, delta, (1 + delta) / 2, r1)


# ---------------------------------------------------------------------------
# density scans


class DensityResult(
    namedtuple(
        "DensityResult",
        "mode total even_count fraction_even flip_average r1_parity seed bound warning",
        defaults=(None, None, None),
    )
):
    """A scan's counts; ``mode`` is exhaustive, sigma_trivial_only,
    monte_carlo or monte_carlo_sigma_trivial."""

    __slots__ = ()

    def as_json_dict(self):
        out = {
            "mode": self.mode,
            "total": self.total,
            "even_count": self.even_count,
            "fraction_even": str(self.fraction_even),
            "flip_average": str(self.flip_average),
            "r1_parity": {"value": self.r1_parity, "provenance": "user"},
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.bound is not None:
            out["bound"] = self.bound
        if self.warning:
            out["warning"] = self.warning
        return out


def _counts(mode: str, total: int, plus: int, r1: int, **extra) -> DensityResult:
    """A scan result from the number of characters and how many have flip +1."""
    even = plus if r1 == 0 else total - plus
    return DensityResult(
        mode, total, even, Fraction(even, total), Fraction(2 * plus - total, total), r1, **extra
    )


def reduced(v: int, basis) -> int:
    """v reduced against an echelon basis: 0 exactly when v lies in the span."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def echelon(vectors) -> tuple:
    """The reduced echelon basis of the span of the vectors."""
    basis: list[int] = []
    for v in vectors:
        v = reduced(v, basis)
        if v:
            # v is clear at every pivot; clear v's pivot from the other rows
            basis = sorted([min(b, b ^ v) for b in basis] + [v], reverse=True)
    return tuple(basis)


def span(basis) -> list:
    """All 2^k vectors of the subspace with the given basis."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


# Largest image, by dimension, whose points an exact scan walks.
_MAX_SPAN_DIM = 20


def _image_sum(image: tuple, factors) -> int:
    """Sum over y in the image W, an echelon basis, of prod table[(y >> off) & mask] over places."""
    if len(image) > _MAX_SPAN_DIM:
        raise ResourceLimitError(f"square-class image exceeds 2^{_MAX_SPAN_DIM} points")
    return sum(math.prod(t[(y >> off) & mask] for off, mask, t in factors) for y in span(image))


def exact_scan(tables: dict, max_norm: int, r1: int) -> DensityResult:
    """Exact counts over the 2^k characters of norm below max_norm.

    They are the products of -1, 2 and the odd primes below max_norm (only
    1 at max_norm = 2).  A flip depends only on the image in
    prod_{v in Sigma} Q_v^x/(Q_v^x)^2 = F_2^dim (coordinates: the bits of
    ``square_class_index``, place after place), and each point of the image
    W has 2^k/|W| preimages; the Sigma-trivial twists lie over 0, and the
    scan counts only them, every flip +1, when some omega is unknown.
    """
    if max_norm < 2:
        raise InvalidInputError("bound must be >= 2")
    gens = [-1, 2, *iter_primes(3, max_norm)] if max_norm > 2 else []
    layout, dim = [], 0  # (place, offset of its coordinates, mask of its index)
    for v, row in tables.items():
        layout.append((v, dim, len(row) - 1))
        dim += len(row).bit_length() - 1
    image = echelon(sum(square_class_index(g, v) << off for v, off, _ in layout) for g in gens)
    kernel = 1 << (len(gens) - len(image))
    if _unknown(tables):
        warning = "incomplete profiles; restricted to the Sigma-trivial subgroup"
        return _counts("sigma_trivial_only", kernel, kernel, r1, warning=warning)
    factors = [(off, mask, tables[v]) for v, off, mask in layout]
    plus_in_image = ((1 << len(image)) + _image_sum(image, factors)) // 2
    return _counts("exhaustive", 1 << len(gens), kernel * plus_in_image, r1)


def density_scan(tables: dict, sample: int, bound: int, r1: int, seed: int) -> DensityResult:
    """Monte-Carlo fraction of twists with even predicted Selmer parity.

    Draws ``sample`` uniform squarefree d in [-bound, bound] with the
    recorded seed.  When some omega is unknown the scan falls back to the
    Sigma-trivial twists (every flip is +1 there) and says so; it then
    counts ``sample`` twists, all even-flip, without drawing any.
    """
    if bound < 2:
        raise InvalidInputError("monte-carlo mode needs a bound >= 2")
    if sample < 1:
        raise InvalidInputError("monte-carlo mode needs a sample >= 1")
    if _unknown(tables):  # every flip is +1 on the Sigma-trivial twists: no draw moves a count
        warning = "incomplete profiles; restricted to Sigma-trivial twists"
        return _counts("monte_carlo_sigma_trivial", sample, sample, r1,
                       seed=seed, bound=bound, warning=warning)
    rng = random.Random(seed)
    kept = plus = draws = 0
    while kept < sample:
        draws += 1
        if draws > 100000 * sample + 1000:
            raise ResourceLimitError("rejection sampling is not terminating")
        n = rng.randint(-bound, bound)
        if n != 0 and is_squarefree(n):
            kept += 1
            plus += math.prod(row[square_class_index(n, v)] for v, row in tables.items()) == 1
    return _counts("monte_carlo", kept, plus, r1, seed=seed, bound=bound)
