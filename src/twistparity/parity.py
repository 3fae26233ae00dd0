"""Local parity invariants h_v / omega_v, the flip predictor and disparity.

The parity of a twisted Selmer rank moves relative to the untwisted one
by sum_v h_v(chi_v) mod 2, and that sum is controlled place-by-place by
the weight omega_v(chi) = (-1)^h_v(chi) * chi_v(disc).  At good primes
h is computable from the Frobenius cycle type; at the real place it is
k1 - 1 for the sign character; at finite bad places no algorithm exists
at this level, so values there are user-supplied tables (LocalProfile)
and every output that consumed a missing entry says so in its status.
``omega_tables`` holds omega_v over the local classes at each place of
Sigma; flips, scans and disparity all read from it.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .characters import QuadTwist, local_classes, local_square_class
from .curves import CurveSpec
from .errors import InvalidInputError, ResourceLimitError, UnknownProfileError
from .frobenius import PrimeCache, classify_prime, sigma_set
from .metabolic import Subspace
from .modular import Place, factor_integer, hilbert_symbol, is_squarefree, iter_primes

__all__ = [
    "LocalProfile",
    "infinity_profile",
    "omega_tables",
    "ParityVerdict",
    "parity_flip",
    "global_consistency_check",
    "delta_v",
    "delta_inf_closed_form",
    "DisparityReport",
    "disparity",
    "DensityResult",
    "density_scan",
]


class LocalProfile:
    """h_v values over the local character classes at one place.

    Keys are the canonical square-class representatives; a value of None
    marks an entry as unknown.  The trivial class must carry h = 0.
    """

    __slots__ = ("place", "table")

    def __init__(self, place: Place, table: dict):
        labels = local_classes(place)
        for k in table:
            if k not in labels:
                raise InvalidInputError(f"label {k} is not a canonical class at place {place}")
        if table.get(1, 0) not in (0, None):
            raise InvalidInputError("h(trivial) must be 0")
        self.place = place
        self.table = dict(table)
        self.table.setdefault(1, 0)

    def h(self, label: int):
        """h for a class label, or None when unknown."""
        if label == 1:
            return 0
        return self.table.get(label)


def infinity_profile(curve: CurveSpec) -> LocalProfile:
    """Auto-filled real-place table: h(sign) = k1 - 1."""
    _, k1, _ = curve.real_root_signature()
    return LocalProfile(Place.infinity(), {1: 0, -1: k1 - 1})


class ParityVerdict(namedtuple("ParityVerdict", "flip status missing", defaults=((),))):
    """flip = product of omega_v over the bad set; +1 means parity preserved.

    status 'exact' when every consumed h-entry was known, 'relative_only'
    when the twist is locally trivial on the whole bad set (no local data
    needed), 'unknown' with the missing places otherwise (flip is None).
    """

    __slots__ = ()


def _omega_row(curve: CurveSpec, place: Place, profile: LocalProfile | None) -> dict:
    """{label: omega_v or None} over ``local_classes(place)`` at a place of Sigma.

    omega_v = (-1)^h * chi_v(disc), with chi_v(disc) the Hilbert symbol
    (label, disc)_v, which only depends on the square class of the label;
    None where h is unknown.  The real place reads h from the curve.
    """
    if place.is_infinity:
        profile = infinity_profile(curve)
    disc = curve.discriminant()
    row = {1: 1}
    for label in local_classes(place)[1:]:
        h = None if profile is None else profile.h(label)
        row[label] = None if h is None else (-1) ** h * hilbert_symbol(label, disc, place)
    return row


def omega_tables(curve: CurveSpec, profiles: dict | None = None) -> dict:
    """{place: {label: omega_v or None}} over Sigma, labels in ``local_classes`` order.

    The real place is filled in from the curve; a finite place reads its h
    table from ``profiles``, and without one only its trivial class is known.
    """
    profiles = profiles or {}
    return {
        place: _omega_row(curve, place, profiles.get(place))
        for place in sigma_set(curve).iter_places()
    }


def parity_flip(
    curve: CurveSpec, d: QuadTwist, profiles: dict | None = None
) -> ParityVerdict:
    if d.is_trivial:
        return ParityVerdict(1, "exact")
    classes = {v: local_square_class(d, v) for v in sigma_set(curve).iter_places()}
    if all(c == 1 for c in classes.values()):
        return ParityVerdict(1, "relative_only")
    tables = omega_tables(curve, profiles)
    weights = {v: tables[v][c] for v, c in classes.items()}
    missing = tuple(place for place, w in weights.items() if w is None)
    if missing:
        return ParityVerdict(None, "unknown", missing)
    return ParityVerdict(math.prod(weights.values()), "exact")


def global_consistency_check(
    curve: CurveSpec,
    d: QuadTwist,
    cache: PrimeCache | None = None,
) -> bool:
    """Check (-1)^(sum of good-prime h over l | d) = prod_Sigma (d, disc)_v.

    The left side goes through finite-field factorization (cycle types),
    the right side through Hilbert symbols; the identity is a theorem, so
    any False return is a bug in one of the two pipelines.
    """
    sigma = sigma_set(curve)
    hsum = 0
    for l in factor_integer(abs(d.d)):
        if l not in sigma and l != 2:
            hsum += classify_prime(curve, l, cache=cache).i
    lhs = (-1) ** hsum
    rhs = 1
    disc = curve.discriminant()
    for place in sigma.iter_places():
        rhs *= hilbert_symbol(d.d, disc, place)
    return lhs == rhs


# ---------------------------------------------------------------------------
# disparity


def delta_v(curve: CurveSpec, place: Place, profile: LocalProfile | None) -> Fraction:
    """Average of omega_v over the local character group (2, 8 or 4 classes)."""
    row = _omega_row(curve, place, profile)
    missing = [(place, label) for label, w in row.items() if w is None]
    if missing:
        raise UnknownProfileError(missing)
    return Fraction(sum(row.values()), len(row))


def delta_inf_closed_form(n: int) -> Fraction:
    """delta at the real place depends only on n mod 4: 1 or 0."""
    if n % 2 == 0:
        raise InvalidInputError("odd degree required")
    return Fraction(1) if n % 4 == 1 else Fraction(0)


class DisparityReport(namedtuple("DisparityReport", "per_place delta even_density r1_parity")):
    __slots__ = ()

    def as_json_dict(self):
        return {
            "delta_v": {str(p): str(v) for p, v in self.per_place.items()},
            "delta": str(self.delta),
            "even_density": str(self.even_density),
            "r1_parity": {"value": self.r1_parity, "provenance": "user"},
        }


def disparity(
    curve: CurveSpec, profiles: dict | None, r1_parity: int
) -> DisparityReport:
    """delta = (-1)^r1 * prod delta_v and the predicted even-parity density."""
    profiles = profiles or {}
    per_place = {}
    prod = Fraction(1)
    for place in sigma_set(curve).iter_places():
        dv = delta_v(curve, place, profiles.get(place))
        per_place[place] = dv
        prod *= dv
    delta = Fraction((-1) ** (r1_parity % 2)) * prod
    return DisparityReport(per_place, delta, (1 + delta) / 2, r1_parity % 2)


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


# Largest image, by dimension, whose points an exact scan walks.
_MAX_SPAN_DIM = 20


def _image_sum(image: Subspace, factors) -> int:
    """Sum over y in the image W of prod table[(y >> offset) & mask] over places."""
    if image.dim > _MAX_SPAN_DIM:
        raise ResourceLimitError(f"square-class image exceeds 2^{_MAX_SPAN_DIM} points")
    return sum(math.prod(t[(y >> off) & mask] for off, mask, t in factors) for y in image.vectors())


def _exact_scan(sigma, tables, max_norm: int, r1: int) -> DensityResult:
    """Exact counts over the 2^k characters of norm below max_norm.

    They are the products of -1, 2 and the odd primes below max_norm (only
    1 at max_norm = 2).  A flip depends only on the image in
    prod_{v in Sigma} Q_v^x/(Q_v^x)^2 = F_2^dim (coordinates: the index in
    ``local_classes(v)``), and each point of the image W has 2^k/|W|
    preimages; the Sigma-trivial twists lie over 0.
    """
    if max_norm < 2:
        raise InvalidInputError("bound must be >= 2")
    gens = [-1, 2, *iter_primes(3, max_norm)] if max_norm > 2 else []
    coords, dim = [], 0
    for v in sigma.iter_places():
        labels = local_classes(v)
        coords.append((v, dim, {label: i for i, label in enumerate(labels)}))
        dim += len(labels).bit_length() - 1
    image = Subspace.from_vectors(
        sum(ix[local_square_class(QuadTwist._unchecked(g), v)] << off for v, off, ix in coords)
        for g in gens
    )
    kernel = 1 << (len(gens) - image.dim)
    if tables is None:
        warning = "incomplete profiles; restricted to the Sigma-trivial subgroup"
        return _counts("sigma_trivial_only", kernel, kernel, r1, warning=warning)
    factors = [(off, len(ix) - 1, list(tables[v].values())) for v, off, ix in coords]
    plus_in_image = ((1 << image.dim) + _image_sum(image, factors)) // 2
    return _counts("exhaustive", 1 << len(gens), kernel * plus_in_image, r1)


def density_scan(
    curve: CurveSpec,
    profiles: dict | None = None,
    max_norm: int | None = None,
    sample: int | None = None,
    bound: int | None = None,
    r1_parity: int = 0,
    seed: int = 0,
) -> DensityResult:
    """Fraction of twists with even predicted Selmer parity.

    Exhaustive mode counts, exactly, the finite group of characters of
    norm below ``max_norm``; Monte-Carlo mode draws ``sample`` uniform
    squarefree d in [-bound, bound] with the recorded seed.  When the
    profiles leave some omega undetermined the scan falls back to the
    Sigma-trivial subgroup (every flip is +1 there) and says so; a sampled
    scan then counts ``sample`` twists, all even-flip, without drawing any.
    """
    if (max_norm is None) == (sample is None):
        raise InvalidInputError("choose exactly one of max_norm / sample")
    r1 = r1_parity % 2
    tables = omega_tables(curve, profiles)
    restricted = any(w is None for row in tables.values() for w in row.values())
    if max_norm is not None:
        return _exact_scan(sigma_set(curve), None if restricted else tables, max_norm, r1)

    if bound is None or bound < 2:
        raise InvalidInputError("monte-carlo mode needs a bound >= 2")
    if sample < 1:
        raise InvalidInputError("monte-carlo mode needs a sample >= 1")
    if restricted:  # every flip is +1 on the Sigma-trivial twists: no draw moves a count
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
            d = QuadTwist._unchecked(n)
            kept += 1
            plus += math.prod(tab[local_square_class(d, v)] for v, tab in tables.items()) == 1
    return _counts("monte_carlo", kept, plus, r1, seed=seed, bound=bound)
