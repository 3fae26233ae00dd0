"""The built-in verification suite over the worked example curves.

Six sub-checks, each reporting pass/fail independently:

  a. rational 2-torsion dimension is 2 for both example quintics
  b. the sextic-to-quintic substitution identity, checked by exact
     expansion against the quintic of the C_H the suite built; on mismatch
     the exact quotient is reported, and the check passes only if it is
     the known (91x^2+60x+10)/(100x^2+60x+1)
  c. the global consistency identity holds on a sample of Sigma-trivial
     twists of C_H, which is why their parity flip is +1
  d. the fixed-space dimension formula against the row-reduction oracle
  e. disjoint-Lagrangian counts 1, 2, 8 in dimensions 2, 4, 6
  f. the global consistency identity across all golden curves

Checks d and e test two lemmas of the argument on their own, with no
curve, and the code they run lives here beside them:

  d. The pi-torsion sits inside F_p^n spanned by root classes, modulo the
     all-ones relation.  The fixed-space dimension of a permutation acting
     on that quotient is computed by honest row reduction; the closed form
     (#cycles - 1) is deliberately NOT used there, so the check tests the
     formula against this oracle instead of assuming it.
  e. The space is the hyperbolic one, F_2^(2m) with q(x, y) = sum of
     x_i y_i, x_i at bit 2i and y_i at bit 2i + 1; a subspace is its
     echelon basis, as in ``parity``.  Enumeration of Lagrangians walks
     isotropic flags in reduced-echelon order: basis rows are added with
     strictly decreasing pivots and kept reduced against each other, so
     every subspace is produced exactly once and no dedup pass is needed.
"""

from __future__ import annotations

import random

from .characters import sigma_trivial
from .curves import curve_hash
from .errors import InvalidInputError, ResourceLimitError
from .modular import is_squarefree
from .frobenius import sigma_set
from .papercases import (
    GOLDEN_CURVES,
    TRANSFORM_CONSTANT,
    sextic_h0,
)
from .parity import echelon, global_consistency_check, reduced
from .ratpoly import RatPoly, homogenize
from .torsion import rational_two_torsion_dim

__all__ = [
    "run_paper_verification",
    "transformation_identity",
    "cycle_lengths",
    "fixed_space_dim",
    "lagrangians",
    "count_disjoint_lagrangians",
]

# x^6 * h0((3x+1)/x) / (c^2 * h(x)), the one mismatch check b accepts
_EXPECTED_QUOTIENT = ("91*x^2 + 60*x + 10", "100*x^2 + 60*x + 1")


def transformation_identity(h: RatPoly):
    """Exact expansion of x^6 * h0((3x+1)/x) against c^2 * h(x), h the
    quintic of C_H.

    Returns a dict with the outcome; when the two sides differ the exact
    quotient (as a reduced rational function) is part of the result.
    """
    h0 = sextic_h0()
    num = RatPoly((1, 3))
    den = RatPoly((0, 1))
    lhs = homogenize(h0, num, den)
    rhs = h * TRANSFORM_CONSTANT**2
    if lhs == rhs:
        return {"identity_holds": True, "constant": str(TRANSFORM_CONSTANT)}
    g = lhs.gcd(rhs)
    qn = (lhs.divmod(g)[0]).monic()
    qd = (rhs.divmod(g)[0]).monic()
    scale = lhs.lead / rhs.lead
    # present the quotient with integer primitive parts
    qn_int, sn = qn.primitive_int()
    qd_int, sd = qd.primitive_int()
    const = scale * sd / sn
    return {
        "identity_holds": False,
        "status": "mismatch_reported",
        "quotient_numerator": str(RatPoly(qn_int) * const.numerator),
        "quotient_denominator": str(RatPoly(qd_int) * const.denominator),
        "lead_ratio": str(scale),
        "shared_factor_degree": g.degree,
    }


def _sample_sigma_trivial(curve, count, bound, rng):
    """Seeded rejection sample of Sigma-trivial twists (d = 1 mod 8, d > 0)."""
    sigma = sigma_set(curve)
    out = []
    draws = 0
    while len(out) < count:
        draws += 1
        if draws > 500000:
            raise ResourceLimitError("sampling stalled; widen the bound")
        d = rng.randrange(1, bound) | 1
        d += (1 - d) % 8
        if d != 1 and sigma_trivial(d, sigma) and is_squarefree(d):
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# check d: the fixed-space dimension of a permutation module


def cycle_lengths(images) -> tuple:
    """Sorted cycle lengths of the permutation i -> images[i] of {0..n-1}."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        m = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            m += 1
        if m:
            out.append(m)
    return tuple(sorted(out))


def _rank_mod_p(rows, p: int) -> int:
    """Rank of a matrix (list of row lists) over F_p by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col] % p
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fixed_space_dim(images, p: int) -> int:
    """dim over F_p of the fixed subspace of F_p^n / <all-ones> under a permutation.

    The permutation sigma: i -> images[i] of {0..n-1} acts on coordinates
    by (sigma v)_i = v_images[i]; acting through its inverse instead fixes
    the same vectors.  Computed by row-reducing the matrix of
    (sigma - 1) composed with the projection killing the all-ones line:
    v is fixed in the quotient iff (sigma - 1)v lies on the line, and the
    line itself is always fixed.
    """
    n = len(images)
    if n % p == 0:
        raise InvalidInputError("p must not divide n")
    # B v = projection of (sigma - 1) v: coordinates i < n-1 of w - w_n * 1
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[images[i]] += 1
        row[i] -= 1
        row[images[n - 1]] -= 1
        row[n - 1] += 1
        rows.append([x % p for x in row])
    kernel_dim = n - _rank_mod_p(rows, p)
    return kernel_dim - 1


# ---------------------------------------------------------------------------
# check e: the Lagrangians of the hyperbolic space

_ENUM_MAX_M = 5
_X_BITS = int("01" * _ENUM_MAX_M, 2)  # the x_i coordinates, bits 0, 2, ...


def _q(v: int) -> int:
    """The hyperbolic form sum x_i y_i, for dimension up to 2 * _ENUM_MAX_M."""
    return bin(v & (v >> 1) & _X_BITS).count("1") & 1


def lagrangians(m: int, disjoint_from=()):
    """Yield every Lagrangian of the hyperbolic space F_2^(2m), as its echelon
    basis, that meets the subspace with echelon basis ``disjoint_from`` in 0.

    Each row is isotropic and orthogonal to the rows before it: for
    isotropic v and w that is q(v + w) = 0.  A candidate in the span of
    ``disjoint_from`` and the rows so far is dropped.  Above m = 5 the
    walk raises ResourceLimitError.
    """
    if m > _ENUM_MAX_M:
        raise ResourceLimitError(f"enumeration bounded at dim {2 * _ENUM_MAX_M}")

    def extend(rows, candidates, joined):
        if len(rows) == m:
            yield tuple(rows)
            return
        for idx, v in enumerate(candidates):
            pv = v.bit_length()
            # full reduced-echelon shape, so each subspace is built once:
            # pivots decrease, and earlier rows are clear at pv
            if rows and pv >= rows[-1].bit_length() or any(r >> (pv - 1) & 1 for r in rows):
                continue
            grown = echelon(joined + (v,))
            nxt = [w for w in candidates[idx + 1 :] if not _q(v ^ w) and reduced(w, grown)]
            yield from extend(rows + [v], nxt, grown)

    iso = [v for v in range((1 << 2 * m) - 1, 0, -1) if not _q(v) and reduced(v, disjoint_from)]
    yield from extend([], iso, tuple(disjoint_from))


def count_disjoint_lagrangians(m: int, x) -> int:
    """|{Lagrangian Y : Y meets X trivially}| for X with echelon basis x."""
    return sum(1 for _ in lagrangians(m, disjoint_from=x))



def run_paper_verification(seed: int):
    """The suite's report inputs and outputs: the embedded curves' hashes,
    and each check's name, verdict and details in the order a to f."""
    rng = random.Random(seed)
    curves = {name: build() for name, build in GOLDEN_CURVES.items()}
    checks = []  # (name, passed, details)

    # a. torsion dimensions
    dims = {name: rational_two_torsion_dim(curves[name]) for name in ("h_quintic", "g_quintic")}
    passed = dims["h_quintic"] == 2 and dims["g_quintic"] == 2
    checks.append(("two_torsion_dimensions", passed, dims))

    # b. substitution identity with exact quotient on mismatch
    ident = transformation_identity(curves["h_quintic"].f)
    passed = ident["identity_holds"] or (
        (ident["quotient_numerator"], ident["quotient_denominator"]) == _EXPECTED_QUOTIENT
    )
    checks.append(("sextic_transformation_identity", passed, ident))

    # c. Sigma-trivial twists of C_H never flip parity
    ch = curves["h_quintic"]
    twists = _sample_sigma_trivial(ch, 200, 10**6, rng)
    # parity_flip returns +1 on a Sigma-trivial d before it reads any table;
    # the reason it is +1, the half that can fail, is the consistency identity:
    # prod_Sigma (d, disc)_v = 1, so the good-prime h over d's primes sum even
    bad = [d for d in twists if not global_consistency_check(ch, d)]
    details = {"sampled": len(twists), "violations": bad, "first_five": twists[:5]}
    checks.append(("sigma_trivial_parity_preserved", not bad, details))

    # d. fixed-space oracle vs the closed form
    trials = 0
    mismatches = []
    while trials < 1000:
        n = rng.choice((3, 5, 7, 9))
        p = rng.choice((2, 3, 5))
        if n % p == 0:
            continue
        trials += 1
        images = list(range(n))
        rng.shuffle(images)
        if fixed_space_dim(images, p) != len(cycle_lengths(images)) - 1:
            mismatches.append((n, p, images))
    details = {"trials": trials, "mismatches": mismatches[:3]}
    checks.append(("fixed_space_dimension_oracle", not mismatches, details))

    # e. disjoint-Lagrangian counts in dims 2, 4, 6
    counts = [
        count_disjoint_lagrangians(m, echelon(1 << (2 * i) for i in range(m))) for m in (1, 2, 3)
    ]
    details = {"dims": [2, 4, 6], "counts": counts, "expected": [1, 2, 8]}
    checks.append(("disjoint_lagrangian_counts", counts == [1, 2, 8], details))

    # f. global consistency identity across the golden curves
    failures = []
    per_curve = {}
    for name, curve in curves.items():
        ok = 0
        for _ in range(40):
            d = 0
            while d == 0 or not is_squarefree(d):
                d = rng.randint(-(10**6), 10**6)
            if global_consistency_check(curve, d):
                ok += 1
            else:
                failures.append((name, d))
        per_curve[name] = ok
    details = {"per_curve_passes": per_curve, "failures": failures[:5]}
    checks.append(("global_consistency_identity", not failures, details))

    hashes = {name: curve_hash(curve) for name, curve in curves.items()}
    return {"embedded_curves": hashes}, {
        "checks": [{"name": n, "passed": p, "details": d} for n, p, d in checks],
        "all_passed": all(p for _, p, _ in checks),
    }
