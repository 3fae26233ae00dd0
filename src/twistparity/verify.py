"""The built-in verification suite over the worked example curves.

Six sub-checks, each reporting pass/fail independently:

  a. rational 2-torsion dimension is 2 for both example quintics
  b. the sextic-to-quintic substitution identity, checked by exact
     expansion; on mismatch the exact quotient is reported, and the check
     passes only if it is the known (91x^2+60x+10)/(100x^2+60x+1)
  c. parity flip is +1 and the global consistency identity holds on a
     sample of Sigma-trivial twists of C_H
  d. the fixed-space dimension formula against the row-reduction oracle
  e. disjoint-Lagrangian counts 1, 2, 8 in dimensions 2, 4, 6
  f. the global consistency identity across all golden curves
"""

from __future__ import annotations

import random

from .characters import sigma_trivial
from .curves import curve_hash
from .errors import ResourceLimitError
from .metabolic import count_disjoint_lagrangians, echelon
from .modular import is_squarefree
from .frobenius import sigma_set
from .papercases import (
    GOLDEN_CURVES,
    TRANSFORM_CONSTANT,
    curve_g,
    curve_h,
    sextic_h0,
)
from .parity import global_consistency_check, omega_tables, parity_flip
from .ratpoly import RatPoly, homogenize
from .torsion import cycle_lengths, fixed_space_dim, rational_two_torsion_dim

__all__ = ["run_paper_verification", "transformation_identity"]

# x^6 * h0((3x+1)/x) / (c^2 * h(x)), the one mismatch check b accepts
_EXPECTED_QUOTIENT = ("91*x^2 + 60*x + 10", "100*x^2 + 60*x + 1")


def transformation_identity():
    """Exact expansion of x^6 * h0((3x+1)/x) against c^2 * h(x).

    Returns a dict with the outcome; when the two sides differ the exact
    quotient (as a reduced rational function) is part of the result.
    """
    h0 = sextic_h0()
    h = curve_h().f
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


def run_paper_verification(seed: int):
    """The suite's report inputs and outputs: the embedded curves' hashes,
    and each check's name, verdict and details in the order a to f."""
    rng = random.Random(seed)
    checks = []  # (name, passed, details)

    # a. torsion dimensions
    dims = {
        "h_quintic": rational_two_torsion_dim(curve_h()),
        "g_quintic": rational_two_torsion_dim(curve_g()),
    }
    passed = dims["h_quintic"] == 2 and dims["g_quintic"] == 2
    checks.append(("two_torsion_dimensions", passed, dims))

    # b. substitution identity with exact quotient on mismatch
    ident = transformation_identity()
    passed = ident["identity_holds"] or (
        (ident["quotient_numerator"], ident["quotient_denominator"]) == _EXPECTED_QUOTIENT
    )
    checks.append(("sextic_transformation_identity", passed, ident))

    # c. Sigma-trivial twists of C_H never flip parity
    ch = curve_h()
    tables = omega_tables(ch)
    twists = _sample_sigma_trivial(ch, 200, 10**6, rng)
    # parity_flip is +1 on every Sigma-trivial d by construction; the reason
    # it holds is the consistency identity: prod_Sigma (d, disc)_v = 1, so the
    # good-prime h over the primes of d must sum to an even number
    bad = [
        d for d in twists
        if parity_flip(tables, d).flip != 1 or not global_consistency_check(ch, d)
    ]
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
    for name, build in GOLDEN_CURVES.items():
        curve = build()
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

    hashes = {name: curve_hash(build()) for name, build in GOLDEN_CURVES.items()}
    return {"embedded_curves": hashes}, {
        "checks": [{"name": n, "passed": p, "details": d} for n, p, d in checks],
        "all_passed": all(p for _, p, _ in checks),
    }
