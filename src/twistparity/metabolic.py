"""F_2 subspaces as echelon bases, and the Lagrangians of a hyperbolic space.

A vector of F_2^n is an int, bit i its i-th coordinate.  A subspace is
its reduced echelon basis: a tuple of ints with strictly decreasing
pivots (top bits), each pivot clear in every other row, so the same
tuple comes out whatever vectors span it.

The metabolic space is the hyperbolic one, F_2^(2m) with
q(x, y) = sum of x_i y_i, x_i at bit 2i and y_i at bit 2i + 1.
Enumeration of Lagrangians walks isotropic flags in reduced-echelon
order: basis rows are added with strictly decreasing pivots and kept
reduced against each other, so every subspace is produced exactly once
and no dedup pass is needed.
"""

from __future__ import annotations

from .errors import ResourceLimitError

__all__ = ["echelon", "span", "lagrangians", "count_disjoint_lagrangians"]

_ENUM_MAX_M = 5
_X_BITS = int("01" * _ENUM_MAX_M, 2)  # the x_i coordinates, bits 0, 2, ...


def _reduce(v: int, basis) -> int:
    """v reduced against an echelon basis: 0 exactly when v lies in its span."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def echelon(vectors) -> tuple:
    """The reduced echelon basis of the span of the vectors."""
    basis: list[int] = []
    for v in vectors:
        v = _reduce(v, basis)
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
            nxt = [w for w in candidates[idx + 1 :] if not _q(v ^ w) and _reduce(w, grown)]
            yield from extend(rows + [v], nxt, grown)

    iso = [v for v in range((1 << 2 * m) - 1, 0, -1) if not _q(v) and _reduce(v, disjoint_from)]
    yield from extend([], iso, tuple(disjoint_from))


def count_disjoint_lagrangians(m: int, x) -> int:
    """|{Lagrangian Y : Y meets X trivially}| for X with echelon basis x."""
    return sum(1 for _ in lagrangians(m, disjoint_from=x))
