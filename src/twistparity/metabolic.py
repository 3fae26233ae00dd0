"""F_2 quadratic-form spaces, Lagrangian testing and enumeration.

Vectors live in F_2^(2m) packed as Python ints.  A form is stored as a
linear part plus the strictly-upper-triangular coefficients of its
quadratic part; the induced pairing (v,w) = q(v+w)+q(v)+q(w) must be
nondegenerate.  Spaces are built as orthogonal sums of hyperbolic planes,
which guarantees a Lagrangian exists.

Enumeration of Lagrangians walks isotropic flags in reduced-echelon
order: basis rows are added with strictly decreasing pivots and reduced
against earlier pivots, so every subspace is produced exactly once and
no dedup pass is needed.
"""

from __future__ import annotations

from .errors import InvalidInputError, ResourceLimitError

__all__ = [
    "QuadraticSpace",
    "Subspace",
    "is_lagrangian",
    "lagrangians",
    "count_disjoint_lagrangians",
]

_ENUM_MAX_M = 5


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _echelonize(vectors):
    """Canonical reduced echelon basis (tuple of ints, decreasing pivots)."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            # v is clear at every pivot; clear v's pivot from the other rows
            basis = sorted([min(b, b ^ v) for b in basis] + [v], reverse=True)
    return tuple(basis)


class Subspace:
    """A subspace of F_2^dim in canonical reduced echelon form."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple):
        self.basis = basis

    def __eq__(self, other):
        return self.basis == other.basis if isinstance(other, Subspace) else NotImplemented

    @classmethod
    def from_vectors(cls, vectors) -> "Subspace":
        return cls(_echelonize(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        for b in self.basis:
            v = min(v, v ^ b)
        return v == 0

    def vectors(self):
        """All 2^dim member vectors."""
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return out


class QuadraticSpace:
    """(V, q) with V = F_2^dim and q given by linear + upper-triangular data."""

    __slots__ = ("dim", "linear", "upper")

    def __init__(self, dim: int, linear: int, upper):
        if dim % 2:
            raise InvalidInputError("metabolic spaces have even dimension")
        self.dim = dim
        self.linear = linear
        self.upper = tuple(upper)  # upper[i] = mask of j>i with coefficient 1
        if len(self.upper) != dim:
            raise InvalidInputError("upper-triangular data has wrong length")
        for i, row in enumerate(self.upper):
            if row & ((1 << (i + 1)) - 1):
                raise InvalidInputError("upper rows must only use columns > i")
        if not self._pairing_nondegenerate():
            raise InvalidInputError("induced pairing is degenerate")

    # -- construction ------------------------------------------------------

    @classmethod
    def hyperbolic(cls, m: int) -> "QuadraticSpace":
        """Orthogonal sum of m hyperbolic planes: q(..., x_i, y_i, ...) = sum x_i y_i."""
        upper = []
        for i in range(2 * m):
            upper.append(1 << (i + 1) if i % 2 == 0 else 0)
        return cls(2 * m, 0, upper)

    # -- evaluation --------------------------------------------------------

    def q(self, v: int) -> int:
        acc = _parity(self.linear & v)
        for i, row in enumerate(self.upper):
            if (v >> i) & 1 and row:
                acc ^= _parity(row & v)
        return acc

    def pair(self, v: int, w: int) -> int:
        """(v, w)_q = q(v+w) + q(v) + q(w)."""
        return self.q(v ^ w) ^ self.q(v) ^ self.q(w)

    def _pairing_nondegenerate(self) -> bool:
        n = self.dim
        gram = []
        for i in range(n):
            row = 0
            for j in range(n):
                if i != j and self.pair(1 << i, 1 << j):
                    row |= 1 << j
            gram.append(row)
        return len(_echelonize(gram)) == n


def is_lagrangian(space: QuadraticSpace, sub: Subspace) -> bool:
    """q vanishes on sub, sub is self-orthogonal, and dim sub = dim V / 2.

    q(u+v) = q(u) + q(v) + (u,v), so vanishing on the basis plus pairwise
    orthogonality is vanishing on the whole subspace.
    """
    for b in sub.basis:
        if b >> space.dim:
            raise InvalidInputError("subspace vector outside the ambient space")
    if sub.dim * 2 != space.dim:
        return False
    bs = sub.basis
    if any(space.q(b) for b in bs):
        return False
    return not any(
        space.pair(bs[i], bs[j]) for i in range(len(bs)) for j in range(i + 1, len(bs))
    )


def lagrangians(space: QuadraticSpace, disjoint_from: Subspace | None = None):
    """Yield every Lagrangian of the space, optionally meeting X only in 0.

    Exhaustive recursive extension of isotropic flags; rows are produced
    in canonical echelon order so each Lagrangian appears exactly once.
    """
    m = space.dim // 2
    if m > _ENUM_MAX_M:
        raise ResourceLimitError(f"enumeration bounded at dim {2 * _ENUM_MAX_M}")
    iso = [v for v in range(1, 1 << space.dim) if space.q(v) == 0]
    if disjoint_from is not None:
        iso = [v for v in iso if not disjoint_from.contains(v)]

    def extend(rows, pivots, candidates, joined):
        if len(rows) == m:
            yield Subspace(tuple(rows))
            return
        for idx, v in enumerate(candidates):
            pv = v.bit_length()
            if pivots and pv >= pivots[-1]:
                continue
            # full reduced-echelon shape, so each subspace is built once:
            # v is clear at earlier pivots, earlier rows are clear at pv
            if any((v >> (p - 1)) & 1 for p in pivots):
                continue
            if any((r >> (pv - 1)) & 1 for r in rows):
                continue
            if disjoint_from is not None:
                red = v
                for b in joined:
                    red = min(red, red ^ b)
                if red == 0:
                    continue
            nxt = [w for w in candidates[idx + 1 :] if space.pair(v, w) == 0]
            new_joined = _echelonize(joined + (v,)) if disjoint_from is not None else ()
            yield from extend(rows + [v], pivots + [pv], nxt, new_joined)

    iso_sorted = sorted(iso, reverse=True)
    base_joined = disjoint_from.basis if disjoint_from is not None else ()
    yield from extend([], [], iso_sorted, tuple(base_joined))


def count_disjoint_lagrangians(space: QuadraticSpace, x: Subspace) -> int:
    """|{Lagrangian Y : Y meets X trivially}| by exhaustive enumeration."""
    if not is_lagrangian(space, x):
        raise InvalidInputError("X must itself be Lagrangian")
    return sum(1 for _ in lagrangians(space, disjoint_from=x))
