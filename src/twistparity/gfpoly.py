"""Dense polynomial arithmetic over GF(l), the kernel of ``factor_degrees``.

A polynomial is a list of ints in [0, l), ascending degree; the gcds trim
theirs (the zero polynomial is the empty list).  Residues mod a fixed
monic f of degree n are lists of exactly n coefficients, multiplied
Kronecker-packed (Harvey, J. Symb. Comput. 2009): coefficient i sits in
slot i of one int, with slots wide enough that one int product is the
polynomial product, no slot carrying into the next.  The high slots of a
product weight packed rows of x^n .. x^(2n-1) mod f, so each step
reduces each slot mod l once.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from struct import Struct

__all__ = [
    "trim",
    "quo_rem",
    "gcd",
    "residue_ring",
    "fold",
    "x_pow",
    "frobenius_matrix",
    "frobenius",
    "pad",
]


def trim(a):
    """Drop the zero leading coefficients of a, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def quo_rem(a, b, l):
    """Quotient and remainder of a by a nonzero b."""
    a = list(a)
    m = len(b) - 1
    inv = pow(b[-1], -1, l)
    neg = [-y for y in b[:-1]]
    q = []
    for t in range(len(a) - 1, m - 1, -1):
        c = a.pop() * inv % l
        q.append(c)
        if c:  # reduced mod l once, at the end
            a[t - m : t] = map(add, a[t - m : t], map(mul, neg, repeat(c)))
    return trim(q[::-1]), trim([c % l for c in a])


def gcd(a, b, l):
    """The monic gcd of a and b (empty if both are zero)."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, quo_rem(a, b, l)[1]
    if a:
        inv = pow(a[-1], -1, l)
        a = [c * inv % l for c in a]
    return a


def residue_ring(f, l):
    """GF(l)[x]/f for a monic f of degree n >= 2, packed: (l, slot bits, shape, rows).

    Slots are 64 w bits wide, the least w holding 2n (l-1)^2, so the width
    grows with l; ``shape`` packs their n w words; rows[k] is x^(n+k) mod f.
    """
    n = len(f) - 1
    w = -(-(2 * n * (l - 1) ** 2).bit_length() // 64)
    ring = (l, 64 * w, Struct(f"<{n * w}Q"), [])
    first = row = [-c % l for c in f[:-1]]
    for _ in range(n - 1):
        ring[3].append(_packed(row, ring))
        row = [(y + row[-1] * z) % l for y, z in zip([0] + row, first)]
    ring[3].append(_packed(row, ring))
    return ring


def _packed(a, ring):
    """The int whose slot i holds a[i], for a reduced residue a."""
    l, width, shape, rows = ring
    if width == 64:
        return int.from_bytes(shape.pack(*a), "little")
    return int.from_bytes(b"".join(c.to_bytes(width // 8, "little") for c in a), "little")


def _slots(x, ring):
    """The n low slots of the packed x, each reduced mod l."""
    l, width, shape, rows = ring
    b = x.to_bytes(shape.size, "little")
    if width == 64:
        return [c % l for c in shape.unpack(b)]
    step = width // 8
    return [int.from_bytes(b[i : i + step], "little") % l for i in range(0, len(b), step)]


def fold(s, ring):
    """s mod f as a reduced list, for s a packed product of two reduced residues.

    The at most 2n slots of s are below n (l-1)^2; the high n, reduced,
    weight the rows x^(n+k) mod f, so each low slot stays below 2n (l-1)^2.
    """
    low = len(ring[3]) * ring[1]
    hi = _slots(s >> low, ring)
    return _slots(sum(map(mul, hi, ring[3]), s & ((1 << low) - 1)), ring)


def x_pow(e, ring):
    """x^e mod f, for deg f >= 2, by left-to-right squaring of packed residues.

    Powers of x below deg f are written down; each square is one int
    product, and a multiply by x shifts it by one slot before the fold.
    """
    n = len(ring[3])
    k, bits = 1, bin(e)[3:]
    while bits and 2 * k + int(bits[0]) < n:
        k, bits = 2 * k + int(bits[0]), bits[1:]
    r = [0] * n
    r[k] = 1
    for bit in bits:
        x = _packed(r, ring)
        r = fold(x * x << ring[1] * (bit == "1"), ring)
    return r


def frobenius_matrix(xl, ring):
    """The packed powers (x^l)^i mod f for i < deg f: the matrix of g -> g^l.

    Since g(x)^l = g(x^l) for g over GF(l), g^l is the sum of g_i (x^l)^i.
    """
    rows = [1, _packed(xl, ring)]
    while len(rows) < len(xl):
        rows.append(_packed(fold(rows[-1] * rows[1], ring), ring))
    return rows


def frobenius(g, matrix, ring):
    """g^l mod f as a reduced list, given the Frobenius matrix of f."""
    return _slots(sum(map(mul, g, matrix)), ring)


def pad(a, n):
    """a with zeros appended up to length n."""
    return a + [0] * (n - len(a))
