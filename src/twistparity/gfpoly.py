"""Dense polynomial arithmetic over GF(l), the kernel of ``factor_degrees``.

A polynomial is a list of ints in [0, l), ascending degree.  General
polynomials are trimmed (no zero leading coefficient; the zero
polynomial is the empty list).  Residues mod a fixed monic f of degree n
are lists of exactly n coefficients, whose top ones may be zero, so the
fixed-modulus steps never trim or pop: products are summed unreduced and
then folded through a table of x^n .. x^(2n-1) mod f, which reduces each
coefficient mod l once.
"""

from __future__ import annotations

from operator import mul

__all__ = [
    "trim",
    "quo_rem",
    "gcd",
    "fold_columns",
    "fold",
    "modmul",
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
    inv = pow(b[-1], -1, l)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while a and len(a) >= len(b):
        c = a[-1] * inv % l
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % l
        trim(a)
    return trim(q), a


def gcd(a, b, l):
    """The monic gcd of a and b (empty if both are zero)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, quo_rem(a, b, l)[1]
    if a:
        inv = pow(a[-1], -1, l)
        a = [c * inv % l for c in a]
    return a


def fold_columns(f, l):
    """The table of x^n .. x^(2n-1) mod a monic f of degree n, by columns.

    Entry k of column j is the x^j coefficient of x^(n+k) mod f, so that
    reducing a product mod f is one dot product per output coefficient.
    """
    first = row = [-c % l for c in f[:-1]]
    rows = [row]
    for _ in range(len(f) - 2):
        t = row[-1]
        row = [(y + t * z) % l for y, z in zip([0] + row, first)]
        rows.append(row)
    return list(zip(*rows))


def fold(c, cols, l):
    """c mod f for an unreduced c of length n to 2n, given the fold columns of f."""
    hi = [x % l for x in c[len(cols) :]]
    return [(x + sum(map(mul, col, hi))) % l for x, col in zip(c, cols)]


def modmul(a, b, cols, l):
    """a * b mod f over GF(l)."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return fold(out, cols, l)


def x_pow(e, cols, l):
    """x^e mod f, for deg f >= 2, by left-to-right squaring.

    Powers of x below deg f are written down; each square is formed with
    every cross product once, and a multiply by x is a shift of the
    square before it is folded.
    """
    n = len(cols)
    k, bits = 1, bin(e)[3:]
    while bits and 2 * k + int(bits[0]) < n:
        k, bits = 2 * k + int(bits[0]), bits[1:]
    r = [0] * n
    r[k] = 1
    for bit in bits:
        out = [0] * (2 * n - 1)
        for i, x in enumerate(r):
            if x:
                out[2 * i] += x * x
                x += x
                for j in range(i + 1, n):
                    out[i + j] += x * r[j]
        if bit == "1":
            out.insert(0, 0)
        r = fold(out, cols, l)
    return r


def frobenius_matrix(xl, cols, l):
    """The matrix of g -> g^l on GF(l)[x]/f, by columns.

    Its rows are the powers (x^l)^i mod f for i < deg f, since
    g(x)^l = g(x^l) for g over GF(l).
    """
    rows = [[1] + [0] * (len(xl) - 1), xl]
    while len(rows) < len(xl):
        rows.append(modmul(rows[-1], xl, cols, l))
    return list(zip(*rows))


def frobenius(g, matrix, l):
    """g^l mod f = sum of g_i (x^l)^i, given the Frobenius matrix of f."""
    return [sum(map(mul, g, col)) % l for col in matrix]


def pad(a, n):
    """a with zeros appended up to length n."""
    return a + [0] * (n - len(a))
