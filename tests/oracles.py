"""Reference code the tests compare the package against or build fixtures with.

The package itself never calls these: each is a direct, slow construction
that a faster library path must agree with.
"""

import json
import math
from fractions import Fraction
from operator import mul

from conftest import squarefree_flags

from twistparity.characters import sigma_trivial
from twistparity.errors import InvalidInputError, ResourceLimitError
from twistparity.frobenius import classify_prime, sigma_set
from twistparity.modular import factor_integer, iter_primes, square_class_index
from twistparity.ratpoly import RatPoly


def squarefree_part(n: int) -> int:
    """The squarefree kernel of n, carrying the sign of n."""
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factor_integer(n).items():
        if e % 2:
            out *= p
    return out


def ramified_primes(d: int):
    """Finite primes where chi_d is ramified, sorted, for squarefree d."""
    if d == 1:
        return ()
    out = set(factor_integer(abs(d)))
    out.discard(2)
    if d % 4 != 1:  # even d, or d = 3 mod 4
        out.add(2)
    return tuple(sorted(out))


def twist_norm(d: int) -> int:
    """max of the finite ramified primes; 1 when chi_d is unramified everywhere.

    Defines the norm cut of ``enumerate_characters`` and of ``scan --max-norm``.
    """
    return max(ramified_primes(d), default=1)


def sigma_trivial_by_classes(d: int, sigma) -> bool:
    """True when d has square class index 0 at every place of the bad set.

    Oracle for ``characters.sigma_trivial``, which reads congruences.
    """
    return all(square_class_index(d, v) == 0 for v in sigma)


def enumerate_characters(bound: int, cap: int = 1 << 20):
    """All chi with norm < bound: squarefree d with odd prime factors < bound.

    The group is generated by -1, 2 and the odd primes below the bound;
    at bound = 2 only the trivial character survives the norm cut.
    Raises ResourceLimitError when the subgroup would exceed ``cap``
    elements (sample instead of enumerating at that size).  Oracle for
    ``parity.exact_scan``.
    """
    if bound < 2:
        raise InvalidInputError("bound must be >= 2")
    gens = [-1, 2] + [p for p in iter_primes(2, bound) if p % 2 == 1]
    if 1 << len(gens) > cap:
        raise ResourceLimitError(
            f"2^{len(gens)} characters exceeds the cap of {cap}; use sampling"
        )
    values = [1]
    for g in gens:
        values += [v * g for v in values]
    return sorted((d for d in values if twist_norm(d) < bound), key=lambda d: (abs(d), -d))


def hilbert_by_conic(a: int, b: int, q: int) -> int:
    """The Hilbert symbol (a, b)_q of squarefree integers a, b, from its definition.

    +1 when a x^2 + b y^2 = z^2 has a nonzero solution over Q_q, else -1.
    At the real place (q = 0) that is when the form is not definite.  At a
    prime q it is decided by a solution mod q^2 (mod 16 at q = 2; mod 8 is
    not enough) with x, y, z not all divisible by q, found by search.
    Oracle for ``modular.hilbert_symbol``.
    """
    if q == 0:
        return -1 if a < 0 and b < 0 else 1
    m = 16 if q == 2 else q * q
    squares = {z * z % m for z in range(m)}
    unit_squares = {z * z % m for z in range(m) if z % q}
    for x in range(m):
        for y in range(m):
            target = unit_squares if x % q == 0 and y % q == 0 else squares
            if (a * x * x + b * y * y) % m in target:
                return 1
    return -1


def delta_inf_closed_form(n: int) -> Fraction:
    """delta at the real place depends only on the odd degree n mod 4: 1 or 0.

    Oracle for ``parity.delta_v`` at the real place.
    """
    if n % 2 == 0:
        raise InvalidInputError("odd degree required")
    return Fraction(1) if n % 4 == 1 else Fraction(0)


def from_cycles(n: int, cycles) -> tuple:
    """The images of the permutation with 1-based disjoint cycles, e.g. [(1,2),(3,4,5)]."""
    images = list(range(n))
    seen = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= n or a in seen:
                raise InvalidInputError(f"bad cycle entry {a}")
            seen.add(a)
        for a, b in zip(cyc, cyc[1:] + tuple(cyc[:1])):
            images[a - 1] = b - 1
    return tuple(images)


def hyperbolic_q(m: int, v: int) -> int:
    """sum of x_i y_i mod 2 over the m hyperbolic planes, coordinate by coordinate."""
    return sum((v >> 2 * i & 1) * (v >> 2 * i + 1 & 1) for i in range(m)) % 2


def is_lagrangian(m: int, basis) -> bool:
    """True when the vectors span a Lagrangian of the hyperbolic space F_2^(2m).

    q(v) = sum of x_i y_i, read bit by bit with x_i at bit 2i and y_i at
    bit 2i + 1.  The span is Lagrangian when it has 2^m points and q
    vanishes on every one of them.  Oracle for ``verify.lagrangians``.
    """
    if any(b >> 2 * m for b in basis):
        raise InvalidInputError("subspace vector outside the ambient space")
    points = {0}
    for b in basis:
        points |= {v ^ b for v in points}
    return len(points) == 1 << m and not any(hyperbolic_q(m, v) for v in points)


def rational_roots_by_divisors(f: RatPoly):
    """Rational roots of f by the rational root theorem, for small coefficients.

    Every +-p/q with p dividing the lowest nonzero coefficient and q the
    leading one, with divisors found by trial division, is tested in f.
    Oracle for ``ratpoly.rational_roots``.
    """
    ints = list(f.primitive_int()[0])
    roots = {Fraction(0)} if ints[0] == 0 else set()
    while ints[0] == 0:
        ints.pop(0)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    def value(x):
        acc = 0
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            roots.update(x for x in (Fraction(p, q), Fraction(-p, q)) if value(x) == 0)
    return sorted(roots)


def jsonable(x):
    """Recursively convert package values into JSON-serializable data.

    An object with ``as_json_dict`` is its dict even when it is a tuple.
    """
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if hasattr(x, "as_json_dict"):
        return jsonable(x.as_json_dict())
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, int, str, type(None))):
        return x
    return str(x)


def report_json(report) -> str:
    """The canonical report text built whole, by converting and then dumping.

    Oracle for ``report.Report.write``.
    """
    doc = {
        "command": report.command,
        "tool_version": report.tool_version,
        "seed": report.seed,
        "inputs": jsonable(report.inputs),
        "outputs": jsonable(report.outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def verify_recipe(curve, recipe) -> bool:
    """Recompute every checkable condition of a TwistRecipe from scratch,
    classifying its prime without a cache.

    Oracle for ``search.find_shift_primes``.
    """
    sigma = sigma_set(curve)
    if recipe.l in sigma:
        return False
    pc = classify_prime(curve, recipe.l)
    ok = pc.i == 2 and pc.lengths == recipe.cycle_type
    if recipe.direction == "raise2":
        ok = ok and all(x % 2 for x in pc.lengths)
    ok = ok and sigma_trivial(recipe.l, sigma)
    ok = ok and recipe.d == recipe.l
    ok = ok and sigma_trivial_by_classes(recipe.d, sigma)
    return ok


def load_prime_cache_whole(path) -> dict:
    """The records of a prime-cache file as {(curve hash, l): cycle type}.

    Reads the whole file as bytes, splits it at b"\\n", keeps the complete
    lines up to the first that is not a record, and truncates the file
    after them when more bytes follow.  A piece after the last b"\\n" is
    never complete.  Oracle for ``frobenius.PrimeCache._load``.
    """
    records = {}
    with open(path, "rb") as fh:
        raw = fh.read()
    kept = 0
    for line in raw.split(b"\n")[:-1]:
        try:
            h, ls, lens = line.split(b" ")
            l = int(ls)
            lengths = tuple(int(x) for x in lens.split(b","))
            if any(x < 1 for x in lengths):
                raise ValueError
            records[(h.decode("utf-8"), l)] = lengths
        except ValueError:  # UnicodeDecodeError is one
            break
        kept += len(line) + 1
    if kept < len(raw):
        with open(path, "r+b") as fh:
            fh.truncate(kept)
    return records


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
    hi = [x % l for x in c[len(cols):]]
    return [(x + sum(map(mul, col, hi))) % l for x, col in zip(c, cols)]


def x_pow(e, f, l):
    """x^e mod a monic f of degree >= 2 over GF(l), coefficient lists throughout.

    The list ladder that ``gfpoly.x_pow`` packs: left-to-right squaring,
    each square formed with every cross product once, a multiply by x a
    shift of the square before it is folded.
    """
    cols = fold_columns(f, l)
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


def root_count(ints, l):
    """The number of x in [0, l) with F(x) = 0 mod l, F given by its
    ascending integer coefficients, each x tried by Horner's rule.

    The fixed points of Frobenius on the roots at a good l.  Oracle for
    the 1s of ``frobenius.classify_prime``.
    """
    count = 0
    for x in range(l):
        v = 0
        for c in reversed(ints):
            v = (v * x + c) % l
        count += v == 0
    return count


def frobenius_trace(f, l):
    """a_l of the Jacobian of y^2 = f(x), f of odd degree over Q, at an odd good l.

    The curve has l + 1 + sum of (f(x) | l) points over GF(l), one of them
    at infinity, so a_l = -sum of (f(x) | l) over x in GF(l), each symbol
    read by Euler's criterion.
    """
    coeffs = [c.numerator * pow(c.denominator, -1, l) % l for c in f.coeffs]
    total = 0
    for x in range(l):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % l
        s = pow(v, (l - 1) // 2, l)
        total += -1 if s == l - 1 else s
    return -total


def local_root_number(f, p):
    """w_p of the elliptic curve y^2 = f(x), f a cubic over Q, at a prime p >= 5.

    Rohrlich's rules (Compositio Math. 1993) on a model minimal at p: 1 at
    good reduction, -(-c6 | p) at multiplicative reduction, (-1 | p) at
    additive, potentially multiplicative reduction, and at potentially good
    reduction, with e = 12/gcd(12, v_p(Delta)): (-1 | p) for e = 2 or 6,
    (-3 | p) for e = 3 and (-2 | p) for e = 4.  The model: y^2 = den^2 f(x)
    has integer coefficients c0..c3, and (c3 x, c3 y) makes it monic.
    """
    den = math.lcm(*(c.denominator for c in f.coeffs))
    c0, c1, c2, c3 = (int(c * den * den) for c in f.coeffs)
    a2, a4, a6 = c2, c1 * c3, c0 * c3 * c3
    b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def v(n):  # the valuation at p, infinite at 0
        if n == 0:
            return math.inf
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k

    def symbol(a):  # the Legendre symbol (a | p) of a unit, by Euler's criterion
        return 1 if pow(a, (p - 1) // 2, p) == 1 else -1

    while v(c4) >= 4 and v(c6) >= 6 and v(delta) >= 12:
        c4, c6, delta = c4 // p**4, c6 // p**6, delta // p**12
    if v(delta) == 0:
        return 1
    if v(c4) == 0:
        return -symbol(-c6)
    if 3 * v(c4) < v(delta):  # v(j) < 0
        return symbol(-1)
    e = 12 // math.gcd(12, v(delta))
    return symbol(-3) if e == 3 else symbol(-2) if e == 4 else symbol(-1)


def local_class_masses(place: int) -> tuple:
    """The density of each square class of Q_v among the squarefree d,
    ordered by |d|, in ``local_classes`` order.

    1/(p+1) of the squarefree integers are divisible by a prime p, and the
    unit parts are equidistributed: 1/2 per sign at the real place; 1/6 per
    unit class and 1/12 per class of valuation 1 at 2; q/(2(q+1)) per unit
    class and 1/(2(q+1)) per class of valuation 1 at an odd q.
    """
    if place == 0:
        return (Fraction(1, 2),) * 2
    if place == 2:
        return (Fraction(1, 6),) * 4 + (Fraction(1, 12),) * 4
    return (Fraction(place, 2 * place + 2),) * 2 + (Fraction(1, 2 * place + 2),) * 2


def flip_average_limit(tables: dict, masses=local_class_masses) -> Fraction:
    """prod_v sum_c mu_v(c) omega_v(c), for a complete omega table.

    The limit, as B grows, of the average flip prod_v omega_v(class of d)
    over the squarefree d with 0 < |d| <= B: the local classes of such d
    at finitely many places are independent, with the masses mu_v.
    """
    return math.prod(sum(m * w for m, w in zip(masses(v), row)) for v, row in tables.items())


def exact_flip_average(tables: dict, bound: int) -> Fraction:
    """The average flip over every squarefree d with 0 < |d| <= bound.

    The class of a squarefree d at each place of Sigma is fixed by its sign
    and its residue mod M = 16 * prod q^2 over the odd q in Sigma.  So the
    squarefree n <= bound are counted per residue r mod M in the flags of
    ``squarefree_flags``, and the flips of r and -r stand for those of n
    and -n.
    """
    flags = squarefree_flags(bound)
    m = 16 * math.prod(q * q for q in tables if q > 2)
    total = flips = 0
    for r in range(1, m + 1):
        count = flags[r::m].count(1)
        for d in (r, -r):
            total += count
            flips += count * math.prod(row[square_class_index(d, v)] for v, row in tables.items())
    return Fraction(flips, total)
