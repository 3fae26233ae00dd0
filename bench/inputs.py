"""Seeded inputs for the benchmark workloads.

Everything the program receives is made here from the benchmark seed:
a random septic curve file, a complete profiles file for ``x3_minus_2``,
the twist lists for ``parity`` and ``character``, and the ``--seed``
passed to the CLI.  Bad sets and Sigma-triviality are worked out with
sympy, independently of the package under test.
"""

import hashlib
import random
from fractions import Fraction

import sympy

PAPERCASES = ("x3_minus_2", "cubic_1440d1", "s5_quintic", "g_quintic", "h_quintic")

# canonical square-class labels (README "File formats"); u_3 = 2
_LABELS = {2: (1, 5, -1, -5, 2, 10, -2, -10), 3: (1, 2, 3, 6)}

_X = sympy.Symbol("x")


def read_coeffs(path):
    """Ascending integer coefficients from the ``f = [...]`` line of a curve file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, body = line.split("#", 1)[0].partition("=")
            if key.strip() == "f":
                coeffs = [Fraction(t.strip()) for t in body.strip()[1:-1].split(",")]
                if any(c.denominator != 1 for c in coeffs):
                    raise ValueError(f"{path}: benchmark curves have integer coefficients")
                return [int(c) for c in coeffs]
    raise ValueError(f"{path}: no f line")


def poly(coeffs, **options):
    """sympy Poly from ascending coefficients; ``modulus=l`` reduces mod l."""
    return sympy.Poly(list(reversed(coeffs)), _X, **options)


def bad_primes(coeffs):
    """Finite primes of Sigma for an integer polynomial: 2, lead and disc primes."""
    f = poly(coeffs)
    out = {2}
    out.update(sympy.primefactors(f.LC()))
    out.update(sympy.primefactors(f.discriminant()))
    return tuple(sorted(out))


def sigma_trivial(d, sigma):
    """chi_d is a local square on all of Sigma (d squarefree)."""
    if d <= 0 or d % 8 != 1:
        return False
    return all(d % q != 0 and sympy.jacobi_symbol(d % q, q) == 1 for q in sigma if q != 2)


def _squarefree(n):
    return all(e == 1 for e in sympy.factorint(abs(n)).values())


def _trivial_twists(rng, sigma, count, bound=10**6):
    """Distinct squarefree Sigma-trivial d in (1, bound], drawn from d = 1 mod 8."""
    out = []
    while len(out) < count:
        d = 8 * rng.randrange(bound // 8) + 1
        if d > 1 and d not in out and _squarefree(d) and sigma_trivial(d, sigma):
            out.append(d)
    return out


def _other_twists(rng, sigma, count, bound=10**6):
    """Distinct squarefree d in [-bound, bound] that are not Sigma-trivial."""
    out = []
    while len(out) < count:
        d = rng.randint(-bound, bound)
        if d not in (0, 1) and d not in out and _squarefree(d) and not sigma_trivial(d, sigma):
            out.append(d)
    return out


def random_septic(rng, accepts):
    """Draw integer degree-7 polynomials until ``accepts`` (CurveSpec) takes one.

    Reducible draws are skipped too: ``analyze`` returns early on a
    reducible curve, so keeping them would make the work of a run depend on
    the seed by about a fifth of the workload's ``analyze`` time.
    """
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(7)] + [rng.randint(1, 3)]
        if accepts(coeffs) and poly(coeffs).is_irreducible:
            return coeffs


def generate(seed, workdir, accepts):
    """Write the seeded input files into ``workdir``; return their description."""
    rng = random.Random(seed)
    cli_seed = rng.randrange(1 << 16)
    septic = random_septic(rng, accepts)
    septic_path = f"{workdir}/septic.curve"
    with open(septic_path, "w", encoding="utf-8") as fh:
        fh.write("p = 2\nf = [" + ", ".join(map(str, septic)) + "]\n")
    lines = []
    for q, labels in _LABELS.items():
        lines.append(f"place = {q}")
        lines += [f"h[{k}] = {0 if k == 1 else rng.randint(0, 1)}" for k in labels]
    profiles_path = f"{workdir}/x3_minus_2.profiles"
    with open(profiles_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    twists = {}
    for name in ("h_quintic", "x3_minus_2"):
        sigma = bad_primes(read_coeffs(f"papercases/{name}.curve"))
        twists[name] = _trivial_twists(rng, sigma, 4) + _other_twists(rng, sigma, 4)
    return {
        "cli_seed": cli_seed,
        "septic": septic_path,
        "profiles": profiles_path,
        "twists": twists,
        "files_sha256": {p: sha256_file(p) for p in (septic_path, profiles_path)},
    }


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
