"""Correctness checks on the reports the benchmark's commands print.

``check`` applies the structural invariants of each command's report and
an independent spot check against sympy on a seeded sample: cycle types
against ``Poly(f, modulus=l).factor_list()``, the reported prime list
against ``primerange``, shift-prime recipes against ``isprime`` and
``jacobi_symbol``, and Sigma-triviality against ``inputs.sigma_trivial``.
A value that is wrong but stable across runs is caught here even on seeds
with no recorded digest.
"""

import random

import sympy

from inputs import bad_primes, poly, sigma_trivial

SAMPLE = 64


def factor_degrees(coeffs, l):
    """Sorted irreducible factor degrees of f mod l, or None if f mod l is not squarefree."""
    _, factors = poly(coeffs, modulus=l).factor_list()
    if any(e != 1 for _, e in factors):
        return None
    return sorted(g.degree() for g, _ in factors)


def _sample(rng, rows):
    return rows if len(rows) <= SAMPLE else rng.sample(rows, SAMPLE)


def check(cmd, report, seed):
    """Problems found in one command's parsed report; empty when it is correct."""
    out = report["outputs"]
    rng = random.Random(f"{seed}:{cmd.label}")
    coeffs = cmd.info.get("coeffs")
    sigma = bad_primes(coeffs) if coeffs else ()
    problems = []
    if cmd.kind == "analyze":
        if out["degree"] != len(coeffs) - 1:
            problems.append(f"degree {out['degree']} != {len(coeffs) - 1}")
    elif cmd.kind == "classify-primes":
        deg = len(coeffs) - 1
        rows = out["primes"]
        for r in rows:
            if sum(r["cycle_type"]) != deg or r["class_index"] != len(r["cycle_type"]) - 1:
                problems.append(f"l = {r['l']}: bad row {r}")
                break
        good = [l for l in sympy.primerange(2, cmd.info["limit"] + 1) if l not in sigma]
        if [r["l"] for r in rows] != good:
            problems.append("reported primes are not the good primes up to the limit")
        for r in _sample(rng, rows):
            if factor_degrees(coeffs, r["l"]) != sorted(r["cycle_type"]):
                problems.append(f"l = {r['l']}: cycle type {r['cycle_type']} disagrees with sympy")
    elif cmd.kind == "find-twist":
        deg = len(coeffs) - 1
        for r in out["recipes"]:
            ct = r["cycle_type"]
            if r["l"] % 8 != 1 or sum(ct) != deg or len(ct) != 3 or r["d"] != r["l"]:
                problems.append(f"l = {r['l']}: bad recipe {r}")
                break
        for r in _sample(rng, out["recipes"]):
            l = r["l"]
            if not sympy.isprime(l):
                problems.append(f"recipe l = {l} is not prime")
            elif any(sympy.jacobi_symbol(l, q) != 1 for q in sigma if q != 2):
                problems.append(f"recipe l = {l} does not split at the odd Sigma primes")
            elif factor_degrees(coeffs, l) != sorted(r["cycle_type"]):
                problems.append(f"recipe l = {l}: cycle type disagrees with sympy")
    elif cmd.kind == "scan":
        scan = out["scan"]
        if scan["mode"] != cmd.info["mode"]:
            problems.append(f"mode {scan['mode']} != {cmd.info['mode']}")
        if not 0 <= scan["even_count"] <= scan["total"] or scan["total"] < 1:
            problems.append(f"even_count {scan['even_count']} / total {scan['total']}")
    elif cmd.kind == "verify-paper":
        if out["all_passed"] is not True:
            problems.append("verify-paper reports a failed check")
    elif cmd.kind == "parity":
        d = cmd.info["d"]
        if (out["flip"] is None) != (out["status"] == "unknown"):
            problems.append(f"flip {out['flip']} with status {out['status']}")
        if sigma_trivial(d, sigma) and (out["flip"], out["status"]) != (1, "relative_only"):
            problems.append(f"Sigma-trivial d = {d} got {out['flip']}, {out['status']}")
        if cmd.info["profiled"] and out["status"] == "unknown":
            problems.append(f"complete profiles but d = {d} is unknown")
    elif cmd.kind == "character":
        d = cmd.info["d"]
        if out["sigma_trivial"] != sigma_trivial(d, sigma):
            problems.append(f"d = {d}: sigma_trivial {out['sigma_trivial']} disagrees")
    return problems
