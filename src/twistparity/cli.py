"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 verification failure,
3 resource limit.  ``--format json`` emits the canonical report (byte
identical across runs for fixed inputs and seed); text mode is for
humans and may include timing on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from .characters import (
    QuadTwist,
    local_behavior,
    local_square_class,
    sigma_trivial,
    twist_norm,
)
from .curves import curve_hash
from .errors import ParseError, ResourceLimitError, TwistParityError
from .files import parse_curve_text, parse_profiles_text
from .frobenius import PrimeCache, galois_classify, prime_scan, sigma_set
from .modular import Place
from .parity import (
    delta_inf_closed_form,
    density_scan,
    disparity,
    omega_tables,
    parity_flip,
)
from .report import Report, sha256_text
from .search import find_shift_primes
from .torsion import rational_two_torsion_dim
from .verify import run_paper_verification

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="twistparity", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--cache", default=None, help="prime-classification cache file")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="curve-level invariants")
    p.add_argument("--curve", required=True)

    p = sub.add_parser("classify-primes", help="Frobenius cycle types of good primes")
    p.add_argument("--curve", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, default=None)

    p = sub.add_parser("character", help="local behavior of a quadratic twist")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--curve", default=None)

    p = sub.add_parser("parity", help="parity flip of one twist")
    p.add_argument("--curve", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--profiles", default=None)

    p = sub.add_parser("scan", help="twist-family parity density")
    p.add_argument("--curve", required=True)
    p.add_argument("--max-norm", type=int, default=None)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--profiles", default=None)
    p.add_argument("--r1-parity", type=int, default=0)

    p = sub.add_parser("find-twist", help="candidate rank-shift primes")
    p.add_argument("--curve", required=True)
    p.add_argument("--direction", choices=("up", "down"), required=True)
    p.add_argument("--limit", type=int, required=True)

    sub.add_parser("verify-paper", help="run the built-in example verification suite")
    return top


def _cache_for(args, curve_path) -> PrimeCache:
    return PrimeCache(args.cache or str(curve_path) + ".primecache")


def _emit(report: Report, args, text_lines) -> None:
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        for line in text_lines:
            print(line)


def _profiles_input(args, inputs):
    """Parse --profiles (None without it), recording the file's hash in inputs."""
    if not args.profiles:
        return None
    with open(args.profiles, "r", encoding="utf-8") as fh:
        raw = fh.read()
    inputs["profiles_sha256"] = sha256_text(raw)
    return parse_profiles_text(raw)


def _curve_input(path):
    """The curve in the file at path, read once, and the inputs that identify it."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    curve = parse_curve_text(raw)
    return curve, {
        "curve_file_sha256": sha256_text(raw),
        "curve_hash": curve_hash(curve),
        "curve": curve.canonical_text(),
    }


def _cmd_analyze(args) -> int:
    curve, inputs = _curve_input(args.curve)
    sigma = sigma_set(curve)
    disc = curve.discriminant()
    r, k1, k2 = curve.real_root_signature()
    with _cache_for(args, args.curve) as cache:
        verdict = galois_classify(curve, 1000, cache=cache)
    try:
        torsion = rational_two_torsion_dim(curve)
        torsion_info = {"value": torsion, "provenance": "computed"}
    except TwistParityError as exc:
        torsion_info = {"value": None, "note": str(exc)}
    out = {
        "degree": curve.degree,
        "discriminant": disc,
        "disc_sign": -1 if disc < 0 else 1,
        "real_root_signature": {"real_roots": r, "k1": k1, "k2": k2},
        "sigma": [str(v) for v in sigma.iter_places()],
        "delta_infinity": delta_inf_closed_form(curve.degree),
        "galois": {"label": verdict.label, "evidence": verdict.evidence},
        "two_torsion_dim": torsion_info,
    }
    rep = Report("analyze", args.seed, inputs, out)
    _emit(
        rep,
        args,
        [
            f"curve: {curve}",
            f"degree n = {curve.degree}",
            f"disc = {disc} (sign {out['disc_sign']})",
            f"real roots = {r} (k1 = {k1}, k2 = {k2})",
            f"Sigma = {sigma}",
            f"delta_inf = {out['delta_infinity']}",
            f"Galois: {verdict.label} {verdict.evidence}",
            f"dim J(Q)[2] = {torsion_info['value']}"
            + (f"  [{torsion_info.get('note')}]" if torsion_info["value"] is None else ""),
        ],
    )
    return 0


def _cmd_classify_primes(args) -> int:
    curve, inputs = _curve_input(args.curve)
    rows = []
    with _cache_for(args, args.curve) as cache:
        for pc in prime_scan(curve, 2, args.limit + 1, cache=cache):
            if args.class_index is not None and pc.i != args.class_index:
                continue
            rows.append({"l": pc.l, "cycle_type": list(pc.lengths), "class_index": pc.i})
    rep = Report(
        "classify-primes",
        args.seed,
        inputs,
        {"limit": args.limit, "class_filter": args.class_index, "primes": rows},
    )
    _emit(
        rep,
        args,
        [f"{r['l']}: type {r['cycle_type']} in P_{r['class_index']}" for r in rows]
        or ["(no matching primes)"],
    )
    return 0


def _cmd_character(args) -> int:
    d = QuadTwist.of(args.d)
    places = [Place.infinity(), Place.finite(2)]
    places += [Place.finite(q) for q in d.ramified_primes() if q != 2]
    inputs = {"d": args.d, "squarefree_kernel": d.d}
    extra = {}
    if args.curve:
        curve, curve_inputs = _curve_input(args.curve)
        inputs.update(curve_inputs)
        sigma = sigma_set(curve)
        for v in sigma.iter_places():
            if v not in places:
                places.append(v)
        extra["sigma_trivial"] = sigma_trivial(d, sigma)
    places = sorted(set(places), key=lambda p: p.q)
    behavior = {
        str(v): {
            "behavior": local_behavior(d, v).value,
            "square_class": local_square_class(d, v),
        }
        for v in places
    }
    out = {"norm": twist_norm(d), "local": behavior, **extra}
    rep = Report("character", args.seed, inputs, out)
    lines = [f"d = {d.d} (norm {out['norm']})"]
    lines += [
        f"  at {v}: {behavior[str(v)]['behavior']} (class {behavior[str(v)]['square_class']})"
        for v in places
    ]
    if "sigma_trivial" in extra:
        lines.append(f"Sigma-trivial: {extra['sigma_trivial']}")
    _emit(rep, args, lines)
    return 0


def _cmd_parity(args) -> int:
    curve, inputs = _curve_input(args.curve)
    profiles = _profiles_input(args, inputs)
    if profiles is not None:
        inputs["profiles_provenance"] = "user"
    inputs["d"] = args.d
    d = QuadTwist.of(args.d)
    verdict = parity_flip(curve, d, profiles)
    contributions = {}
    for v, row in omega_tables(curve, profiles).items():
        label = local_square_class(d, v)
        contributions[str(v)] = {"class": label, "omega": row[label]}
    out = {
        "flip": verdict.flip,
        "status": verdict.status,
        "missing_places": [str(v) for v in verdict.missing],
        "contributions": contributions,
    }
    rep = Report("parity", args.seed, inputs, out)
    lines = [f"flip = {verdict.flip}  status = {verdict.status}"]
    if verdict.missing:
        lines.append("missing profile data at: " + ", ".join(str(v) for v in verdict.missing))
    lines += [f"  omega_{v} = {c['omega']} (class {c['class']})" for v, c in contributions.items()]
    _emit(rep, args, lines)
    return 0


def _cmd_scan(args) -> int:
    curve, inputs = _curve_input(args.curve)
    profiles = _profiles_input(args, inputs)
    result = density_scan(
        curve,
        profiles,
        max_norm=args.max_norm,
        sample=args.sample,
        bound=args.bound,
        r1_parity=args.r1_parity,
        seed=args.seed,
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and result.total >= 10**limit:  # 0 means no limit
        raise ResourceLimitError(
            f"a {result.total.bit_length()}-bit character count has more than the "
            f"{limit} digits Python converts to text: too long to report"
        )
    out = {"scan": result}
    try:
        rep_d = disparity(curve, profiles, args.r1_parity)
        out["disparity"] = rep_d
    except TwistParityError:
        out["disparity"] = None
    rep = Report("scan", args.seed, inputs, out)
    lines = [
        f"mode = {result.mode}  characters = {result.total}",
        f"fraction even = {result.fraction_even} (flip average {result.flip_average})",
    ]
    if result.warning:
        lines.append(f"warning: {result.warning}")
    if out["disparity"] is not None:
        lines.append(f"delta = {out['disparity'].delta}; predicted even density = {out['disparity'].even_density}")
    _emit(rep, args, lines)
    return 0


def _cmd_find_twist(args) -> int:
    curve, inputs = _curve_input(args.curve)
    direction = "raise2" if args.direction == "up" else "lower2"
    with _cache_for(args, args.curve) as cache:
        recipes = list(find_shift_primes(curve, direction, args.limit, cache=cache))
    rows = [
        {
            "l": r.l,
            "d": r.d.d,
            "direction": r.direction,
            "cycle_type": list(r.cycle_type),
            "checked_conditions": [[n, v] for n, v in r.checked_conditions],
        }
        for r in recipes
    ]
    rep = Report(
        "find-twist",
        args.seed,
        inputs,
        {"direction": direction, "limit": args.limit, "recipes": rows},
    )
    lines = (f"l = {r['l']}  d = {r['d']}  type {r['cycle_type']}" for r in rows)
    _emit(rep, args, lines if rows else ["(empty stream: no prime satisfies every checkable condition)"])
    return 0


def _cmd_verify_paper(args) -> int:
    t0 = time.time()
    rep = run_paper_verification(seed=args.seed)
    ok = rep.outputs["all_passed"]
    lines = []
    for check in rep.outputs["checks"]:
        lines.append(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}")
        det = check["details"]
        if check["name"] == "sextic_transformation_identity" and not det.get("identity_holds", True):
            lines.append(
                "       stated identity fails; exact quotient = "
                f"({det['quotient_numerator']}) / ({det['quotient_denominator']})"
            )
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit(rep, args, lines)
    if args.format == "text":
        print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0 if ok else 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "classify-primes": _cmd_classify_primes,
    "character": _cmd_character,
    "parity": _cmd_parity,
    "scan": _cmd_scan,
    "find-twist": _cmd_find_twist,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.cmd](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except TwistParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
