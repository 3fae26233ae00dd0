"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 verification failure,
3 resource limit.  ``--format json`` emits the canonical report (byte
identical across runs for fixed inputs and seed); text mode is for
humans and may include timing on stderr.

Handlers: each subparser sets its subcommand's handler, a function from
the parsed arguments to ``(inputs, outputs, text_lines)``: the report's
two dicts and a function that returns the text-mode lines.  ``main``
alone builds the ``Report`` and prints it in the chosen format; it maps
``ResourceLimitError`` to exit 3 and any other ``TwistParityError`` or
an ``OSError`` to exit 1, a closed stdout to exit 1 with nothing on
stderr, returns 2 when a verify-paper check fails, and in text mode
prints verify-paper's wall time on stderr.

Streamed scans: classify-primes and find-twist hand their scans, each
of which opens ``--cache`` (or the curve file's path plus ``.primecache``)
while it runs, to the report unrun, so either format is written as the
primes are classified and no command holds its records.  A scan that
fails part way, say when a cache append raises ``OSError``, exits 1 with
the error on stderr after the batches written before it: a cut-off prefix.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .characters import local_behavior, local_square_class, sigma_trivial
from .curves import curve_hash
from .errors import InvalidInputError, ResourceLimitError, TwistParityError
from .files import parse_curve_text, parse_profiles_text, read_text
from .frobenius import galois_classify, prime_scan, sigma_set
from .modular import factor_integer, local_classes, place_name, square_class_index
from .parity import delta_v, density_scan, disparity, exact_scan, omega_tables, parity_flip
from .report import Report, sha256_text, write_lines
from .search import find_shift_primes
from .torsion import rational_two_torsion_dim
from .verify import run_paper_verification

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _twist(text: str) -> int:
    n = _int(text)
    if n == 0:
        raise argparse.ArgumentTypeError("must be nonzero: 0 defines no quadratic twist")
    return n


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring down to its paragraph on handlers
    top = _Parser(prog="twistparity", description=__doc__.partition("\n\nHandlers:")[0])
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--cache", default=None, help="prime-classification cache file")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="curve-level invariants")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("--curve", required=True)

    p = sub.add_parser("classify-primes", help="Frobenius cycle types of good primes")
    p.set_defaults(run=_cmd_classify_primes)
    p.add_argument("--curve", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, default=None)

    p = sub.add_parser("character", help="local behavior of a quadratic twist")
    p.set_defaults(run=_cmd_character)
    p.add_argument("--d", type=_twist, required=True)
    p.add_argument("--curve", default=None)

    p = sub.add_parser("parity", help="parity flip of one twist")
    p.set_defaults(run=_cmd_parity)
    p.add_argument("--curve", required=True)
    p.add_argument("--d", type=_twist, required=True)
    p.add_argument("--profiles", default=None)

    p = sub.add_parser("scan", help="twist-family parity density")
    p.set_defaults(run=_cmd_scan)
    p.add_argument("--curve", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-norm", type=int, default=None)
    mode.add_argument("--sample", type=_positive_int, default=None)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--profiles", default=None)
    p.add_argument("--r1-parity", type=int, choices=(0, 1), default=0)

    p = sub.add_parser("find-twist", help="candidate rank-shift primes")
    p.set_defaults(run=_cmd_find_twist)
    p.add_argument("--curve", required=True)
    p.add_argument("--direction", choices=("up", "down"), required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("verify-paper", help="run the built-in example verification suite")
    p.set_defaults(run=_cmd_verify_paper)
    return top


def _cache_path(args) -> str:
    return args.cache or args.curve + ".primecache"


def _emit(report: Report, args, text_lines) -> None:
    """Print the report as JSON, or as the lines text_lines() yields, each
    written in batches as it comes.

    A value with more digits than Python converts to text raises
    ResourceLimitError, in either format, before anything is printed: the
    streamed records of classify-primes and find-twist hold only numbers
    bounded by --limit, and every other report meets its one long value
    (an analyze discriminant, a scan count) in its first batch, or, in
    JSON, before its first list.
    """
    try:
        if args.format == "json":
            report.write(sys.stdout)
        else:
            write_lines(sys.stdout, text_lines())
    except ValueError as exc:  # the int-to-str digit limit
        raise ResourceLimitError(
            f"a value has more than the {sys.get_int_max_str_digits()} digits "
            "Python converts to text: too long to report"
        ) from exc


def _or_else(lines, empty):
    """Yield the lines of a streamed scan as they come, or the one line empty."""
    line = next(lines, None)
    yield empty if line is None else line
    yield from lines


def _profiles_input(args, inputs):
    """Parse --profiles (None without it), recording the file's hash in inputs."""
    if not args.profiles:
        return None
    raw = read_text(args.profiles)
    inputs["profiles_sha256"] = sha256_text(raw)
    return parse_profiles_text(raw)


def _curve_input(path):
    """The curve in the file at path, read once, and the inputs that identify it."""
    raw = read_text(path)
    curve = parse_curve_text(raw)
    return curve, {
        "curve_file_sha256": sha256_text(raw),
        "curve_hash": curve_hash(curve),
        "curve": curve.canonical_text(),
    }


def _cmd_analyze(args):
    curve, inputs = _curve_input(args.curve)
    disc = curve.discriminant()
    r, k1, k2 = curve.real_root_signature()
    label, evidence = galois_classify(curve, 1000, _cache_path(args))
    try:
        torsion = rational_two_torsion_dim(curve)
        torsion_info = {"value": torsion, "provenance": "computed"}
    except TwistParityError as exc:
        torsion_info = {"value": None, "note": str(exc)}
    tables = omega_tables(curve)
    out = {
        "degree": curve.degree,
        "discriminant": disc,
        "disc_sign": -1 if disc < 0 else 1,
        "real_root_signature": {"real_roots": r, "k1": k1, "k2": k2},
        "sigma": [place_name(v) for v in tables],
        "delta_infinity": delta_v(tables[0]),
        "galois": {"label": label, "evidence": evidence},
        "two_torsion_dim": torsion_info,
    }
    return inputs, out, lambda: [
        f"curve: {curve}",
        f"degree n = {curve.degree}",
        f"disc = {disc} (sign {out['disc_sign']})",
        f"real roots = {r} (k1 = {k1}, k2 = {k2})",
        "Sigma = {" + ", ".join(out["sigma"]) + "}",
        f"delta_inf = {out['delta_infinity']}",
        f"Galois: {label} {evidence}",
        f"dim J(Q)[2] = {torsion_info['value']}"
        + (f"  [{torsion_info.get('note')}]" if torsion_info["value"] is None else ""),
    ]


def _cmd_classify_primes(args):
    curve, inputs = _curve_input(args.curve)
    scan = prime_scan(curve, args.limit + 1, _cache_path(args))
    primes = (pc for pc in scan if args.class_index in (None, pc.i))
    out = {"limit": args.limit, "class_filter": args.class_index, "primes": primes}
    return inputs, out, lambda: _or_else(
        (f"{pc.l}: type {list(pc.lengths)} in P_{pc.i}" for pc in primes), "(no matching primes)"
    )


def _cmd_character(args):
    kernel_primes = [p for p, e in factor_integer(args.d).items() if e % 2]
    d = math.prod(kernel_primes, start=-1 if args.d < 0 else 1)  # the squarefree kernel
    places = {0, 2, *kernel_primes}
    inputs = {"d": args.d, "squarefree_kernel": d}
    extra = {}
    if args.curve:
        curve, curve_inputs = _curve_input(args.curve)
        inputs.update(curve_inputs)
        sigma = sigma_set(curve)
        places.update(sigma)
        extra["sigma_trivial"] = sigma_trivial(d, sigma)
    local = {v: local_behavior(d, v) for v in sorted(places)}
    behavior = {
        place_name(v): {"behavior": b, "square_class": local_square_class(d, v)}
        for v, b in local.items()
    }
    norm = max((v for v, b in local.items() if b == "ramified"), default=1)
    out = {"norm": norm, "local": behavior, **extra}

    def lines():
        yield f"d = {d} (norm {out['norm']})"
        for v, b in behavior.items():
            yield f"  at {v}: {b['behavior']} (class {b['square_class']})"
        if "sigma_trivial" in extra:
            yield f"Sigma-trivial: {extra['sigma_trivial']}"

    return inputs, out, lines


def _cmd_parity(args):
    curve, inputs = _curve_input(args.curve)
    profiles = _profiles_input(args, inputs)
    if profiles is not None:
        inputs["profiles_provenance"] = "user"
    inputs["d"] = args.d
    tables = omega_tables(curve, profiles)
    verdict = parity_flip(tables, args.d)
    contributions = {}
    for v, row in tables.items():
        i = square_class_index(args.d, v)
        contributions[place_name(v)] = {"class": local_classes(v)[i], "omega": row[i]}
    out = {
        "flip": verdict.flip,
        "status": verdict.status,
        "missing_places": [place_name(v) for v in verdict.missing],
        "contributions": contributions,
    }

    def lines():
        yield f"flip = {verdict.flip}  status = {verdict.status}"
        if verdict.missing:
            yield "missing profile data at: " + ", ".join(out["missing_places"])
        for v, c in contributions.items():
            yield f"  omega_{v} = {c['omega']} (class {c['class']})"

    return inputs, out, lines


def _cmd_scan(args):
    if args.max_norm is not None and args.max_norm < 2:
        raise InvalidInputError("--max-norm must be >= 2")
    if args.max_norm is not None and args.bound is not None:
        raise InvalidInputError("--bound is read only by --sample")
    if args.sample is not None and (args.bound is None or args.bound < 2):
        raise InvalidInputError("--sample needs --bound >= 2")
    curve, inputs = _curve_input(args.curve)
    tables = omega_tables(curve, _profiles_input(args, inputs))
    if args.max_norm is not None:
        result = exact_scan(tables, args.max_norm, args.r1_parity)
    else:
        result = density_scan(tables, args.sample, args.bound, args.r1_parity, args.seed)
    rep_d = disparity(tables, args.r1_parity)

    def lines():
        yield f"mode = {result.mode}  characters = {result.total}"
        yield f"fraction even = {result.fraction_even} (flip average {result.flip_average})"
        if result.warning:
            yield f"warning: {result.warning}"
        if rep_d is not None:
            yield f"delta = {rep_d.delta}; predicted even density = {rep_d.even_density}"

    return inputs, {"scan": result, "disparity": rep_d}, lines


def _cmd_find_twist(args):
    curve, inputs = _curve_input(args.curve)
    direction = "raise2" if args.direction == "up" else "lower2"
    recipes = find_shift_primes(curve, direction, args.limit, _cache_path(args))
    out = {"direction": direction, "limit": args.limit, "recipes": recipes}
    return inputs, out, lambda: _or_else(
        (f"l = {r.l}  d = {r.d}  type {list(r.cycle_type)}" for r in recipes),
        "(empty stream: no prime satisfies every checkable condition)",
    )


def _cmd_verify_paper(args):
    inputs, out = run_paper_verification(args.seed)

    def lines():
        for check in out["checks"]:
            yield f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}"
            det = check["details"]
            if check["name"] == "sextic_transformation_identity" and not det.get("identity_holds", True):
                yield (
                    "       stated identity fails; exact quotient = "
                    f"({det['quotient_numerator']}) / ({det['quotient_denominator']})"
                )
        yield f"overall: {'PASS' if out['all_passed'] else 'FAIL'}"

    return inputs, out, lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.time()
    try:
        inputs, outputs, text_lines = args.run(args)
        _emit(Report(args.cmd, args.seed, inputs, outputs), args, text_lines)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout closed: devnull takes the interpreter's last flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (TwistParityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.run is not _cmd_verify_paper:
        return 0
    if args.format == "text":
        print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0 if outputs["all_passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
