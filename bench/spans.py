"""Read the span files ``shim.py`` writes and turn them into layer metrics.

Self time is a span's duration minus the union of its children's
intervals.  Every span but the root has its children on its own thread,
opened and closed one after another inside it, so that union is the sum
of their durations.  The root's children overlap (thread-pool workers
attach to it), and no metric uses the root's self time.
"""

import array
import json
from collections import defaultdict

from shim import CALL, YIELDED

# spans counted per ancestor, for the ratios taken inside one caller
_COUNTED_UNDER = {"modular.iter_primes", "frobenius.classify_prime", "modular.is_squarefree"}


def load(path):
    """One command's spans as a dict of columns plus its header."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array.array(code)
            col.fromfile(fh, header["count"])
            cols[name] = col
    return header, cols


class Totals:
    """Per-function sums over the spans of any number of commands."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.yielded = defaultdict(int)
        self.duration = defaultdict(float)
        self.self_s = defaultdict(float)
        self.value = defaultdict(int)
        self.under = defaultdict(int)  # (ancestor, name, kind) -> spans
        self.wait_s = 0.0
        self.missing = set()  # wrapped functions the program no longer has

    def add(self, header, cols):
        self.missing.update(header["missing"])
        names, count = header["names"], header["count"]
        ids, parents, kinds = cols["id"], cols["parent"], cols["kind"]
        starts, ends, values = cols["start"], cols["end"], cols["value"]
        size = max(ids, default=0) + 1
        name_of = [None] * size
        parent_of = array.array("q", bytes(8 * size))
        child_s = array.array("d", bytes(8 * size))
        for i in range(count):
            name_of[ids[i]] = names[cols["name"][i]]
            parent_of[ids[i]] = parents[i]
            child_s[parents[i]] += ends[i] - starts[i]
        threaded = any(t != header["main_thread"] for t in cols["thread"])
        for i in range(count):
            sid, kind = ids[i], kinds[i]
            if sid == header["root"]:
                continue
            name = name_of[sid]
            dur = ends[i] - starts[i]
            own = dur - child_s[sid]
            if kind == YIELDED:
                self.yielded[name] += 1
            elif kind == CALL:
                self.calls[name] += 1
            self.duration[name] += dur
            self.self_s[name] += own
            self.value[name] += values[i]
            if name == "frobenius.prime_scan" and threaded:
                self.wait_s += own
            if name in _COUNTED_UNDER:
                up = parent_of[sid]
                while up:
                    self.under[(name_of[up], name, kind)] += 1
                    up = parent_of[up]

    def metrics(self):
        c, s = self.calls, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        scanned = self.under[("search.find_shift_primes", "modular.iter_primes", YIELDED)]
        classified = self.under[("search.find_shift_primes", "frobenius.classify_prime", CALL)]
        scan_tests = self.under[("parity.density_scan", "modular.is_squarefree", CALL)]
        sample_tests = self.under[("verify._sample_sigma_trivial", "modular.is_squarefree", CALL)]
        return {
            "modular.factor_degrees.calls": c["modular.factor_degrees"],
            "modular.factor_degrees.self_s": s["modular.factor_degrees"],
            "modular.iter_primes.yielded": self.yielded["modular.iter_primes"],
            "modular.iter_primes.self_s": s["modular.iter_primes"],
            "frobenius.prime_scan.wait_s": self.wait_s,
            "frobenius.classify_prime.calls": c["frobenius.classify_prime"],
            "frobenius.PrimeCache.put.calls": c["frobenius.PrimeCache.put"],
            "frobenius.PrimeCache.put.self_s": s["frobenius.PrimeCache.put"],
            "frobenius.PrimeCache.load_s": self.duration["frobenius.PrimeCache._load"],
            "frobenius.PrimeCache.get.calls": c["frobenius.PrimeCache.get"],
            "frobenius.PrimeCache.hit_ratio": ratio(
                self.value["frobenius.PrimeCache.get"], c["frobenius.PrimeCache.get"]),
            "search.find_shift_primes.scanned": scanned,
            "search.find_shift_primes.classified_ratio": ratio(classified, scanned),
            "curves.curve_hash.calls": c["curves.curve_hash"],
            "frobenius.sigma_set.calls": c["frobenius.sigma_set"],
            "report.Report.to_json.self_s": s["report.Report.to_json"],
            "report.Report.to_json.bytes": self.value["report.Report.to_json"],
            "modular.factor_integer.calls": c["modular.factor_integer"],
            "modular.factor_integer.self_s": s["modular.factor_integer"],
            "modular.is_squarefree.calls": c["modular.is_squarefree"],
            "characters.QuadTwist.constructed": c["characters.QuadTwist.__post_init__"],
            "characters.enumerate_characters.self_s": s["characters.enumerate_characters"],
            "characters.sigma_trivial.calls": c["characters.sigma_trivial"],
            "characters.sigma_trivial.self_s": s["characters.sigma_trivial"],
            "characters.local_square_class.calls": c["characters.local_square_class"],
            "characters.local_square_class.self_s": s["characters.local_square_class"],
            "parity.density_scan.self_s": s["parity.density_scan"],
            "parity.density_scan.squarefree_tests": scan_tests,
            "parity.density_scan.accept_ratio": ratio(
                self.value["parity.density_scan"], scan_tests),
            "verify.sample_squarefree_tests": sample_tests,
            "verify.sample_accept_ratio": ratio(
                self.value["verify._sample_sigma_trivial"], sample_tests),
            "modular.kronecker_symbol.calls": c["modular.kronecker_symbol"],
            "modular.kronecker_symbol.self_s": s["modular.kronecker_symbol"],
            "modular.hilbert_symbol.calls": c["modular.hilbert_symbol"],
            "modular.hilbert_symbol.self_s": s["modular.hilbert_symbol"],
            "parity.parity_flip.self_s": s["parity.parity_flip"],
            "parity.global_consistency_check.self_s": s["parity.global_consistency_check"],
            "frobenius.galois_classify.self_s": s["frobenius.galois_classify"],
            "ratpoly.discriminant.self_s": s["ratpoly.discriminant"],
            "ratpoly.real_root_signature.self_s": s["ratpoly.real_root_signature"],
            "ratpoly.rational_roots.self_s": s["ratpoly.rational_roots"],
            "torsion.rational_two_torsion_dim.self_s": s["torsion.rational_two_torsion_dim"],
            "files.load_curve.self_s": s["files.load_curve"],
            "cli.import_s": self.duration["cli.import"],
        }
