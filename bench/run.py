"""Benchmark of the ``twistparity`` command line, run as a desk user runs it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify-cold --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Each command runs in a fresh interpreter (``python3 -m twistparity.cli
--format json ...``) with default flags, one at a time: a single-user
closed loop whose only parallelism is the program's own default thread
pool.  The seed makes every input (see ``inputs.py``); the program sees
only the generated files and its argv.  Every command gets an explicit
``--cache`` under ``.benchwork/``, so ``papercases/`` is never written.

Workload names, end-to-end and per-layer metric names and their units
are read from ``BENCHMARK.json`` at the root of the checkout.

A run repeats its workload's command list (a pass) until ``--seconds``
have passed, at least once, and reports per-command medians.  With
``--trace 1`` it alternates plain passes with passes run through
``shim.py`` and reports the per-layer metrics of ``spans.py`` plus the
tracing overhead instead of the end-to-end metrics.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (machine, input hashes, per-command times,
failures) goes to ``.benchwork/results/``.

End-to-end metrics (``--trace 0``), each for one pass of the workload:
``wall_s``, the sum over its commands of each command's median wall time;
``setup_s``, the median time of a fresh interpreter importing
``twistparity.cli`` and running ``load_curve`` and ``sigma_set`` on the
workload's curves (timed ``SETUP_PER_PASS`` times, spread over every timed
pass);
``peak_rss_mb``, the largest median ``ru_maxrss`` of any command, from the
child's own ``wait4``; ``short_cmds_s``, the ``wall_s`` share of
``analyze``, ``parity`` and ``character``.  The results file adds
``fail_ratio``, ``primes_per_s`` (good primes reported by
``classify-primes`` per second of its wall time, at ``CLASSIFY_LIMIT``),
``find_twist_s``, ``verify_paper_s``, ``scan_exhaustive_s`` (the
``--max-norm`` scans) and ``scan_sample_s``; each applies to only some
workloads, so they are printed but not gated.

A run stops starting commands ``DEADLINE_MARGIN_S`` seconds after
``--seconds``.  A run cut short that way reports no metrics and counts as
failed, rather than reporting the partial pass.

A command fails on a nonzero exit, unparsable JSON, a broken invariant or
oracle disagreement (``checks.py``), or a report digest that differs from
the first run of the same command in this run, from an earlier run of the
same seed in this checkout, or, on seed 0, from
``expected_digests/<workload>.json``.  Every run writes its digests to
``.benchwork/digests/<workload>-seed<N>.json``; re-recording the expected
ones means copying that file of seed 0.  In ``classify-warm`` the first run
is the fill, which starts from empty caches, so warm reports are compared
with cold ones; the exception is ``find-twist --direction down``, whose
fill already finds the cache that ``--direction up`` filled.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

CLASSIFY_LIMIT = 10_000
FIND_TWIST_LIMIT = 10**6
MAX_NORM = 50  # 72 and above switch scan to its Monte-Carlo fallback
SAMPLE, SAMPLE_BOUND = 5000, 10**6
SETUP_PER_PASS = 16  # set-up timings spread over each timed pass
DEADLINE_MARGIN_S = 150  # a run stops starting commands this long after --seconds
WORK = ".benchwork"
EXPECTED_DIR = os.path.join(HERE, "expected_digests")

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
SHORT_KINDS = ("analyze", "parity", "character")
SETUP_CODE = (
    "import sys\n"
    "from twistparity import cli\n"
    "from twistparity.files import load_curve\n"
    "from twistparity.frobenius import sigma_set\n"
    "for path in sys.argv[1:]:\n"
    "    sigma_set(load_curve(path))\n"
)


@dataclass
class Command:
    label: str
    kind: str
    argv: list  # CLI arguments
    cache: str
    cold: bool = False  # its cache must be absent when a cold pass reaches it
    info: dict = field(default_factory=dict)


@dataclass
class Attempt:
    label: str
    phase: str  # setup | fill | timed | traced
    rc: int
    wall_s: float
    maxrss_kb: int
    digest: str = ""
    problems: list = field(default_factory=list)


class Launcher:
    """Client of ``launcher.py``, which spawns and measures each command."""

    def __init__(self, env):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout, stderr, timeout):
        job = {"argv": argv, "stdout": stdout, "stderr": stderr,
               "env": self.env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        """End the launcher; a command still running is killed after 30 s."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _cli(seed, cache, *args):
    return ["--format", "json", "--seed", str(seed), "--cache", cache, *map(str, args)]


def _interleave(short, heavy):
    """Spread ``short`` evenly between the ``heavy`` commands, so that each
    group is timed across the whole pass rather than in one stretch of it."""
    out = []
    for i, cmd in enumerate(heavy):
        out.append(cmd)
        out += short[i * len(short) // len(heavy):(i + 1) * len(short) // len(heavy)]
    return out


def build(workload, inputs, work):
    """(fill, timed, reset): untimed first pass, timed pass, wipe caches per pass."""
    from inputs import PAPERCASES, read_coeffs

    s = inputs["cli_seed"]
    paths = {name: f"papercases/{name}.curve" for name in PAPERCASES}
    paths["septic"] = inputs["septic"]
    coeffs = {name: read_coeffs(p) for name, p in paths.items()}
    cache = {name: f"{work}/{name}.primecache" for name in paths}
    classify = []
    for name, path in paths.items():
        info = {"coeffs": coeffs[name]}
        classify.append(Command(f"analyze:{name}", "analyze",
                                _cli(s, cache[name], "analyze", "--curve", path),
                                cache[name], cold=True, info=info))
        classify.append(Command(f"classify-primes:{name}", "classify-primes",
                                _cli(s, cache[name], "classify-primes", "--curve", path,
                                     "--limit", CLASSIFY_LIMIT),
                                cache[name], info=dict(info, limit=CLASSIFY_LIMIT)))
    if workload == "classify-cold":
        return [], classify, True
    if workload == "classify-warm":
        twist = [Command(f"find-twist-{way}:{name}", "find-twist",
                         _cli(s, cache[name], "find-twist", "--curve", paths[name],
                              "--direction", way, "--limit", FIND_TWIST_LIMIT),
                         cache[name], info={"coeffs": coeffs[name]})
                 for name in ("s5_quintic", "cubic_1440d1") for way in ("up", "down")]
        analyze, primes = classify[0::2], classify[1::2]
        return classify + twist, _interleave(analyze, _interleave(twist, primes)), False
    prof = ["--profiles", inputs["profiles"]]
    x3 = paths["x3_minus_2"]
    verify_cache = f"{work}/verify.primecache"
    heavy = [Command("verify-paper", "verify-paper", _cli(s, verify_cache, "verify-paper"),
                     verify_cache)]
    scans = (
        ("scan-norm:x3_minus_2", x3, [], ["--max-norm", MAX_NORM], "sigma_trivial_only"),
        ("scan-norm-profiled:x3_minus_2", x3, prof, ["--max-norm", MAX_NORM], "exhaustive"),
        ("scan-sample:s5_quintic", paths["s5_quintic"], [],
         ["--sample", SAMPLE, "--bound", SAMPLE_BOUND], "monte_carlo_sigma_trivial"),
        ("scan-sample-profiled:x3_minus_2", x3, prof,
         ["--sample", SAMPLE, "--bound", SAMPLE_BOUND], "monte_carlo"),
    )
    for label, path, extra, mode_args, mode in scans:
        name = label.split(":")[1]
        heavy.append(Command(label, "scan",
                             _cli(s, cache[name], "scan", "--curve", path, *mode_args, *extra),
                             cache[name], info={"mode": mode}))
    short = []
    for name, extra in (("h_quintic", []), ("x3_minus_2", prof)):
        for i, d in enumerate(inputs["twists"][name]):
            info = {"coeffs": coeffs[name], "d": d, "profiled": bool(extra)}
            short.append(Command(f"parity:{name}:{i}", "parity",
                                 _cli(s, cache[name], "parity", "--curve", paths[name],
                                      "--d", d, *extra), cache[name], info=info))
            short.append(Command(f"character:{name}:{i}", "character",
                                 _cli(s, cache[name], "character", "--d", d,
                                      "--curve", paths[name]), cache[name], info=info))
    return [], _interleave(short, heavy), False


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = f"{WORK}/{workload}"
        self.t0 = time.perf_counter()
        self.attempts = []
        self.reports = {}  # (label, digest) -> kept stdout file
        self.layers = []  # per traced pass: {metric: value}
        self.setup_walls = []
        self.untraced = set()  # shim targets missing from the program
        self.run_problems = []
        self.cut = False  # the deadline stopped a pass

    def _remaining(self):
        return self.seconds + DEADLINE_MARGIN_S - (time.perf_counter() - self.t0)

    def execute(self, launcher, cmd, phase, n, cold):
        if cold and cmd.cold and os.path.exists(cmd.cache):
            self.attempts.append(Attempt(cmd.label, phase, -1, 0.0, 0,
                                         problems=[f"cold cache {cmd.cache} exists"]))
            return
        out = f"{self.work}/out/{cmd.label}.{phase}.{n}"
        if phase == "traced":
            spans_path = out + ".spans"
            argv = [sys.executable, os.path.join(HERE, "shim.py"), spans_path,
                    f"{self.workload}/{self.seed}/{cmd.label}/{n}", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "twistparity.cli", *cmd.argv]
        res = launcher.run(argv, out, out + ".err", max(self._remaining(), 1.0))
        with open(out, "rb") as fh:
            digest = _sha256(fh.read())
        att = Attempt(cmd.label, phase, res["rc"], res["wall_s"], res["maxrss_kb"], digest)
        if res["rc"] != 0:
            with open(out + ".err", encoding="utf-8", errors="replace") as fh:
                att.problems.append(f"exit code {res['rc']}: {fh.read()[-300:].strip()}")
        self.attempts.append(att)
        if (cmd.label, digest) not in self.reports and res["rc"] == 0:
            self.reports[(cmd.label, digest)] = out
        else:
            os.remove(out)
        os.remove(out + ".err")
        if phase == "traced":
            from spans import load

            if os.path.exists(spans_path):
                self.totals.add(*load(spans_path))
                os.remove(spans_path)

    def one_pass(self, launcher, cmds, phase, n, reset, setup_curves=None):
        """Run ``cmds`` once; with ``setup_curves``, time set-up between them."""
        if reset:
            for cmd in cmds:
                if os.path.exists(cmd.cache):
                    os.remove(cmd.cache)
        if phase == "traced":
            from spans import Totals

            self.totals = Totals()
        step = -(-len(cmds) // SETUP_PER_PASS)
        for i, cmd in enumerate(cmds):
            if self._remaining() <= 0:
                self.run_problems.append(f"deadline reached before the {phase} pass finished")
                self.cut = True
                return False
            if setup_curves and i % step == 0:
                self.setup_once(launcher, setup_curves)
            self.execute(launcher, cmd, phase, n, cold=reset or phase == "fill")
        if phase == "traced":
            self.layers.append(self.totals.metrics())
            self.untraced.update(self.totals.missing)
        return True

    def setup_once(self, launcher, curves, keep=True):
        out = f"{self.work}/out/setup"
        res = launcher.run([sys.executable, "-c", SETUP_CODE, *curves], out, out + ".err",
                           max(self._remaining(), 1.0))
        problems = [] if res["rc"] == 0 else [f"set-up exit code {res['rc']}"]
        self.attempts.append(Attempt("setup", "setup", res["rc"], res["wall_s"],
                                     res["maxrss_kb"], problems=problems))
        if keep:
            self.setup_walls.append(res["wall_s"])

    def measure(self, launcher, fill, timed, reset, curves):
        """Fill, then passes until ``seconds`` have gone, each with set-up timings."""
        self.setup_once(launcher, curves, keep=False)  # compiles bytecode
        ok = self.one_pass(launcher, fill, "fill", 0, reset) if fill else True
        start, n = time.perf_counter(), 0
        while ok and (n == 0 or time.perf_counter() - start < self.seconds):
            ok = self.one_pass(launcher, timed, "timed", n, reset, curves)
            if ok and self.trace:
                ok = self.one_pass(launcher, timed, "traced", n, reset)
            n += 1
        return n

    def verify(self, cmds, stored, expected):
        """Attach every failure reason to the attempts it concerns."""
        import checks

        by_label = {c.label: c for c in cmds}
        bad = {}
        for (label, digest), path in self.reports.items():
            try:
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                bad[(label, digest)] = checks.check(by_label[label], report, self.seed)
            except (ValueError, KeyError, TypeError) as exc:
                bad[(label, digest)] = [f"unreadable report: {exc!r}"]
        first = {}
        for att in self.attempts:
            if att.label == "setup" or att.rc != 0:
                continue
            ref = first.setdefault(att.label, att.digest)
            att.problems += bad.get((att.label, att.digest), [])
            if att.digest != ref:
                att.problems.append("digest differs from the first run of this command")
            argv = by_label[att.label].argv
            rec = stored.get(att.label)
            if rec and rec["argv"] == argv and rec["sha256"] != att.digest:
                att.problems.append("digest differs from an earlier run of this seed")
            if expected is not None:
                rec = expected.get(att.label, {})
                if (rec.get("argv"), rec.get("sha256")) != (argv, att.digest):
                    att.problems.append("argv or digest differs from the one recorded for seed 0")
        return {label: {"argv": by_label[label].argv, "sha256": digest}
                for label, digest in first.items()}


def _median_by_label(attempts, phase):
    walls, rss = {}, {}
    for a in attempts:
        if a.phase == phase:
            walls.setdefault(a.label, []).append(a.wall_s)
            rss.setdefault(a.label, []).append(a.maxrss_kb)
    return ({k: statistics.median(v) for k, v in walls.items()},
            {k: statistics.median(v) for k, v in rss.items()})


def _curve_accepts(coeffs):
    """Whether the program takes ``coeffs`` as a curve (odd degree, separable)."""
    from twistparity.curves import CurveSpec
    from twistparity.errors import TwistParityError
    from twistparity.ratpoly import RatPoly

    try:
        CurveSpec(RatPoly(coeffs))
    except TwistParityError:
        return False
    return True


def _papercases_state():
    from inputs import sha256_file

    return {name: sha256_file(os.path.join("papercases", name))
            for name in sorted(os.listdir("papercases"))}


def _load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_digests(run, cmds):
    """Verify the run's reports and keep their digests for later runs."""
    stored_path = f"{WORK}/digests/{run.workload}-seed{run.seed}.json"
    expected = None
    if run.seed == 0:
        expected = _load_json(f"{EXPECTED_DIR}/{run.workload}.json", {})
    digests = run.verify(cmds, _load_json(stored_path, {}), expected)
    with open(stored_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)


def _detail(run, cmds, walls):
    """The workload-specific timings, named as in the module docstring."""
    def total(match):
        return sum(w for label, w in walls.items() if match(cmds[label]))

    detail = {}
    primes_s = total(lambda c: c.kind == "classify-primes")
    if primes_s:
        reported = {}
        for (label, _), path in run.reports.items():
            if cmds[label].kind == "classify-primes" and label not in reported:
                with open(path, encoding="utf-8") as fh:
                    reported[label] = len(json.load(fh)["outputs"]["primes"])
        detail["primes_per_s"] = (sum(reported.values()) / primes_s, "1/s")
    for name, match in (
        ("find_twist_s", lambda c: c.kind == "find-twist"),
        ("verify_paper_s", lambda c: c.kind == "verify-paper"),
        ("scan_exhaustive_s", lambda c: c.label.startswith("scan-norm")),
        ("scan_sample_s", lambda c: c.label.startswith("scan-sample")),
    ):
        if total(match):
            detail[name] = (total(match), "s")
    return detail


def run_workload(workload, seed, seconds, trace):
    import inputs as gen

    run = Run(workload, seed, seconds, trace)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(f"{run.work}/out")
    os.makedirs(f"{WORK}/results", exist_ok=True)
    os.makedirs(f"{WORK}/digests", exist_ok=True)
    papercases_before = _papercases_state()
    inputs = gen.generate(seed, run.work, _curve_accepts)
    fill, timed, reset = build(workload, inputs, run.work)
    cmds = {c.label: c for c in fill + timed}
    curves = sorted({c.argv[c.argv.index("--curve") + 1] for c in cmds.values()
                     if "--curve" in c.argv})
    machine = {"python": platform.python_version(), "executable": sys.executable,
               "cpu_count": os.cpu_count(), "loadavg_1m_before": os.getloadavg()[0]}
    launcher = Launcher({"PYTHONPATH": os.path.abspath("src")})
    try:
        passes = run.measure(launcher, fill, timed, reset, curves)
    finally:
        launcher.close()
    machine["loadavg_1m_after"] = os.getloadavg()[0]
    if _papercases_state() != papercases_before:
        run.run_problems.append("papercases/ changed during the run")
    _check_digests(run, list(cmds.values()))

    attempted = len(run.attempts)
    failed = sum(1 for a in run.attempts if a.problems) + len(run.run_problems)
    walls, rss = _median_by_label(run.attempts, "timed")
    detail = {"fail_ratio": (failed / attempted, "1"), "passes": (passes, "count"),
              "commands_per_pass": (len(timed), "count"), **_detail(run, cmds, walls)}
    if run.cut:
        metrics = {}  # a partial pass would read as a faster one
    elif trace:
        traced, _ = _median_by_label(run.attempts, "traced")
        values = {name: statistics.median(p[name] for p in run.layers) for name in run.layers[0]}
        values["trace_overhead_s"] = sum(traced.values()) - sum(walls.values())
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
    else:
        values = {
            "wall_s": sum(walls.values()),
            "setup_s": statistics.median(run.setup_walls),
            "peak_rss_mb": max(rss.values()) / 1024,
            "short_cmds_s": sum(w for label, w in walls.items()
                                if cmds[label].kind in SHORT_KINDS),
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    result = {
        "workload": workload, "why": WORKLOADS[workload], "seed": seed, "trace": trace,
        "seconds": seconds, "machine": machine, "cli_seed": inputs["cli_seed"],
        "sizes": {"classify_limit": CLASSIFY_LIMIT, "find_twist_limit": FIND_TWIST_LIMIT,
                  "max_norm": MAX_NORM, "sample": SAMPLE, "sample_bound": SAMPLE_BOUND},
        "input_files_sha256": inputs["files_sha256"], "twists": inputs["twists"],
        "commands": {label: {"argv": c.argv, "argv_sha256": _sha256(json.dumps(c.argv).encode()),
                             "median_wall_s": walls.get(label)}
                     for label, c in cmds.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "untraced_functions": sorted(run.untraced),
        "attempted": attempted, "failed": failed,
        "failures": [{"label": a.label, "phase": a.phase, "problems": a.problems}
                     for a in run.attempts if a.problems] + run.run_problems,
    }
    with open(f"{WORK}/results/{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(run.work, ignore_errors=True)
    return result


def _print(result):
    m = result["machine"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['detail']['passes']['value']}")
    print(f"   python {m['python']}, {m['cpu_count']} cpus, load "
          f"{m['loadavg_1m_before']:.2f} -> {m['loadavg_1m_after']:.2f}")
    for section in ("metrics", "detail"):
        for name, mv in result[section].items():
            print(f"   {name:44s} {mv['value']:>14.6g} {mv['unit']}")
    for name in result["untraced_functions"]:
        print(f"   warning: {name} no longer exists; its layer metrics read 0")
    print(f"   failed {result['failed']} of {result['attempted']} commands")
    for f in result["failures"][:10]:
        print(f"   FAILED {f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (os.path.isdir("src/twistparity") and os.path.isdir("papercases")):
        print("error: run from the root of a twistparity checkout "
              "(src/twistparity and papercases/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    for r in results:
        _print(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
