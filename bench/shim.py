"""Run one ``twistparity`` CLI command with spans around its layer boundaries.

Usage: ``python3 bench/shim.py SPANS_FILE TRACE_ID CLI_ARG...``

The shim imports ``twistparity.cli``, replaces each function in ``TARGETS``
with a timing wrapper in every ``twistparity`` module namespace that holds
it (``factor_integer``, for one, is bound in five modules), then calls
``cli.main(argv)``.  Standard output is the CLI's own, byte for byte.

Only the layer boundaries the benchmark reports on are wrapped.  Kernels
below them (``is_prime``, ``factor_mod_prime``, GF(l) arithmetic) are not,
so their time stays in the self time of the function that calls them:
``iter_primes`` self time is the cost of prime generation however it is
done, and ``factor_degrees`` self time is the whole per-prime kernel.

Each span records its name, start, end, parent span, thread and one
integer value (see ``VALUES``); generator functions get one span per
``next()``.  Span stacks are per thread; a span opened on a thread with an
empty stack, such as a ``ThreadPoolExecutor`` worker, gets the command's
root span (``cli.main``) as parent.  Spans are kept in memory and written
to SPANS_FILE when the command returns: one JSON header line, then the
columns as raw native arrays (see ``spans.load``).
"""

import array
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

# (module, attribute path) of each wrapped function
TARGETS = (
    ("modular", "factor_degrees"),
    ("modular", "iter_primes"),
    ("modular", "factor_integer"),
    ("modular", "is_squarefree"),
    ("modular", "kronecker_symbol"),
    ("modular", "hilbert_symbol"),
    ("frobenius", "sigma_set"),
    ("frobenius", "classify_prime"),
    ("frobenius", "prime_scan"),
    ("frobenius", "galois_classify"),
    ("frobenius", "PrimeCache.get"),
    ("frobenius", "PrimeCache.put"),
    ("frobenius", "PrimeCache._load"),
    ("search", "find_shift_primes"),
    ("curves", "curve_hash"),
    ("report", "Report.to_json"),
    ("characters", "QuadTwist.__post_init__"),
    ("characters", "enumerate_characters"),
    ("characters", "sigma_trivial"),
    ("characters", "local_square_class"),
    ("parity", "density_scan"),
    ("parity", "parity_flip"),
    ("parity", "global_consistency_check"),
    ("verify", "_sample_sigma_trivial"),
    ("ratpoly", "discriminant"),
    ("ratpoly", "real_root_signature"),
    ("ratpoly", "rational_roots"),
    ("torsion", "rational_two_torsion_dim"),
    ("files", "load_curve"),
)


def _monte_carlo_total(result):
    return result.total if result.mode.startswith("monte_carlo") else 0


# the integer a span records from its function's result
VALUES = {
    "frobenius.PrimeCache.get": lambda r: int(r is not None),
    "report.Report.to_json": len,
    "parity.density_scan": _monte_carlo_total,
    "verify._sample_sigma_trivial": len,
}

# span kinds: a call, a next() that yielded, a next() that ended the generator
CALL, YIELDED, EXHAUSTED = 0, 1, 2
COLUMNS = (("id", "q"), ("name", "q"), ("parent", "q"), ("thread", "q"),
           ("kind", "q"), ("value", "q"), ("start", "d"), ("end", "d"))


class Recorder:
    """In-memory span store shared by all threads of the command."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.names = []
        self.threads = {}
        self.root = 0
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cols = {name: array.array(code) for name, code in COLUMNS}

    def name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self):
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, opened, name, kind=CALL, value=0):
        t1 = time.perf_counter()
        span_id, parent, t0 = opened
        self._stack().pop()
        ident = threading.get_ident()
        with self._lock:
            thread = self.threads.setdefault(ident, len(self.threads))
            row = (span_id, name, parent, thread, kind, value, t0, t1)
            for (col, _), x in zip(COLUMNS, row):
                self._cols[col].append(x)

    def write(self, path):
        header = {
            "trace_id": self.trace_id,
            "names": self.names,
            "main_thread": self.threads.get(threading.main_thread().ident, 0),
            "root": self.root,
            "missing": self.missing,
            "count": len(self._cols["id"]),
            "columns": [list(c) for c in COLUMNS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                self._cols[col].tofile(fh)


def _wrap_call(rec, name, fn):
    idx = rec.name_index(name)
    measure = VALUES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = rec.begin()
        value = 0
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                value = measure(result)
            return result
        finally:
            rec.end(opened, idx, CALL, value)

    return wrapper


def _wrap_generator(rec, name, fn):
    idx = rec.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def timed():
            try:
                while True:
                    opened = rec.begin()
                    kind = EXHAUSTED
                    try:
                        item = next(inner)
                        kind = YIELDED
                    except StopIteration:
                        return
                    finally:
                        rec.end(opened, idx, kind)
                    yield item
            finally:
                inner.close()

        return timed()

    return wrapper


def install(rec, package):
    """Wrap every target at each package namespace that binds it.

    A target the package no longer has is listed in ``rec.missing`` and its
    metrics read 0, so a renamed function shows up without breaking the run.
    """
    modules = [m for n, m in sys.modules.items()
               if n == package or n.startswith(package + ".")]
    for mod_name, path in TARGETS:
        name = f"{mod_name}.{path}"
        try:
            home = importlib.import_module(f"{package}.{mod_name}")
            owner, attr = home, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.missing.append(name)
            continue
        if owner is not home:
            setattr(owner, attr, _wrap_call(rec, name, fn))
            continue
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
        wrapped = wrap(rec, name, fn)
        for mod in modules:
            if mod.__dict__.get(attr) is fn:
                setattr(mod, attr, wrapped)


def main(argv):
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(trace_id)
    opened = rec.begin()
    from twistparity import cli

    rec.end(opened, rec.name_index("cli.import"))
    install(rec, "twistparity")
    main_idx = rec.name_index("cli.main")
    opened = rec.begin()
    rec.root = opened[0]
    try:
        code = cli.main(cli_args)
    finally:
        rec.end(opened, main_idx)
        sys.stdout.flush()
        rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
