"""The streaming report writer against the convert-then-dump oracle, and
the built-in SHA-256 against hashlib's."""

import enum
import hashlib
import io
import json
import random
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import pytest

from oracles import report_json
from twistparity import report
from twistparity.curves import curve_hash
from twistparity.report import Report, sha256_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class _Shape(enum.Enum):  # neither JSON nor as_json_dict: written through str
    CUBIC = 3


class _Tagged:
    def __init__(self, payload):
        self.payload = payload

    def as_json_dict(self):
        return self.payload


class _Pair(namedtuple("_Pair", "a b")):  # a tuple that is written as its dict
    __slots__ = ()

    def as_json_dict(self):
        return {"a": self.a, "b": self.b}


class _Writes(list):
    """A file that keeps each write."""

    def write(self, text):
        self.append(text)


def _text(rep):
    buf = io.StringIO()
    rep.write(buf)
    return buf.getvalue()


_texts = st.text(max_size=12) | st.sampled_from(['say "x"', "a\\b", "\x00\x07\n\t\x1f", "é ü 漢字 🎉"])
_leaves = (
    _texts
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(10**3999, 10**4000 - 1)
    | st.integers(-(10**4000) + 1, -(10**3999))
    | st.fractions()
    | st.integers(-(10**20), 10**20).map(Fraction)
    | st.floats()
    | st.just(_Shape.CUBIC)
)
_keys = _texts | st.integers(-3, 3) | st.sampled_from([1, "1", -1, "-1"])
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.tuples(_keys, inner), max_size=4).map(dict)
    | inner.map(_Tagged)
    | st.tuples(inner, inner).map(lambda ab: _Pair(*ab)),
    max_leaves=20,
)


@hypothesis.settings(deadline=None)
@hypothesis.given(_values, _values)
def test_write_matches_the_dumps_oracle(inputs, outputs):
    rep = Report("cmd", 7, inputs, outputs)
    assert _text(rep) == report_json(rep)


def test_colliding_keys_keep_the_later_entry():
    rep = Report("cmd", 0, {1: "int", "1": "str"}, {"1": "str", 1: "int", (): {}, "e": []})
    assert '"1": "str"' in _text(rep) and '"1": "int"' in _text(rep)
    assert _text(rep) == report_json(rep)


def test_large_report_is_written_in_batches():
    conditions = tuple((f"condition_{i}", True if i % 3 else "unverified") for i in range(7))
    rows = [
        {"l": l, "cycle_type": (1, 2), "ok": l % 3 == 0, "x": Fraction(l, 7), "checked": conditions}
        for l in range(20_000)
    ]
    rep = Report("find-twist", 0, {"curve": "p=2;f=[-2,0,0,1]"}, {"rows": rows})
    writes = _Writes()
    rep.write(writes)
    text = "".join(writes)
    assert text == _text(rep) == report_json(rep)
    # a batch is flushed at the end of the row that brings it to _BATCH
    # characters, so no write is longer than that plus one row
    row = max(len(json.dumps(r, default=str, indent=2)) for r in rows[-3:]) * 2
    assert all(report._BATCH <= len(w) < report._BATCH + row for w in writes[:-1])
    assert len(writes[-1]) < report._BATCH + row
    assert len(writes) > len(text) // (report._BATCH + row)


# tuples that records share, as scans share cycle types and recipe conditions
_SHARED = ((), (1,), (1, 2), (3, 1, 1), (("good_prime", True), ("loc_image_zero", "unverified")))
_rows = st.lists(
    st.tuples(st.integers(0, 10**9), st.integers(0, len(_SHARED) - 1), st.text(max_size=60)),
    max_size=150,
)


def _report(primes):
    return Report("classify-primes", 0, {"shared": _SHARED[2]}, {"primes": primes, "z": _SHARED})


@hypothesis.settings(deadline=None)
@hypothesis.given(_rows)
@hypothesis.example([])
@hypothesis.example([(7, 2, "")])
@hypothesis.example([(l, l % len(_SHARED), "x" * (l % 50)) for l in range(300)])  # many batches
def test_write_of_an_iterator_matches_the_list(rows):
    """A generator is written as the list of what it yields, byte for byte,
    in batches as the list's are, and shared tuples read the same in every
    batch."""
    records = [{"l": l, "cycle_type": _SHARED[k], "row": (l, _SHARED[k]), "note": note}
               for l, k, note in rows]
    texts = []
    for primes in (records, (r for r in records)):
        writes = _Writes()
        _report(primes).write(writes)
        texts.append(writes)
    assert texts[1] == texts[0]
    assert "".join(texts[0]) == report_json(_report(records))
    assert all(len(w) >= report._BATCH for w in texts[0][:-1])
    assert len(texts[0]) > 5 or len(rows) < 300


class _Sink:
    """A file that drops what is written."""

    def write(self, text):
        pass


def test_written_generator_keeps_few_tuples():
    """A generator of 10,000 records, each with a tuple of its own, is
    written in the memory of a batch and a few hundred kept tuples: the
    kept tuples are let go at the flushes that find too many."""
    rows = ({"l": l, "pair": (l, l + 1)} for l in range(10**6, 10**6 + 10_000))
    tracemalloc.start()
    try:
        Report("cmd", 0, {}, {"rows": rows}).write(_Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300_000


def test_shared_tuple_is_written_right_at_each_indent():
    inner = (1, "a", (2, None))
    big = tuple(range(report._BATCH // 4))  # its text spans a flush
    outputs = {
        "deep": {"deeper": [inner, {"x": inner}]},
        "flat": inner,
        "twice": [inner, inner],
        "big": [big, {"again": big}, big],
    }
    rep = Report("cmd", 0, {"top": inner}, outputs)
    text = _text(rep)
    assert text == report_json(rep)
    assert '"flat": [\n      1,\n      "a",\n      [\n        2,\n        null\n      ]\n    ]' in text
    assert '"x": [\n            1,' in text


def test_shared_tuple_holding_a_list_or_fraction_matches_the_oracle():
    items = [Fraction(1, 3)]
    shared = (items, Fraction(-2, 5), {"k": (Fraction(7), [])})
    rep = Report("cmd", 0, {}, {"a": [shared, shared], "b": {"c": shared}, "d": shared})
    assert _text(rep) == report_json(rep)


class _Counted(namedtuple("_Counted", "a")):  # a tuple written as a fresh dict each time
    __slots__ = ()
    calls = []

    def as_json_dict(self):
        self.calls.append(self)
        return {"a": self.a, "call": len(self.calls)}


def test_named_tuple_with_as_json_dict_skips_the_tuple_cache():
    _Counted.calls.clear()
    one = _Counted((1, 2))
    rep = Report("cmd", 0, {}, {"rows": [one, one, one]})
    text = _text(rep)
    assert len(_Counted.calls) == 3
    assert all(f'"call": {i}' in text for i in (1, 2, 3))


def test_named_tuple_with_as_json_dict_is_written_as_its_dict():
    plain = namedtuple("Plain", "x y")
    rep = Report("cmd", 0, {}, {"pair": _Pair(1, plain(2, (3,))), "plain": plain(4, [])})
    text = _text(rep)
    assert text == report_json(rep)
    assert '"pair": {\n      "a": 1,\n      "b": [\n        2,' in text
    assert '"plain": [\n      4,\n      []\n    ]' in text


def test_sha256_text_matches_hashlib():
    rng = random.Random(5)
    alphabet = "az09 ,;=[]/-\n\té€ü漢字🎉\x00\x7f\u2028"
    texts = ["", "abc", "p=2;f=[-2,0,0,1]"]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(300))) for _ in range(300)]
    for text in texts:
        assert sha256_text(text) == hashlib.sha256(text.encode()).hexdigest(), text


def test_curve_hash_is_the_head_of_the_canonical_texts_sha256(golden_curves):
    assert len(golden_curves) == 5
    for curve in golden_curves.values():
        assert curve_hash(curve) == sha256_text(curve.canonical_text())[:16]
