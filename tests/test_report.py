"""The streaming report writer against the convert-then-dump oracle, and
the built-in SHA-256 against hashlib's."""

import enum
import hashlib
import io
import random
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
    rows = [{"l": l, "cycle_type": (1, 2), "ok": l % 3 == 0, "x": Fraction(l, 7)} for l in range(20_000)]
    rep = Report("find-twist", 0, {"curve": "p=2;f=[-2,0,0,1]"}, {"rows": rows})
    writes = _Writes()
    rep.write(writes)
    text = "".join(writes)
    assert text == _text(rep) == report_json(rep)
    assert len(writes) >= len(rows) * 10 // report._BATCH  # rows are 10+ pieces each
    assert max(map(len, writes)) < len(text) // 4


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
