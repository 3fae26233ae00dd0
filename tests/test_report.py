"""The streaming report writer against the convert-then-dump oracle."""

import enum
import io
from fractions import Fraction

import pytest

from oracles import report_json
from twistparity import report
from twistparity.report import Report

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class _Shape(enum.Enum):  # neither JSON nor as_json_dict: written through str
    CUBIC = 3


class _Tagged:
    def __init__(self, payload):
        self.payload = payload

    def as_json_dict(self):
        return self.payload


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
    | inner.map(_Tagged),
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
