"""The prime cache: a file of Frobenius cycle types by curve hash and prime.

``frobenius.prime_scan`` reads a block of primes' records at a time and
appends those it classifies; ``galois_classify`` appends corrections.
Kept apart from ``frobenius`` so that neither module is long to compile
when no bytecode is cached.
"""

from __future__ import annotations

import bisect
import itertools
import os
from array import array

__all__ = ["PrimeCache"]

_WORD = 1 << 63  # the arrays of PrimeCache hold l in [-_WORD, _WORD)
_MERGE = 4096  # records waiting outside the arrays that set off a merge


class PrimeCache:
    """Append-only cycle-type cache: lines of ``<curve_hash> <l> <l1,l2,...>``.

    A record is such a line split at single spaces: a UTF-8 curve hash, an
    int l and ints >= 1, ended by a newline.  Loading stops at the first
    line that is not a record and truncates the file after the last one
    when more bytes follow, so a torn write never poisons later runs and a
    valid file is only read.  A later record for the same key overrides an
    earlier one.  Each cycle type read or written is one tuple however many
    primes share it, and a record is held in 12 bytes: per curve hash, an
    array of increasing l and a parallel one of cycle-type ids.  A record
    whose l is not above its curve's last, or does not fit a machine word,
    waits in a dict that overrides the arrays; ``_MERGE`` waiting records,
    or the end of a load, set off one merge of those that fit.  The first
    ``put`` opens one append handle, flushed after every record, so a
    killed scan keeps each record written so far; leaving a ``with`` block
    closes it.
    """

    def __init__(self, path):
        self.path = path
        self._ls: dict = {}  # curve hash -> array of l, increasing
        self._ids: dict = {}  # curve hash -> array of their cycle-type ids
        self._odd: dict = {}  # (curve hash, l) -> cycle-type id, outside the arrays
        self._waiting = 0  # records put in _odd since the last merge
        self._next = 0  # the index after the last record get found in the arrays
        self._types: dict = {}  # bytes of a lengths field, newline included -> its id
        self._tuples: list = []  # id -> its one tuple
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        """Read the records, truncating the file after them when more bytes follow."""
        types, tuples = self._types, self._tuples
        end = 0  # bytes in the records read so far
        last = held_l = held_t = None  # the last record's curve hash and its arrays
        with open(self.path, "rb") as fh:
            for line in fh:
                try:
                    key, ls, lens = line.split(b" ")
                    l = int(ls)
                    t = types.get(lens)
                    if t is None:  # every field in types ends in a newline
                        lengths = tuple(int(x) for x in lens.split(b","))
                        if lens[-1:] != b"\n" or min(lengths) < 1:
                            raise ValueError
                        t = types[lens] = len(tuples)
                        tuples.append(lengths)
                    key = key.decode()
                except ValueError:  # UnicodeDecodeError included
                    os.truncate(self.path, end)
                    break
                if key == last and held_l and held_l[-1] < l < _WORD:  # appended in place
                    held_l.append(l)
                    held_t.append(t)
                else:
                    self._hold(key, l, t)
                    last, held_l, held_t = key, self._ls[key], self._ids[key]
                end += len(line)
        if self._waiting:
            self._merge()

    def _hold(self, key, l, t):
        """Hold l's cycle-type id t: appended to the arrays when l is above their last."""
        ls = self._ls.get(key)
        if ls is None:
            ls = self._ls[key] = array("q")
            self._ids[key] = array("I")
        if (not ls or l > ls[-1]) and -_WORD <= l < _WORD:
            ls.append(l)
            self._ids[key].append(t)
            return
        self._odd[key, l] = t
        self._waiting += 1
        if self._waiting >= _MERGE:
            self._merge()

    def _merge(self):
        """Merge the records of _odd that fit a machine word into the arrays,
        copying the runs of old records between them whole."""
        odd, self._odd, self._waiting = self._odd, {}, 0
        for key, run in itertools.groupby(sorted(odd.items()), lambda record: record[0][0]):
            ls, ids, i = self._ls[key], self._ids[key], 0
            new_ls, new_ids = array("q"), array("I")
            for (_, l), t in run:
                if not -_WORD <= l < _WORD:
                    self._odd[key, l] = t
                    continue
                j = bisect.bisect_left(ls, l, i)
                new_ls += ls[i:j]
                new_ids += ids[i:j]
                new_ls.append(l)
                new_ids.append(t)
                i = j + (j < len(ls) and ls[j] == l)
            self._ls[key], self._ids[key] = new_ls + ls[i:], new_ids + ids[i:]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def get(self, key, l):
        t = self._odd.get((key, l))
        if t is None:
            ls, j = self._ls.get(key, ()), self._next
            if not (j < len(ls) and ls[j] == l):  # not the record after the last one read
                if not ls or l > ls[-1]:  # past the last record, as in a cold scan
                    return None
                j = bisect.bisect_left(ls, l)
                if ls[j] != l:
                    return None
            self._next = j + 1
            t = self._ids[key][j]
        return self._tuples[t]

    def put(self, key, l, lengths):
        """Append the record of l's cycle type, hold it, and return the tuple held."""
        text = b",".join(b"%d" % x for x in lengths)
        t = self._types.setdefault(text + b"\n", len(self._tuples))
        if t == len(self._tuples):
            self._tuples.append(tuple(lengths))
        self._hold(key, l, t)
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(b"%s %d %s\n" % (key.encode(), l, text))
        self._fh.flush()
        return self._tuples[t]
