"""The prime cache, which only ``frobenius`` opens: one curve's records
in a file of Frobenius cycle types by curve hash and prime.  Kept apart
so that neither module is long to compile when no bytecode is cached.
"""

from __future__ import annotations

import bisect
import os
from array import array

__all__ = ["PrimeCache"]

_WORD = 1 << 63  # the arrays of PrimeCache hold l in [-_WORD, _WORD)
_MERGE = 4096  # records waiting outside the arrays that set off a merge


class PrimeCache:
    """The records of curve hash ``key`` in an append-only file of
    ``<curve_hash> <l> <l1,l2,...>`` lines, which may hold several curves.

    A record is such a line split at single spaces: a UTF-8 curve hash, an
    int l and ints >= 1, ended by a newline.  Loading parses every record,
    stops at the first line that is not one, and truncates the file after
    the last when more bytes follow, so a torn write never poisons later
    runs and a valid file is only read.  A later record for an l overrides
    an earlier one.  Each cycle type is one tuple however many primes
    share it, and a record is held in 12 bytes: an array of increasing l
    and a parallel one of cycle-type ids.  A record whose l is not above
    the last, or does not fit a machine word, waits in a dict that
    overrides the arrays until ``_MERGE`` of them, or the end of a load,
    set off a merge.  The first ``put`` opens one append handle, flushed
    after every record, and leaving a ``with`` block closes it for good.
    """

    def __init__(self, path, key):
        self.path = path
        self._key = key.encode()
        self._ls = array("q")  # l, increasing
        self._ids = array("I")  # their cycle-type ids
        self._odd: dict = {}  # l -> cycle-type id, outside the arrays
        self._waiting = 0  # records put in _odd since the last merge
        self._next = 0  # the index after the last record get found in the arrays
        self._types: dict = {}  # bytes of a lengths field, newline included -> its id
        self._tuples: list = []  # id -> its one tuple
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        """Read the records, truncating the file after them when more bytes follow."""
        types, tuples, mine = self._types, self._tuples, self._key
        ls, ids = self._ls, self._ids
        end = 0  # bytes in the records read so far
        with open(self.path, "rb") as fh:
            for line in fh:
                try:
                    key, text, lens = line.split(b" ")
                    l = int(text)
                    t = types.get(lens)
                    if t is None:  # every field in types ends in a newline
                        lengths = tuple(int(x) for x in lens.split(b","))
                        if lens[-1:] != b"\n" or min(lengths) < 1:
                            raise ValueError
                        t = types[lens] = len(tuples)
                        tuples.append(lengths)
                    if key != mine:
                        key.decode()
                except ValueError:  # UnicodeDecodeError included
                    os.truncate(self.path, end)
                    break
                end += len(line)
                if key != mine:
                    continue
                if ls and ls[-1] < l < _WORD:  # appended in place
                    ls.append(l)
                    ids.append(t)
                else:
                    self._hold(l, t)
                    ls, ids = self._ls, self._ids  # a merge replaces them
        if self._waiting:
            self._merge()

    def _hold(self, l, t):
        """Hold l's cycle-type id t: appended to the arrays when l is above their last."""
        ls = self._ls
        if (not ls or l > ls[-1]) and -_WORD <= l < _WORD:
            ls.append(l)
            self._ids.append(t)
            return
        self._odd[l] = t
        self._waiting += 1
        if self._waiting >= _MERGE:
            self._merge()

    def _merge(self):
        """Merge the records of _odd that fit a machine word into the arrays,
        copying the runs of old records between them whole."""
        odd, self._odd, self._waiting = self._odd, {}, 0
        ls, ids, i = self._ls, self._ids, 0
        new_ls, new_ids = array("q"), array("I")
        for l, t in sorted(odd.items()):
            if not -_WORD <= l < _WORD:
                self._odd[l] = t
                continue
            j = bisect.bisect_left(ls, l, i)
            new_ls += ls[i:j]
            new_ids += ids[i:j]
            new_ls.append(l)
            new_ids.append(t)
            i = j + (j < len(ls) and ls[j] == l)
        self._ls, self._ids = new_ls + ls[i:], new_ids + ids[i:]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()

    def get(self, l):
        t = self._odd.get(l)
        if t is None:
            ls, j = self._ls, self._next
            if not (j < len(ls) and ls[j] == l):  # not the record after the last one read
                j = bisect.bisect_left(ls, l)
                if j == len(ls) or ls[j] != l:
                    return None
            self._next = j + 1
            t = self._ids[j]
        return self._tuples[t]

    def put(self, l, lengths):
        """Append the record of l's cycle type, hold it, and return the tuple held."""
        text = b",".join(b"%d" % x for x in lengths)
        t = self._types.setdefault(text + b"\n", len(self._tuples))
        if t == len(self._tuples):
            self._tuples.append(tuple(lengths))
        self._hold(l, t)
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(b"%s %d %s\n" % (self._key, l, text))
        self._fh.flush()
        return self._tuples[t]
