"""The prime cache, which only ``frobenius`` opens: one curve's records
in a file of Frobenius cycle types by curve hash and prime, held as the
file was when it was opened, to which ``put`` only appends.  Kept apart
so that neither module is long to compile when no bytecode is cached.
"""

from __future__ import annotations

import bisect
import os
from array import array

__all__ = ["PrimeCache"]

_WORD = 1 << 63  # the arrays of PrimeCache hold l in [2, _WORD)
_MERGE = 4096  # out-of-order records held by a load that set off a merge


class PrimeCache:
    """The records of curve hash ``key`` that an append-only file of
    ``<curve_hash> <l> <l1,l2,...>`` lines, which may hold several curves,
    had when the cache was opened.

    A record is such a line split at single spaces: a UTF-8 curve hash, an
    int l and ints >= 1, ended by a newline.  Loading parses every record,
    stops at the first line that is not one, and truncates the file after
    the last when more bytes follow, so a torn write never poisons later
    runs and a valid file is only read.  A later record for an l overrides
    an earlier one.  Each cycle type is one tuple however many primes
    share it, and a record is held in 12 bytes: an array of increasing l
    and a parallel one of cycle-type ids.  A record whose l is not above
    the last waits in a dict of the load until ``_MERGE`` of them, or the
    end of the load, set off a merge; a record whose l lies outside
    [2, 2^63), which no scan asks for, is skipped.  ``put`` appends a
    record to the file and leaves the arrays as they are: a scan never
    reads back a prime it put, and a fresh cache reads it.  The first
    ``put`` opens one append handle, flushed after every record, and
    leaving a ``with`` block closes it for good.
    """

    def __init__(self, path, key):
        self.path = path
        self._key = key.encode()
        self._ls = array("q")  # l, increasing
        self._ids = array("I")  # their cycle-type ids
        self._next = 0  # the index after the last record get found
        self._types: dict = {}  # bytes of a lengths field, newline included -> its id
        self._tuples: list = []  # id -> its one tuple
        self._fh = None
        if os.path.exists(path):
            self._load()

    def _load(self):
        """Read the records, truncating the file after them when more bytes follow."""
        types, tuples, mine = self._types, self._tuples, self._key
        ls, ids = self._ls, self._ids
        odd: dict = {}  # l -> cycle-type id of the records not above the last, until a merge
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
                if key != mine or not 2 <= l < _WORD:
                    continue
                if ls and l <= ls[-1]:
                    odd[l] = t
                    if len(odd) >= _MERGE:
                        self._merge(odd)
                        ls, ids, odd = self._ls, self._ids, {}  # a merge replaces the arrays
                else:  # appended in place
                    ls.append(l)
                    ids.append(t)
        if odd:
            self._merge(odd)

    def _merge(self, odd):
        """Merge odd's records into the arrays, over any of the same l,
        copying the runs of old records between them whole."""
        ls, ids, i = self._ls, self._ids, 0
        new_ls, new_ids = array("q"), array("I")
        for l, t in sorted(odd.items()):
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
        ls, j = self._ls, self._next
        if not (j < len(ls) and ls[j] == l):  # not the record after the last one read
            j = bisect.bisect_left(ls, l)
            if j == len(ls) or ls[j] != l:
                return None
        self._next = j + 1
        return self._tuples[self._ids[j]]

    def put(self, l, lengths):
        """Append the record of l's cycle type to the file and return its one tuple."""
        text = b",".join(b"%d" % x for x in lengths)
        t = self._types.setdefault(text + b"\n", len(self._tuples))
        if t == len(self._tuples):
            self._tuples.append(tuple(lengths))
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._fh.write(b"%s %d %s\n" % (self._key, l, text))
        self._fh.flush()
        return self._tuples[t]
