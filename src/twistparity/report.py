"""Structured, byte-reproducible reports.

A report is deterministic given (inputs, seed, tool version): canonical
JSON is sorted-key, fixed-indent, and never contains wall-clock data, so
repeated runs are byte-identical.  Values that were supplied by the user
rather than computed (h tables, r1 parity) are tagged with a provenance
marker by the code that puts them in.
"""

from __future__ import annotations

# the C encoder behind json.encoder's, without importing json.decoder and json.scanner
from _json import encode_basestring_ascii

# hashlib maps OpenSSL's libcrypto into every command; the interpreter's own
# SHA-256 module costs nothing to load
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256 as _sha256

TOOL_VERSION = "0.1.0"

__all__ = ["Report", "TOOL_VERSION", "sha256_text", "write_lines"]

_BATCH = 1 << 12  # characters of text after which the pieces are joined into one write
_KEPT = 256  # tuple texts past which the writer forgets them all at its next flush


def sha256_text(text: str) -> str:
    return _sha256(text.encode()).hexdigest()


def write_lines(fh, lines) -> None:
    """Write each of lines to fh with its newline, in batches flushed after
    the line that brings one to ``_BATCH`` characters, as ``Report.write``
    flushes its pieces."""
    text = ""
    for line in lines:
        text += f"{line}\n"
        if len(text) >= _BATCH:
            fh.write(text)
            text = ""
    fh.write(text)


class Report:
    __slots__ = ("command", "seed", "inputs", "outputs")
    tool_version = TOOL_VERSION

    def __init__(self, command: str, seed: int, inputs: dict, outputs: dict):
        self.command = command
        self.seed = seed
        self.inputs = inputs
        self.outputs = outputs

    def write(self, fh) -> None:
        """Write the canonical JSON report, one newline-terminated document, to fh.

        Sorted keys, two-space indent, ASCII only.  Package values are
        converted on the way: dict keys through ``str`` (a later key wins
        when two convert alike); an object with ``as_json_dict`` as that
        dict, a named tuple too, before any tuple or list is written as a
        list; and any other value, a ``Fraction`` among them, as the
        string ``str`` gives; an iterator is written as a list, drawn one
        element at a time.  The pieces of text are handed to ``fh.write``
        in batches, each flushed after the element of a list, tuple or
        iterator that brings it to ``_BATCH`` characters, so no copy of the
        whole report is ever built, and a scan handed over as a generator
        is written as it runs without being held whole.  The text of each
        exact tuple is kept by (id, indent) together with the tuple, whose
        id therefore stays taken, so a tuple shared by many records (a cycle
        type, the conditions of a recipe) is encoded once and then costs one
        append.  A tuple whose text spans a flush is not kept, and a flush
        that finds more than ``_KEPT`` texts kept forgets them all, so
        records that each bring a tuple of their own hold no more than that.
        """
        out = []
        put = out.append
        memo = {}  # (id, indent) -> (exact tuple, its text)
        size = counted = flushes = 0  # size is the characters in out[:counted]

        def emit(x, pad):
            nonlocal size, counted, flushes
            # a class derives from at most one of str, int, list, tuple and
            # dict, so the order of these tests changes no result; the exact
            # types come first, so a plain list or tuple is never asked for
            # as_json_dict, and only what is none of them for __next__
            if isinstance(x, str):
                put(encode_basestring_ascii(x))
            elif x is None or x is True or x is False:
                put("null" if x is None else "true" if x else "false")
            elif isinstance(x, int):
                put(int.__repr__(x))
            elif isinstance(x, dict):
                if not x:
                    put("{}")
                    return
                items = {str(k): v for k, v in x.items()}
                inner = pad + "  "
                sep = "{" + inner
                for k in sorted(items):
                    put(sep + encode_basestring_ascii(k) + ": ")
                    emit(items[k], inner)
                    sep = "," + inner
                put(pad + "}")
            elif type(x) is list or type(x) is tuple or not hasattr(x, "as_json_dict") and (
                isinstance(x, (list, tuple)) or hasattr(x, "__next__")
            ):
                shared = type(x) is tuple
                if shared:
                    key = (id(x), pad)
                    hit = memo.get(key)
                    if hit is not None:
                        put(hit[1])
                        return
                    start, batch = len(out), flushes
                inner = pad + "  "
                sep = "[" + inner
                for v in x:
                    put(sep)
                    emit(v, inner)
                    sep = "," + inner
                    size += sum(map(len, out[counted:]))
                    counted = len(out)
                    if size >= _BATCH:
                        fh.write("".join(out))
                        out.clear()
                        if len(memo) > _KEPT:
                            memo.clear()
                        size = counted = 0
                        flushes += 1
                put("[]" if sep[0] == "[" else pad + "]")
                if shared and flushes == batch:
                    memo[key] = (x, "".join(out[start:]))
            elif hasattr(x, "as_json_dict"):
                emit(x.as_json_dict(), pad)
            else:
                put(encode_basestring_ascii(str(x)))

        emit(
            {
                "command": self.command,
                "tool_version": self.tool_version,
                "seed": self.seed,
                "inputs": self.inputs,
                "outputs": self.outputs,
            },
            "\n",
        )
        put("\n")
        fh.write("".join(out))
