"""Structured, byte-reproducible reports.

A report is deterministic given (inputs, seed, tool version): canonical
JSON is sorted-key, fixed-indent, and never contains wall-clock data, so
repeated runs are byte-identical.  Values that were supplied by the user
rather than computed (h tables, r1 parity) are tagged with a provenance
marker by the code that puts them in.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii

TOOL_VERSION = "0.1.0"

__all__ = ["Report", "TOOL_VERSION", "sha256_text"]

_BATCH = 8192  # pieces of text joined into one write


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Report:
    __slots__ = ("command", "seed", "inputs", "outputs")
    tool_version = TOOL_VERSION

    def __init__(
        self, command: str, seed: int, inputs: dict | None = None, outputs: dict | None = None
    ):
        self.command = command
        self.seed = seed
        self.inputs = {} if inputs is None else inputs
        self.outputs = {} if outputs is None else outputs

    def write(self, fh) -> None:
        """Write the canonical JSON report, one newline-terminated document, to fh.

        Sorted keys, two-space indent, ASCII only.  Package values are
        converted on the way: dict keys through ``str`` (a later key wins
        when two convert alike), tuples, named ones too, as lists, any
        other object with ``as_json_dict`` as that dict, and any other
        value, a ``Fraction`` among them, as the string ``str`` gives.
        Pieces of text are handed to ``fh.write`` in batches of
        ``_BATCH``, so no copy of the whole report is ever built.
        """
        out = []
        put = out.append

        def emit(x, pad):
            # a class derives from at most one of str, int, list, tuple and
            # dict, so the order of these tests changes no result
            if isinstance(x, str):
                put(encode_basestring_ascii(x))
            elif x is None or x is True or x is False:
                put("null" if x is None else "true" if x else "false")
            elif isinstance(x, int):
                put(int.__repr__(x))
            elif isinstance(x, (list, tuple)):
                if not x:
                    put("[]")
                    return
                inner = pad + "  "
                sep = "[" + inner
                for v in x:
                    put(sep)
                    emit(v, inner)
                    sep = "," + inner
                    if len(out) >= _BATCH:
                        fh.write("".join(out))
                        out.clear()
                put(pad + "]")
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
