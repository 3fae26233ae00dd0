"""Curve and profile file formats.

Curve files (UTF-8, line based, '#' comments):

    p = 2
    f = [1672, -273, 0, 1]          # coefficients, ascending degree
    factor = [19, 1]                # optional, repeatable
    factor = [-8, 1]

Profile files hold one or more finite-place sections:

    place = 2
    h[1] = 0
    h[5] = 1
    h[-1] = unknown
    ...
    place = 3
    h[1] = 0
    ...

Labels are the canonical square-class representatives of the place; the
real place is never read from a file because its table is auto-filled.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .characters import local_classes
from .curves import CurveSpec
from .errors import ParseError, ResourceLimitError
from .modular import Place, is_prime
from .parity import LocalProfile
from .ratpoly import RatPoly

__all__ = ["parse_curve_text", "load_curve", "parse_profiles_text"]

_ECHO = 20  # characters from each end of a malformed token that an error shows


def _parse_coeff(tok: str, lineno: int) -> Fraction:
    tok = tok.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        digits = max(sum(map(str.isdigit, part)) for part in tok.split("/"))
        limit = sys.get_int_max_str_digits()
        if 0 < limit < digits:
            raise ResourceLimitError(
                f"line {lineno}: a coefficient of {digits} digits exceeds the "
                f"{limit} digits Python converts from text"
            ) from None
        if len(tok) > 2 * _ECHO:
            shown = f"{tok[:_ECHO]!r}...{tok[-_ECHO:]!r} ({len(tok)} characters)"
        else:
            shown = repr(tok)
        raise ParseError(f"bad coefficient {shown}", lineno) from None


def _parse_coeff_list(body: str, lineno: int):
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("expected a [c0, c1, ...] coefficient list", lineno)
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError("empty coefficient list", lineno)
    return [_parse_coeff(t, lineno) for t in inner.split(",")]


def parse_curve_text(text: str) -> CurveSpec:
    p = None
    f = None
    factors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, body = line.partition("=")
        key = key.strip()
        if key == "p":
            try:
                p = int(body.strip())
            except ValueError:
                raise ParseError("p must be an integer", lineno) from None
            if p != 2:
                raise ParseError("only p = 2 is supported", lineno)
        elif key == "f":
            if f is not None:
                raise ParseError("duplicate f line", lineno)
            f = RatPoly(_parse_coeff_list(body, lineno))
        elif key == "factor":
            factors.append(RatPoly(_parse_coeff_list(body, lineno)))
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if p is None:
        raise ParseError("missing 'p = 2' line")
    if f is None:
        raise ParseError("missing 'f = [...]' line")
    try:
        return CurveSpec(f=f, p=p, declared_factors=tuple(factors))
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def load_curve(path) -> CurveSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curve_text(fh.read())


def parse_profiles_text(text: str) -> dict:
    """{Place: LocalProfile} from a profile file body."""
    out: dict = {}
    place = None
    table: dict = {}

    def flush(lineno):
        nonlocal place, table
        if place is not None:
            try:
                out[place] = LocalProfile(place, table)
            except Exception as exc:
                raise ParseError(str(exc), lineno) from exc
        place, table = None, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, body = line.partition("=")
        key = key.strip()
        body = body.strip()
        if key == "place":
            flush(lineno)
            if body == "inf":
                raise ParseError(
                    "the real place is auto-filled and cannot be supplied", lineno
                )
            try:
                q = int(body)
            except ValueError:
                raise ParseError("place must be a prime or 'inf'", lineno) from None
            if not is_prime(q):
                raise ParseError(f"{q} is not prime", lineno)
            place = Place.finite(q)
            if place in out:
                raise ParseError(f"duplicate place {q}", lineno)
        elif key.startswith("h[") and key.endswith("]"):
            if place is None:
                raise ParseError("h[...] before any 'place =' line", lineno)
            try:
                label = int(key[2:-1])
            except ValueError:
                raise ParseError(f"bad label in {key!r}", lineno) from None
            if label not in local_classes(place):
                raise ParseError(
                    f"label {label} is not canonical at place {place}", lineno
                )
            if label in table:
                raise ParseError(f"duplicate h[{label}] at place {place}", lineno)
            if body == "unknown":
                table[label] = None
            else:
                try:
                    val = int(body)
                except ValueError:
                    raise ParseError("h value must be an integer or 'unknown'", lineno) from None
                if val < 0:
                    raise ParseError("h values are nonnegative", lineno)
                table[label] = val
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    flush(None)
    return out
