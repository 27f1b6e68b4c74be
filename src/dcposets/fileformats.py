"""Line-oriented text formats for posets, fillings, matrices and orders.

All formats are comment-friendly (``#`` to end of line) and round-trip
bit-exactly through the writers, which emit one canonical form.
Rationals are written ``p/q`` in lowest terms with positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poset import Poset


class FormatError(ValueError):
    """Malformed input text."""


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from None


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def poset_to_text(P: Poset) -> str:
    lines = [f"elements {P.n}"]
    for i in sorted(P.names):
        lines.append(f"name {i} {P.names[i]}")
    for a, b in sorted(P.covers):
        lines.append(f"cover {a} {b}")
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> Poset:
    n: int | None = None
    names: dict[int, str] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, fields in _content_lines(text):
        kind = fields[0]
        try:
            if kind == "elements":
                if n is not None:
                    raise FormatError(f"line {lineno}: repeated elements line")
                n = int(fields[1])
            elif kind == "name":
                names[int(fields[1])] = " ".join(fields[2:])
            elif kind == "cover":
                pairs.append((int(fields[1]), int(fields[2])))
            else:
                raise FormatError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from None
    if n is None:
        raise FormatError("missing 'elements <n>' line")
    try:
        return Poset(n, pairs, names)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def filling_to_text(values: Sequence[Fraction]) -> str:
    lines = [f"value {i} {format_fraction(v)}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def filling_from_text(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for lineno, fields in _content_lines(text):
        if fields[0] != "value" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'value <element> <p/q>'")
        try:
            element = int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad element id {fields[1]!r}") from None
        if element in out:
            raise FormatError(f"line {lineno}: repeated element {element}")
        out[element] = parse_fraction(fields[2])
    return out


def matrix_from_text(text: str) -> list[list[int]]:
    rows = []
    for lineno, fields in _content_lines(text):
        try:
            rows.append([int(v) for v in fields])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise FormatError("matrix text contains no rows")
    return rows


def order_from_text(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for lineno, fields in _content_lines(text):
        try:
            out.extend(int(v) for v in fields)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if not out:
        raise FormatError("order text contains no ids")
    return tuple(out)
