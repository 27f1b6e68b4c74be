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
    """``P`` in the poset format; a name the reader would read as another raises :class:`FormatError`."""
    lines = [f"elements {P.n}"]
    for i in sorted(P.names):
        name = P.names[i]
        if not name or "#" in name or name != " ".join(name.split()):
            raise FormatError(f"name of element {i} does not round-trip: {name!r}")
        lines.append(f"name {i} {name}")
    for a, b in sorted(P.covers):
        lines.append(f"cover {a} {b}")
    return "\n".join(lines) + "\n"


# Each directive's form and its number of int fields; ``name`` takes the
# rest of its line as the name, and the others take nothing more.
_POSET_FORMS = {
    "elements": ("elements <n>", 1),
    "cover": ("cover <lower> <upper>", 2),
    "name": ("name <id> <text>", 1),
}


def poset_from_text(text: str) -> Poset:
    n: int | None = None
    names: dict[int, str] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, fields in _content_lines(text):
        kind, args = fields[0], fields[1:]
        if kind not in _POSET_FORMS:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
        form, k = _POSET_FORMS[kind]
        try:
            ids = [int(v) for v in args[:k]]
        except ValueError:
            ids = []
        if len(ids) < k or bool(args[k:]) != (kind == "name"):
            raise FormatError(f"line {lineno}: expected '{form}', got {' '.join(fields)!r}")
        if kind == "elements":
            if n is not None:
                raise FormatError(f"line {lineno}: repeated elements line")
            n = ids[0]
        elif kind == "name":
            if ids[0] in names:
                raise FormatError(f"line {lineno}: repeated name for element {ids[0]}")
            names[ids[0]] = " ".join(args[1:])
        else:
            pairs.append((ids[0], ids[1]))
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
    """Nonnegative integer rows of equal length, one row per line."""
    rows = []
    for lineno, fields in _content_lines(text):
        try:
            row = [int(v) for v in fields]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise FormatError(f"line {lineno}: row has {len(row)} entries, the first row {len(rows[0])}")
        if min(row) < 0:
            raise FormatError(f"line {lineno}: negative entry {min(row)}")
        rows.append(row)
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
