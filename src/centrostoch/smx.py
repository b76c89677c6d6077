"""SMX, a small text format for exact rational matrices.

The first data line holds the dimensions ``m n``; the next m lines hold n
whitespace-separated entries each. An entry is a rational in any form the
`fractions` module parses exactly: ``7/10``, ``3``, ``0.25``. Lines whose
first non-blank character is ``#`` are comments; blank lines are skipped.
Writing then reading a matrix reproduces it bit-for-bit.

A token's text fixes its value, so each distinct token of an input is
parsed and checked once, at its first occurrence; only tokens that parse
are remembered, so an error names the first line where a bad token occurs.
A token is read as its value's reduced (num, den) int pair: a token ``a``
or ``a/b`` of ASCII digits, as `format_matrix` writes every nonnegative
entry, as the two ints Fraction's string parser would read, reduced by
their gcd, without that parser or the exponent check; any other token by
the string parser. Both routes give the same value and the same error. The
Matrix holds each row as indices of its distinct values (`core._held`),
with no second check; its entries, one Fraction per value, are built when
they are first read.

A decimal exponent (``1e-3``) may not exceed 4300 in absolute value, the
interpreter's default limit on the digits of an int read from a string;
larger ones would make huge numerators or denominators and are refused with
SmxError before any arithmetic is done. A numerator or denominator with more
digits than that limit (`sys.get_int_max_str_digits()`) is refused as a bad
rational. The dimension line allocates nothing: a huge m on a short input
fails with "expected m rows, found only k".

An error message quotes at most the first 40 characters of a bad token or
dimension line, followed by its length, so its size does not grow with the
input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from centrostoch.core import Matrix, _held

__all__ = ["SmxError", "parse_matrix", "format_matrix"]


class SmxError(ValueError):
    """Malformed SMX text."""


_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")
_QUOTED = 40


def _quote(text: str) -> str:
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _data_lines(text: str):
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _rational(token: str, number: int) -> tuple[int, int]:
    # the value of an entry token on line `number`, as its reduced (num, den)
    numerator, slash, denominator = token.partition("/")
    # `a` or `a/b` in ASCII digits: the two ints Fraction(token) would read
    digits = token.isascii() and numerator.isdigit() and (not slash or denominator.isdigit())
    exponent = None if digits else _EXPONENT.search(token)
    if exponent:
        try:
            too_large = abs(int(exponent[1])) > _MAX_EXPONENT
        except ValueError:  # too many digits for int() to read
            too_large = True
        if too_large:
            raise SmxError(f"line {number}: exponent outside -{_MAX_EXPONENT}..{_MAX_EXPONENT}")
    try:
        if not digits:
            return Fraction(token).as_integer_ratio()
        num, den = int(numerator), int(denominator) if slash else 1
        if not den:
            raise ZeroDivisionError  # as Fraction(num, 0) does
        g = gcd(num, den)
        return num // g, den // g
    except (ValueError, ZeroDivisionError):
        raise SmxError(f"line {number}: bad rational {_quote(token)}") from None


def parse_matrix(text: str) -> Matrix:
    """Parse SMX text into a Matrix. Raises SmxError on malformed input."""
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise SmxError("empty input: expected a dimension line 'm n'") from None
    parts = header.split()
    if len(parts) != 2:
        raise SmxError(f"line {header_no}: expected 'm n', got {_quote(header)}")
    try:
        nrows, ncols = int(parts[0]), int(parts[1])
    except ValueError:
        raise SmxError(f"line {header_no}: dimensions must be integers") from None
    if nrows < 1 or ncols < 1:
        raise SmxError(f"line {header_no}: dimensions must be positive")

    rows = []
    index: dict[str, int] = {}  # each distinct token, parsed once -> its value's index
    values: dict[tuple[int, int], int] = {}  # each distinct value -> its index
    for _ in range(nrows):
        try:
            number, line = next(lines)
        except StopIteration:
            raise SmxError(
                f"expected {nrows} rows, found only {len(rows)}"
            ) from None
        tokens = line.split()
        if len(tokens) != ncols:
            raise SmxError(
                f"line {number}: expected {ncols} entries, found {len(tokens)}"
            )
        row = []
        for token in tokens:
            k = index.get(token)
            if k is None:
                k = index[token] = values.setdefault(_rational(token, number), len(values))
            row.append(k)
        rows.append(tuple(row))
    for number, _ in lines:
        raise SmxError(f"line {number}: data after the final row")
    # the rows are checked indices of width ncols: nothing to convert
    return _held(tuple(rows), ncols, list(values))


def format_matrix(a: Matrix) -> str:
    """Write a Matrix as SMX text, one row per line, trailing newline."""
    lines = [f"{a.nrows} {a.ncols}"]
    lines.extend(" ".join(str(x) for x in row) for row in a.entries)
    return "\n".join(lines) + "\n"
