"""Exact checks of the CLI's standard output, one per kind of op.

Every check parses the output back into exact matrices and compares it with
facts the benchmark knows independently of the code under test: the input
matrix, a closed-form count, or the construction of the input. A check
returns the number of output items (terms or matrices) and raises CheckError
on the first mismatch. Checks never run inside a timed region.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from centrostoch import (
    ConvexCombination,
    Matrix,
    is_centrosymmetric,
    is_extreme_centro,
    is_extreme_stochastic,
    is_stochastic,
)

_HEADER = re.compile(r"\[(\d+)\](?: coefficient=(\S+))?")
_EDGE = re.compile(r"  r(\d+) -- s(\d+);")


class CheckError(Exception):
    """The output of an op differs from what its input implies."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _lines(text: str) -> list[str]:
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def _blocks(lines: list[str], m: int, n: int, with_coefficient: bool):
    """Parse the leading '[k]' blocks of a human-layout listing.

    Returns ([(coefficient or None, Matrix)], trailing lines). Blocks are
    numbered from 1, hold m rows of n entries and are separated by one blank
    line.
    """
    blocks = []
    pos = 0
    while pos < len(lines):
        match = _HEADER.fullmatch(lines[pos])
        if match is None:
            break
        _require(int(match[1]) == len(blocks) + 1, f"block {match[1]} out of order")
        _require(
            (match[2] is not None) == with_coefficient,
            f"block {match[1]}: unexpected header {lines[pos]!r}",
        )
        rows = [line.split() for line in lines[pos + 1 : pos + 1 + m]]
        _require(
            len(rows) == m and all(len(row) == n for row in rows),
            f"block {match[1]}: not a {m} x {n} matrix",
        )
        coefficient = Fraction(match[2]) if with_coefficient else None
        blocks.append((coefficient, Matrix(rows)))
        pos += 1 + m
        if pos < len(lines):
            _require(lines[pos] == "", f"block {match[1]}: no blank line after it")
            pos += 1
    return blocks, lines[pos:]


def _json_matrix(rows) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in rows])


def _distinct_extremes(mats, centro: bool) -> None:
    extreme = is_extreme_centro if centro else is_extreme_stochastic
    for k, mat in enumerate(mats, 1):
        _require(extreme(mat), f"matrix {k} is not an extreme point")
    _require(len(set(mats)) == len(mats), "a matrix is listed twice")


def decomposition(text: str, a: Matrix, centro: bool, as_json: bool) -> int:
    """`decompose`: the terms are distinct extreme points with coefficients
    in (0, 1] summing to 1, `ConvexCombination.combine()` gives back `a`
    bit for bit, and the plain route has at most nnz(a) - m + 1 terms."""
    m, n = a.shape
    if as_json:
        doc = json.loads(text)
        _require(list(doc) == ["terms"], "JSON keys are not ['terms']")
        terms = [
            (Fraction(t["coefficient"]), _json_matrix(t["matrix"])) for t in doc["terms"]
        ]
        for _, mat in terms:
            _require(mat.shape == (m, n), "a term has the wrong shape")
    else:
        terms, rest = _blocks(_lines(text), m, n, with_coefficient=True)
        _require(rest == [], f"unexpected trailing lines {rest[:2]!r}")
    _require(len(terms) >= 1, "no terms")
    _distinct_extremes([mat for _, mat in terms], centro)
    try:
        combination = ConvexCombination(terms)
    except ValueError as exc:
        raise CheckError(f"not a convex combination: {exc}") from None
    _require(combination.combine() == a, "the terms do not recombine to the input")
    if not centro:
        bound = a.nnz() - m + 1
        _require(len(terms) <= bound, f"{len(terms)} terms exceed nnz - m + 1 = {bound}")
    return len(terms)


def listing(text: str, shape, count: int, centro: bool, as_json: bool, pattern=None) -> int:
    """`enumerate --extremes` and `face vertices`: exactly `count` distinct
    extreme points (the closed-form count), each inside `pattern` if given.
    Distinct extreme points of the right number are the whole set."""
    m, n = shape
    if as_json:
        doc = json.loads(text)
        _require(list(doc) == ["count", "matrices"], "JSON keys are not [count, matrices]")
        mats = [_json_matrix(rows) for rows in doc["matrices"]]
        for mat in mats:
            _require(mat.shape == (m, n), "a matrix has the wrong shape")
        printed = doc["count"]
    else:
        blocks, rest = _blocks(_lines(text), m, n, with_coefficient=False)
        mats = [mat for _, mat in blocks]
        _require(len(rest) == 1 and rest[0].startswith("count="), "no count= line")
        printed = int(rest[0][len("count=") :])
    _require(printed == count, f"count {printed}, expected {count}")
    _require(len(mats) == count, f"{len(mats)} matrices listed, expected {count}")
    _distinct_extremes(mats, centro)
    if pattern is not None:
        for k, mat in enumerate(mats, 1):
            _require(
                all(pattern[i - 1][j - 1] == 1 for i, j in mat.support()),
                f"vertex {k} leaves the pattern",
            )
    return count


def basis(text: str, m: int, n: int, size: int, centro: bool) -> int:
    """`basis --verify`: `size` stochastic m x n matrices (centrosymmetric
    for the centro families) and a printed rank equal to `size`."""
    blocks, rest = _blocks(_lines(text), m, n, with_coefficient=False)
    _require(len(blocks) == size, f"{len(blocks)} matrices, expected {size}")
    _require(rest == [f"rank={size} independent=true"], f"verdict {rest!r}")
    for k, (_, mat) in enumerate(blocks, 1):
        _require(is_stochastic(mat), f"basis matrix {k} is not stochastic")
        _require(not centro or is_centrosymmetric(mat), f"basis matrix {k} is not centrosymmetric")
    return size


def exact_text(text: str, expected: str) -> int:
    """Outputs known in full in advance: `check`, `face count`."""
    _require(text == expected, f"output {text[:60]!r}, expected {expected[:60]!r}")
    return 0


def dot_graph(text: str, a: Matrix) -> int:
    """`graph --dot --fill`: one edge per nonzero entry of `a`, in sorted
    order, and fill = nnz / (m n)."""
    lines = _lines(text)
    m, n = a.shape
    rows = "; ".join(f"r{i}" for i in range(1, m + 1))
    cols = "; ".join(f"s{j}" for j in range(1, n + 1))
    header = [
        "graph zero_pattern {",
        "  rankdir=LR;",
        f"  {{ rank=same; {rows}; }}",
        f"  {{ rank=same; {cols}; }}",
    ]
    _require(lines[:4] == header, "bad DOT header")
    edges = []
    for line in lines[4:-2]:
        match = _EDGE.fullmatch(line)
        _require(match is not None, f"bad edge line {line!r}")
        edges.append((int(match[1]), int(match[2])))
    _require(edges == sorted(a.support()), "edges differ from the support")
    _require(lines[-2] == "}", "DOT document not closed")
    _require(lines[-1] == f"fill={Fraction(a.nnz(), m * n)}", f"bad fill line {lines[-1]!r}")
    return 0


def empty(text: str) -> int:
    """Refusals print nothing on standard output."""
    _require(text == "", "a refusal printed to stdout")
    return 0
