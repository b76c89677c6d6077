"""Extreme points of the stochastic and centrosymmetric stochastic polytopes.

Two independent routes to extremality live here. The structural predicates
(`is_extreme_stochastic`, `is_extreme_centro`) read the known shape of the
extreme points off `core._vertex_of`, the one place that states it. The
oracle (`is_extreme_oracle`) knows nothing about that shape: it applies the
general vertex criterion, testing by exact rank whether the only
support-preserving perturbation with zero row sums (and, on request,
half-turn symmetry) is zero. Tests play the two routes against each
other; library code never mixes them.

The enumerators walk one product: an extreme point picks a column in each
free row (every row, or the top half under the half turn) and, for odd row
count, one admissible centre row. Restricting each row to a (0,1) pattern's
support yields the vertices of that pattern's face; `faces` counts them as
the size of the same product. `pattern=` asks `is_zero_one()`, free on a
`FacePattern`; a plain Matrix is read for it and again for the supports.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Matrix,
    NoRowSupportError,
    NotCentrosymmetricError,
    NotStochasticError,
    PatternError,
    RectPermMatrix,
    ShapeError,
    _as_int,
    _mirrored,
    _rank,
    _rotated,
    _unit_matrix,
    _vertex_of,
    is_centrosymmetric,
    is_stochastic,
)

__all__ = [
    "is_extreme_stochastic",
    "is_extreme_centro",
    "enumerate_extreme_stochastic",
    "enumerate_extreme_centro",
    "is_extreme_oracle",
]


def is_extreme_stochastic(a: Matrix) -> bool:
    """True iff `a` is a rectangular permutation matrix.

    Those are exactly the extreme points of the polytope of row-stochastic
    matrices of the given shape: vertices without a centre row.
    """
    vertex = _vertex_of(a)
    return vertex is not None and vertex.center is None


def is_extreme_centro(a: Matrix) -> bool:
    """Structural test for extremality in the centrosymmetric polytope.

    For even row count the extreme points are the centrosymmetric
    rectangular permutation matrices. For odd row count every row except the
    center one carries a single 1, and the center row is either a 1 on the
    middle column (odd column count) or a mirrored pair of 1/2 entries. So
    `a` is extreme iff it is a vertex whose column tuple is its own
    rotation. Returns False for anything outside the polytope.
    """
    vertex = _vertex_of(a)
    return vertex is not None and vertex.cols == _rotated(vertex.cols, vertex.ncols)


def _check_sizes(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ShapeError(f"matrix sizes must be positive, got {m} x {n}")


def _column_choices(
    m: int, n: int, pattern: Matrix | None, centro: bool
) -> Iterable[Sequence[int]]:
    """The allowed columns of each free row, in row order.

    The free rows are all m rows, or the top m // 2 for centro; for odd-m
    centro the admissible centre columns j <= ceil(n / 2) follow. The
    extreme points supported inside `pattern` (the whole polytope when
    None) are exactly the ways to pick one choice from each, so their count
    is the product of the choices' sizes. Without a pattern the rows come
    lazily, so a cap check can stop early. Raises ShapeError, PatternError,
    NotCentrosymmetricError (centro) and NoRowSupportError.
    """
    _check_sizes(m, n)
    free = m // 2 if centro else m
    centres: Sequence[int] = range(1, (n + 1) // 2 + 1)
    if pattern is None:
        rows: Iterable[Sequence[int]] = itertools.repeat(range(1, n + 1), free)
    else:
        if pattern.shape != (m, n):
            raise ShapeError(f"the pattern is {pattern.nrows} x {pattern.ncols}, not {m} x {n}")
        # a FacePattern answers without reading; a plain Matrix reads its entries
        if not pattern.is_zero_one():
            raise PatternError("a face pattern must have entries 0 and 1 only")
        supports = [[j for j, x in enumerate(row, 1) if x] for row in pattern.entries]
        if centro and not is_centrosymmetric(pattern):
            raise NotCentrosymmetricError(
                "the face needs a centrosymmetric pattern; meet it with its rotation first"
            )
        if not all(supports):
            raise NoRowSupportError("pattern has an all-zero row")
        rows = supports[:free]
        centres = [j for j in centres if pattern.entries[m // 2][j - 1]]
    return itertools.chain(rows, [centres]) if centro and m % 2 else rows


def _product(choices: Iterable[Sequence[int]], cap: int) -> Iterator[tuple[int, ...]]:
    # multiply the sizes step by step and stop as soon as the cap is passed,
    # so a huge count is never built in full nor formatted as a decimal
    cap = _as_int(cap)
    kept, total = [], 1
    for choice in choices:
        total *= len(choice)
        if total > cap:
            raise EnumerationCapError(
                f"the number of extreme points exceeds the cap of {cap}"
            )
        kept.append(choice)
    return itertools.product(*kept)


def enumerate_extreme_stochastic(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP, pattern: Matrix | None = None
) -> Iterator[RectPermMatrix]:
    """All n^m rectangular permutation matrices of shape m x n, lazily.

    With a (0,1) `pattern` only those supported inside it: the vertices of
    its face, one column from each row's support. Output is in
    lexicographic order of the column assignments. Raises
    EnumerationCapError up front when the count exceeds `cap`.
    """
    m, n = _as_int(m), _as_int(n)
    choices = _column_choices(m, n, pattern, centro=False)
    # every column comes from range(1, n + 1) or a checked support
    return (RectPermMatrix._trusted(cols, n) for cols in _product(choices, cap))


def enumerate_extreme_centro(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP, pattern: Matrix | None = None
) -> Iterator[Matrix]:
    """All extreme points of the centrosymmetric polytope, lazily.

    There are n^(m/2) for even m and ceil(n/2) * n^((m-1)/2) for odd m; with
    a centrosymmetric (0,1) `pattern` only those supported inside it, the
    vertices of its face. The top half runs lexicographically, and for odd
    m the center row cycles fastest. Raises EnumerationCapError up front
    when the count exceeds `cap`.
    """
    m, n = _as_int(m), _as_int(n)
    half = m // 2
    choices = _column_choices(m, n, pattern, centro=True)
    return (
        _unit_matrix(_mirrored(cols[:half], n), n, cols[half] if m % 2 else None)
        for cols in _product(choices, cap)
    )


def is_extreme_oracle(a: Matrix, centro: bool = False) -> bool:
    """Vertex test straight from the definition, by exact rank.

    `a` is extreme iff the only matrix supported inside supp(a) with zero
    row sums (and equal to its own half-turn rotation when `centro`) is the
    zero matrix. That solution space is the null space of a small exact
    linear system; `a` is extreme iff the system's rank equals the number of
    support positions. Raises NotStochasticError / NotCentrosymmetricError
    when `a` is outside the polytope in question.
    """
    if not is_stochastic(a):
        raise NotStochasticError("oracle input must be row-stochastic")
    if centro and not is_centrosymmetric(a):
        raise NotCentrosymmetricError("oracle input must be centrosymmetric")
    m, n = a.shape
    support = sorted(a.support())
    # one zero-row-sum constraint per row (is_stochastic leaves none empty)
    rows = [[1 if r == i else 0 for r, _ in support] for i in range(1, m + 1)]
    if centro:
        index = {pos: k for k, pos in enumerate(support)}
        for k, (i, j) in enumerate(support):
            mirror = index[(m + 1 - i, n + 1 - j)]
            if k < mirror:
                row = [0] * len(support)
                row[k], row[mirror] = 1, -1
                rows.append(row)
    return _rank(rows) == len(support)
