"""Extreme points of the stochastic and centrosymmetric stochastic polytopes.

The structural predicates (`is_extreme_stochastic`, `is_extreme_centro`)
read the known shape of the extreme points, the paper's Birkhoff theorem,
off `core._vertex_of`, the one place that states it. `graphs` answers the
same question from a matrix's bipartite graph; tests play the two routes,
and a rank oracle kept in `tests/`, against each other.

The enumerators walk one product: an extreme point picks a column in each
free row (every row, or the top half under the half turn) and, for odd row
count, one admissible centre row. Restricting each row to a (0,1) pattern's
support yields the vertices of that pattern's face; `faces` counts them as
the size of the same product. `pattern=` asks `is_zero_one()`, free on a
`FacePattern`; a plain Matrix is read for it and again for the supports.
A plain point is a `RectPermMatrix`, its own vertex key, built in C with
no Python call; a centrosymmetric point's key is built in C too, and the
point is `core._keyed` of it, one slot set. No enumerator builds a dense row.
Without a pattern nothing read from input bounds the rows, so `cap` bounds
the number of free rows as well as the count.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence

from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Matrix,
    NoRowSupportError,
    NotCentrosymmetricError,
    PatternError,
    RectPermMatrix,
    ShapeError,
    _as_int,
    _keyed,
    _new_rect_perm,
    _new_vertex,
    _rotated,
    _vertex_of,
    _Vertex,
    is_centrosymmetric,
)

# unused here; perfbench --trace wraps the predicate under this module's name
from centrostoch.core import is_stochastic  # noqa: F401

__all__ = [
    "is_extreme_stochastic",
    "is_extreme_centro",
    "enumerate_extreme_stochastic",
    "enumerate_extreme_centro",
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


def _choices(
    m: int, n: int, cap: int, pattern: Matrix | None, centro: bool
) -> tuple[int, int, list[Sequence[int]]]:
    """(m, n, the free rows' `_column_choices`) for the extreme points
    inside `pattern` (all when None), m and n as ints. Raises
    `_column_choices`' errors, then EnumerationCapError when, without a
    pattern, the free rows outnumber `cap`, or when the count exceeds it.
    """
    m, n = _as_int(m), _as_int(n)
    choices = _column_choices(m, n, pattern, centro)
    cap = _as_int(cap)
    rows = m - m // 2 if centro else m  # the centro top half and centre row
    if pattern is None and rows > cap:
        raise EnumerationCapError(f"{rows} free rows exceed the cap of {cap}")
    # multiply the sizes step by step and stop as soon as the cap is passed,
    # so a huge count is never built in full nor formatted as a decimal
    kept, total = [], 1
    for choice in choices:
        total *= len(choice)
        if total > cap:
            raise EnumerationCapError(
                f"the number of extreme points exceeds the cap of {cap}"
            )
        kept.append(choice)
    return m, n, kept


def _mirrored_keys(kept: list[Sequence[int]], m: int, n: int) -> Iterator[_Vertex]:
    # picks of the top half (then the centre, for odd m, cycling fastest) in
    # lockstep with picks of its mirrored columns n + 1 - c, whose reversal
    # (without the centre) is the bottom half; no Python call per key. A
    # centre j <= n + 1 - j is canonical; the middle one stays in the tuple.
    half = m // 2
    mirrored = [[n + 1 - c for c in choice] for choice in kept[:half]]
    if m % 2 == 0:
        bottoms = map(operator.itemgetter(slice(None, None, -1)), itertools.product(*mirrored))
        cols = map(operator.add, itertools.product(*kept), bottoms)
        return map(_new_vertex, zip(cols, itertools.repeat(n), itertools.repeat(None)))
    cuts = itertools.cycle([slice(half + (2 * c == n + 1)) for c in kept[half]])
    tops = map(operator.getitem, itertools.product(*kept), cuts)
    bottoms = map(operator.itemgetter(slice(-2, None, -1)), itertools.product(*mirrored, kept[half]))
    centres = itertools.cycle([None if 2 * c == n + 1 else c for c in kept[half]])
    return map(_new_vertex, zip(map(operator.add, tops, bottoms), itertools.repeat(n), centres))


def enumerate_extreme_stochastic(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP, pattern: Matrix | None = None
) -> Iterator[RectPermMatrix]:
    """All n^m rectangular permutation matrices of shape m x n, lazily.

    With a (0,1) `pattern` only those supported inside it: the vertices of
    its face, one column from each row's support. Output is in
    lexicographic order of the column assignments. Raises
    EnumerationCapError up front when the count exceeds `cap`, or, without
    a pattern, when m does.
    """
    # every column comes from range(1, n + 1) or a checked support
    m, n, kept = _choices(m, n, cap, pattern, centro=False)
    keys = zip(itertools.product(*kept), itertools.repeat(n), itertools.repeat(None))
    return map(_new_rect_perm, keys)


def enumerate_extreme_centro(
    m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP, pattern: Matrix | None = None
) -> Iterator[Matrix]:
    """All extreme points of the centrosymmetric polytope, lazily.

    There are n^(m/2) for even m and ceil(n/2) * n^((m-1)/2) for odd m; with
    a centrosymmetric (0,1) `pattern` only those supported inside it, the
    vertices of its face. The top half runs lexicographically, and for odd
    m the center row cycles fastest. Each point holds only its vertex until
    its entries are read. Raises EnumerationCapError up front when the
    count exceeds `cap`, or, without a pattern, when ceil(m/2) does.
    """
    m, n, kept = _choices(m, n, cap, pattern, centro=True)
    return map(_keyed, _mirrored_keys(kept, m, n))

