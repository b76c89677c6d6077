"""Greedy decomposition of stochastic matrices into extreme points.

The common engine is a sweep over sorted breakpoints. Each row's positive
entries, taken in ascending (value, column) order, cut [0, 1] into
consecutive intervals; the cumulative sums that end them are the row's
breakpoints. Walking the sorted union of all rows' breakpoints, each one
ends a cell of the rows' common refinement and gives one term: its
coefficient is the gap to the previous breakpoint, and its column tuple
picks in each row the entry whose interval covers the cell. So there are
exactly as many terms as distinct breakpoints. This is the north-west-corner
rule on sorted rows, and it yields exactly the terms of the classic greedy
peel (mark each row's smallest positive entry, leftmost on ties, peel, and
renormalise), because a marked entry stays the smallest of its row until it
is used up. Everything else in the module is bookkeeping on the column
tuples: pairing terms with their half-turn rotations for the
centrosymmetric polytope, and splitting the pairs that are not yet extreme.
The terms reach `ConvexCombination` as vertices, never as dense matrices.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from centrostoch.core import (
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    SplitError,
    _mirrored,
    _rotated,
    _vertex,
    _Vertex,
    is_centrosymmetric,
    is_stochastic,
)

# unused here; perfbench --trace wraps the predicate under this module's name
from centrostoch.extremes import is_extreme_centro  # noqa: F401

__all__ = [
    "decompose_stochastic",
    "split_noncentrosymmetric",
    "decompose_centrosymmetric",
]


def _greedy_terms(a: Matrix) -> list[tuple[Fraction, tuple[int, ...]]]:
    # callers have checked that `a` is stochastic, so every row's sums end
    # at exactly 1; the entry covering the cell that ends at the k-th
    # breakpoint is the first whose cumulative sum reaches it. The bisects
    # run on the sums' ranks among the breakpoints: comparing two ints is
    # far cheaper than comparing two Fractions.
    rows = [sorted((x, j) for j, x in enumerate(row, 1) if x > 0) for row in a.entries]
    sums = [list(accumulate(x for x, _ in row)) for row in rows]
    points = sorted(set().union(*sums))
    rank = {point: k for k, point in enumerate(points)}
    ranks = [[rank[s] for s in row_sums] for row_sums in sums]
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    previous = Fraction(0)
    for k, point in enumerate(points):
        cols = tuple(row[bisect_left(r, k)][1] for row, r in zip(rows, ranks))
        terms.append((point - previous, cols))
        previous = point
    return terms


def decompose_stochastic(a: Matrix) -> ConvexCombination:
    """Write a stochastic matrix as a convex combination of rectangular
    permutation matrices.

    Each row's positive entries, sorted by (value, column), partition
    [0, 1] at their cumulative sums, the row's breakpoints; the terms are
    the cells of the rows' common refinement, in order, each weighted by its
    length. A cell ends at a breakpoint of some row, so there is exactly one
    term per distinct breakpoint among all rows. Row i has nnz_i - 1 inner
    breakpoints while the end point 1 is shared, so there are at most
    nnz(a) - m + 1 terms. The result recombines to `a` exactly. Raises
    NotStochasticError otherwise.
    """
    if not is_stochastic(a):
        raise NotStochasticError("decomposition input must be row-stochastic")
    return ConvexCombination((c, _vertex(cols, a.ncols)) for c, cols in _greedy_terms(a))


def _check_centro_stochastic(a: Matrix) -> None:
    if not is_stochastic(a):
        raise NotStochasticError("input must be row-stochastic")
    if not is_centrosymmetric(a):
        raise NotCentrosymmetricError("input must be centrosymmetric")


def split_noncentrosymmetric(
    r: RectPermMatrix,
) -> tuple[RectPermMatrix, RectPermMatrix]:
    """Split R + R^pi into two distinct centrosymmetric rectangular
    permutation matrices Q1 + Q2.

    Each row of R + R^pi holds two unit entries (possibly stacked); row i of
    Q1 takes the leftmost, row i of Q2 the other, for i in the top half, and
    the bottom halves mirror. Requires an even number of rows and a
    non-centrosymmetric R; raises SplitError otherwise.
    """
    if r.nrows % 2 != 0:
        raise SplitError("splitting needs an even number of rows")
    if r.is_centrosymmetric():
        raise SplitError("input is already centrosymmetric")
    cols, n = r.row_to_col, r.ncols
    # each top row's two unit entries, the leftmost first
    tops = [sorted(pair) for pair in zip(cols[: r.nrows // 2], _rotated(cols, n))]
    first, second = (RectPermMatrix(_mirrored(top, n), n) for top in zip(*tops))
    return first, second


def decompose_centrosymmetric(a: Matrix) -> ConvexCombination:
    """Write a centrosymmetric stochastic matrix as a convex combination of
    extreme points of the centrosymmetric polytope.

    Runs the greedy sweep and pairs each term R with its rotation. Outside
    the centre row, (R + R^pi) / 2 is extreme exactly when R's column tuple
    without its centre entry is centrosymmetric; pairs that are not get
    split. For an odd number of rows the centre entry is deleted before
    splitting, and both halves get the averaged centre row, the admissible
    row for R's centre column. Every output term passes is_extreme_centro.
    """
    _check_centro_stochastic(a)
    m, n = a.shape
    half = m // 2
    terms: list[tuple[Fraction, _Vertex]] = []
    for coeff, cols in _greedy_terms(a):
        center = cols[half] if m % 2 else None
        trimmed = cols[:half] + cols[m - half :]
        pair = (
            [trimmed]
            if trimmed == _rotated(trimmed, n)
            else [q.row_to_col for q in split_noncentrosymmetric(RectPermMatrix(trimmed, n))]
        )
        terms.extend((coeff / len(pair), _vertex(q, n, center)) for q in pair)
    return ConvexCombination(terms)
