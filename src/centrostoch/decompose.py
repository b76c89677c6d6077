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
is used up.

The sweep runs on ints. Each row is read through `core._row_ints`, as
ints over its own d, so its cumulative sums are ints over d, and each inner
sum is one event that switches one row to its next column. Events are
sorted by the float of s / d, which is correctly rounded and so in the
exact order up to ties; a run of equal floats, which may hold distinct
exact values, is sorted again by cross-multiplying. Each distinct
breakpoint builds one Fraction, its term's coefficient, and no event builds
one.

Everything else in the module is bookkeeping on the column tuples: pairing
terms with their half-turn rotations for the centrosymmetric polytope, and
splitting the pairs that are not yet extreme. The terms reach
`ConvexCombination` as vertices, never as dense matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from operator import itemgetter

from centrostoch.core import (
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    SplitError,
    _rotated,
    _row_ints,
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

# orders two events (float, s, d, ...) by their exact value s / d
_EXACT = cmp_to_key(lambda x, y: x[1] * y[2] - y[1] * x[2])


def _greedy_terms(a: Matrix) -> list[tuple[Fraction, tuple[int, ...]]]:
    # callers have checked that `a` is stochastic. Row i works on its
    # `_row_ints` (d, nums): its positive nums are ranked, and each inner
    # cumulative sum s is one event (s / d, s, d, i, column it switches to)
    events = []
    cols = []
    for i, row in enumerate(a.entries):
        d, nums = _row_ints(row)
        ranked = sorted([(v, j) for j, v in enumerate(nums, 1) if v])
        cols.append(ranked[0][1])
        s = 0
        for (v, _), (_, c) in zip(ranked, ranked[1:]):
            s += v
            events.append((s / d, s, d, i, c))
    # int / int is correctly rounded, so sorting by the floats alone puts
    # the events in exact order up to runs of equal floats; such a run may
    # hold distinct exact values, so it is sorted again, exactly. Each
    # distinct breakpoint ends one cell: its term takes the columns in
    # force before it, then the rows that end there switch.
    events.sort(key=itemgetter(0))
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    ps, pd = 0, 1  # the previous breakpoint, ps / pd
    for _, run in groupby(events, itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=_EXACT)
        for _, s, d, i, c in run:
            if s * pd != ps * d:
                terms.append((Fraction(s * pd - ps * d, d * pd), tuple(cols)))
                ps, pd = s, d
            cols[i] = c
    terms.append((Fraction(pd - ps, pd), tuple(cols)))
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

    Row i of R + R^pi holds two unit entries (possibly stacked), in columns
    cols[i] and rot[i] of R's column tuple and its rotation's. Q1 takes
    their min in the top half and their max in the bottom half, Q2 the
    other entry of every row, so both are centrosymmetric. Requires an even
    number of rows and a non-centrosymmetric R; raises SplitError otherwise.
    """
    if r.nrows % 2 != 0:
        raise SplitError("splitting needs an even number of rows")
    cols, n = r.row_to_col, r.ncols
    rot = _rotated(cols, n)
    if cols == rot:
        raise SplitError("input is already centrosymmetric")
    h = r.nrows // 2
    low, high = tuple(map(min, cols, rot)), tuple(map(max, cols, rot))
    q1, q2 = low[:h] + high[h:], high[:h] + low[h:]
    return RectPermMatrix._trusted(q1, n), RectPermMatrix._trusted(q2, n)


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
        # columns the sweep read off a checked matrix, so trusted below
        trimmed = cols[:half] + cols[m - half :]
        if trimmed == _rotated(trimmed, n):
            terms.append((coeff, _vertex(trimmed, n, center)))
        else:
            # the pair splits into two halves that share its weight
            share = coeff / 2
            halves = split_noncentrosymmetric(RectPermMatrix._trusted(trimmed, n))
            terms.extend((share, _vertex(q.row_to_col, n, center)) for q in halves)
    return ConvexCombination(terms)
