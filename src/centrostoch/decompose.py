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

The sweep runs on ints and is the one reader of its input: each row is
read once, through `core._int_rows`, as ints over its own d, and checked
by `core._is_stochastic_row` before any term is built. Its cumulative sums
are ints over d, and each inner sum is one event that switches one row to
its next column. Events are sorted by the float of s / d, which is
correctly rounded and so in the exact order up to ties. Below d = 2^26 a
tie is an equal value; from there, when two floats are equal, which may
hide distinct exact values, the list is sorted again by cross-multiplying.
Each distinct breakpoint gives its term's coefficient, reduced by one gcd
to an int pair (`core._Ratio`); no Fraction is built.

The centrosymmetric route checks centrosymmetry first, then sweeps only
the top ceil(m/2) rows: row m+1-i is row i reversed, so it has the same
breakpoints and passes the same check, and each event switches a row and
its mirror together. The sweep counts the top rows whose columns are not
mirror images, so each term is known to pair with its half-turn rotation
into an extreme point, or to need splitting on its top half. The terms
reach `ConvexCombination` as vertices, never as dense matrices.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from operator import itemgetter

from centrostoch.core import (
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    SplitError,
    _int_rows,
    _is_stochastic_row,
    _new_ratio,
    _new_rect_perm,
    _new_vertex,
    _Ratio,
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


def _greedy_terms(a: Matrix, mirrored: bool = False) -> list[tuple]:
    # row i is read once, as its `_int_rows` (d, nums), and raises unless it
    # is a stochastic row (mirrored, the caller has checked that `a` is
    # centrosymmetric, so the top rows stand for all). Its positive nums are
    # ranked, and each inner cumulative sum s is one event (s / d, s, d, i,
    # c, k, c2, flip): row i switches to column c and row k to c2. Plain, k
    # is i. Mirrored, k is row i's mirror, ranked by (value, n + 1 - column);
    # `skew`, moved by flip, counts the top rows whose columns are not mirror
    # images, and a skewed term comes with half its weight, as it is split.
    m, n = a.shape
    events, cols, skew, dmax = [], [0] * m, 0, 1
    for i, (d, nums) in zip(range((m + 1) // 2 if mirrored else m), _int_rows(a)):
        if not _is_stochastic_row(d, nums):
            raise NotStochasticError("decomposition input must be row-stochastic")
        dmax = max(dmax, d)
        ranked = sorted([(v, j) for j, v in enumerate(nums, 1) if v])
        k = m - 1 - i if mirrored else i
        flipped = sorted([(v, n + 1 - j) for v, j in ranked]) if k != i else ranked
        cols[i], cols[k] = ranked[0][1], flipped[0][1]
        was = k != i and cols[i] + cols[k] != n + 1
        skew += was
        s = 0
        for (v, _), (_, c), (_, c2) in zip(ranked, ranked[1:], flipped[1:]):
            s += v
            now = k != i and c + c2 != n + 1
            events.append((s / d, s, d, i, c, k, c2, now - was))
            was = now
    # int / int is correctly rounded, so the floats order the events exactly
    # but among equal floats, which may hold distinct exact values; a stable
    # exact sort then fixes them, near linear on the nearly sorted list. It
    # is needed only from d = 2^26: below, two distinct breakpoints differ by
    # at least 1 / (d1 d2) > 2^-52, and values in (0, 1] that round to one
    # float differ by at most 2^-52, so equal floats are equal values. Each
    # distinct breakpoint ends one cell: its term takes the columns in force
    # before it, then the rows that end there switch.
    events.sort(key=itemgetter(0))
    if dmax >= 1 << 26 and len(set(map(itemgetter(0), events))) < len(events):
        events.sort(key=_EXACT)
    events.append((1.0, 1, 1, 0, 0, 0, 0, 0))  # the end point 1; its switch is never read
    terms = []
    ps, pd = 0, 1  # the previous breakpoint, ps / pd
    for _, s, d, i, c, k, c2, flip in events:
        if s * pd != ps * d:
            num, den = s * pd - ps * d, d * pd << (skew > 0)
            g = gcd(num, den)
            coeff = _new_ratio((num // g, den // g))
            terms.append((coeff, tuple(cols), skew) if mirrored else (coeff, tuple(cols)))
            ps, pd = s, d
        cols[i], cols[k] = c, c2
        skew += flip
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
    nnz(a) - m + 1 terms. The result recombines to `a` exactly. The sweep
    checks each row as it reads it: NotStochasticError otherwise.
    """
    n = a.ncols
    return ConvexCombination((c, _new_vertex((cols, n, None))) for c, cols in _greedy_terms(a))


def split_noncentrosymmetric(
    r: RectPermMatrix,
) -> tuple[RectPermMatrix, RectPermMatrix]:
    """Split R + R^pi into two distinct centrosymmetric rectangular
    permutation matrices Q1 + Q2.

    Top row i of R + R^pi holds two unit entries (possibly stacked): R's
    column there and the mirror of R's column in row m + 1 - i. Q1's top
    half takes the smaller of each pair and Q2's the larger, and each Q's
    bottom half is the rotation of its top half, so only the top half is
    compared. Requires an even number of rows and a non-centrosymmetric R;
    raises SplitError otherwise.
    """
    cols, n, n1, q1, q2 = r.cols, r.ncols, r.ncols + 1, [], []
    if len(cols) % 2 != 0:
        raise SplitError("splitting needs an even number of rows")
    for a, c in zip(cols, cols[: len(cols) // 2 - 1 : -1]):  # top row i, and row m + 1 - i
        b = n1 - c
        q1.append(a if a < b else b)
        q2.append(b if a < b else a)
    if q1 == q2:
        raise SplitError("input is already centrosymmetric")
    return (_new_rect_perm((tuple(q1 + [n1 - c for c in reversed(q1)]), n, None)),
            _new_rect_perm((tuple(q2 + [n1 - c for c in reversed(q2)]), n, None)))


def decompose_centrosymmetric(a: Matrix) -> ConvexCombination:
    """Write a centrosymmetric stochastic matrix as a convex combination of
    extreme points of the centrosymmetric polytope.

    Sweeps the top ceil(m/2) rows, each bottom row following its mirror,
    and pairs each term R with its rotation. Outside the centre row,
    (R + R^pi) / 2 is extreme exactly when each top row's column mirrors
    its bottom row's, as the sweep tracks; pairs that are not get split,
    into halves of half the weight. For an odd number of rows the centre
    entry is deleted before splitting, and both halves get the averaged
    centre row, the admissible row for R's centre column. Every output term
    passes is_extreme_centro. Centrosymmetry is checked first, so the
    sweep's check of the top rows covers their reversals below; a matrix
    that is not centrosymmetric raises NotStochasticError if it is not
    stochastic either, else NotCentrosymmetricError.
    """
    if not is_centrosymmetric(a):
        if not is_stochastic(a):
            raise NotStochasticError("decomposition input must be row-stochastic")
        raise NotCentrosymmetricError("input must be centrosymmetric")
    m, n = a.shape
    half = m // 2
    terms: list[tuple[_Ratio, _Vertex]] = []
    for coeff, cols, skew in _greedy_terms(a, mirrored=True):
        # columns the sweep read off a checked matrix, so trusted below; the
        # key made once: the middle column stays in the tuple, a centre goes
        centre = mid = None
        if m % 2 and 2 * cols[half] == n + 1:
            mid = cols[half]
        elif m % 2:
            centre, cols = min(cols[half], n + 1 - cols[half]), cols[:half] + cols[half + 1 :]
        if not skew:
            terms.append((coeff, _new_vertex((cols, n, centre))))
            continue
        rect = cols if mid is None else cols[:half] + cols[half + 1 :]
        for q in split_noncentrosymmetric(_new_rect_perm((rect, n, None))):
            q = q.cols if mid is None else q.cols[:half] + (mid,) + q.cols[half:]
            terms.append((coeff, _new_vertex((q, n, centre))))
    return ConvexCombination(terms)
