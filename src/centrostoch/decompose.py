"""Greedy decomposition of stochastic matrices into extreme points.

The common engine is a sweep over sorted breakpoints. Each row's positive
entries, taken in ascending (value, column) order, cut [0, 1] into
consecutive intervals; every cell of the common refinement of the m rows'
partitions is one term, whose rectangular permutation matrix picks in each
row the entry whose interval covers the cell. This is the north-west-corner
rule on sorted rows, and it yields exactly the terms of the classic greedy
peel (mark each row's smallest positive entry, leftmost on ties, peel, and
renormalise), because a marked entry stays the smallest of its row until it
is used up. Everything else in the module is bookkeeping on the column
tuples: pairing terms with their half-turn rotations for the
centrosymmetric polytope, and splitting the pairs that are not yet extreme.
"""

from __future__ import annotations

from fractions import Fraction

from centrostoch.core import (
    _HALF,
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    SplitError,
    _mirrored,
    _unit_matrix,
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


def _greedy_terms(a: Matrix) -> list[tuple[Fraction, RectPermMatrix]]:
    # callers have checked that `a` is stochastic
    rows = [sorted((x, j) for j, x in enumerate(row, 1) if x > 0) for row in a.entries]
    at = [0] * len(rows)
    # what each row has left of its current entry
    left = [row[0][0] for row in rows]
    terms: list[tuple[Fraction, RectPermMatrix]] = []
    while True:
        coeff = min(left)
        cols = [row[k][1] for row, k in zip(rows, at)]
        terms.append((coeff, RectPermMatrix(cols, a.ncols)))
        # rows all sum to 1, so they reach their last entries together
        if all(k == len(row) - 1 for row, k in zip(rows, at)):
            return terms
        for i, row in enumerate(rows):
            left[i] -= coeff
            if left[i] == 0:
                at[i] += 1
                left[i] = row[at[i]][0]


def decompose_stochastic(a: Matrix) -> ConvexCombination:
    """Write a stochastic matrix as a convex combination of rectangular
    permutation matrices.

    Each row's positive entries, sorted by (value, column), partition
    [0, 1]; the terms are the cells of the rows' common refinement, in
    order, each weighted by its length. A cell ends at a breakpoint of some
    row, and row i contributes nnz_i - 1 inner breakpoints while the end
    point 1 is shared, so there are at most nnz(a) - m + 1 terms. The
    result recombines to `a` exactly. Raises NotStochasticError otherwise.
    """
    if not is_stochastic(a):
        raise NotStochasticError("decomposition input must be row-stochastic")
    return ConvexCombination((c, r.to_matrix()) for c, r in _greedy_terms(a))


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
    n = r.ncols
    half = r.nrows // 2
    rotated = r.rotate_pi()
    first = []
    second = []
    for i in range(half):
        c1 = r.row_to_col[i]
        c2 = rotated.row_to_col[i]
        first.append(min(c1, c2))
        second.append(max(c1, c2))
    return RectPermMatrix(_mirrored(first, n), n), RectPermMatrix(_mirrored(second, n), n)


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
    terms: list[tuple[Fraction, Matrix]] = []
    for coeff, r in _greedy_terms(a):
        cols = r.row_to_col
        center = cols[half] if m % 2 else None
        trimmed = cols[:half] + cols[m - half :]
        if all(c + d == n + 1 for c, d in zip(trimmed, reversed(trimmed))):
            terms.append((coeff, _unit_matrix(trimmed, n, center)))
            continue
        for q in split_noncentrosymmetric(RectPermMatrix(trimmed, n)):
            terms.append((coeff * _HALF, _unit_matrix(q.row_to_col, n, center)))
    return ConvexCombination(terms)
