"""Reference route for `rank_of_family`, kept as a differential oracle.

This is plain Gaussian elimination on Fractions. The library scales each
matrix to ints and eliminates without division; tests require the two to
agree.
"""

from __future__ import annotations

from fractions import Fraction


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank of a list of coordinate vectors by exact Gaussian elimination.

    Mutates its argument; callers pass throwaway copies.
    """
    if not rows:
        return 0
    nrows = len(rows)
    ncols = len(rows[0])
    pivots = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(pivots, nrows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pivots], rows[pivot_row] = rows[pivot_row], rows[pivots]
        pivot = rows[pivots][col]
        for r in range(pivots + 1, nrows):
            factor = rows[r][col]
            if factor:
                ratio = factor / pivot
                target = rows[r]
                source = rows[pivots]
                for c in range(col, ncols):
                    target[c] -= source[c] * ratio
        pivots += 1
        if pivots == nrows:
            break
    return pivots


def reference_rank(family) -> int:
    """Rank of a family of matrices, each flattened row-major."""
    return _rank([[x for row in a.entries for x in row] for a in family])
