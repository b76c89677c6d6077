"""Reference route for the structural extremality predicates, kept as a
differential oracle.

These are the row-by-row predicates the library used before it read
extremality off `core._vertex_of`: every row a unit row, with the centre
row of an odd-row centrosymmetric matrix checked apart against the
admissible centre row. Tests require the library's predicates to agree
with them on every small matrix and on seeded random ones.
"""

from __future__ import annotations

from centrostoch.core import (
    Matrix,
    _center_row,
    _unit_column,
    is_centrosymmetric,
    is_stochastic,
)


def _one_per_row(a: Matrix, skip_row: int = 0) -> bool:
    # every row a unit row; skip_row (1-based) is exempted
    return all(_unit_column(row) for i, row in enumerate(a.entries, 1) if i != skip_row)


def is_extreme_stochastic(a: Matrix) -> bool:
    """True iff `a` is a rectangular permutation matrix.

    Those are exactly the extreme points of the polytope of row-stochastic
    matrices of the given shape.
    """
    return _one_per_row(a)


def is_extreme_centro(a: Matrix) -> bool:
    """Structural test for extremality in the centrosymmetric polytope.

    For even row count the extreme points are the centrosymmetric
    rectangular permutation matrices. For odd row count every row except the
    center one carries a single 1, and the center row is either a 1 on the
    middle column (odd column count) or a mirrored pair of 1/2 entries.
    Returns False for anything outside the polytope.
    """
    if not is_stochastic(a) or not is_centrosymmetric(a):
        return False
    m, n = a.shape
    if m % 2 == 0:
        return _one_per_row(a)
    center = m // 2 + 1
    if not _one_per_row(a, skip_row=center):
        return False
    row = a.row(center)
    first = next(j for j, x in enumerate(row, 1) if x != 0)
    return row == _center_row(n, first)
