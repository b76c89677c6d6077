"""Faces of the polytopes cut out by (0,1) support patterns.

A pattern B selects the face of matrices supported inside B. Its vertices
pick one column from each free row's support (and, for odd row count, one
admissible centre column), so a count is the product of the choice sizes
and the enumerator is the global one restricted to B; both read the per-row
choices from `extremes`. A count walks them once and multiplies each
distinct size raised to its multiplicity, not one row at a time. A pattern
shares the rows of the `Matrix` it wraps and checks them for 0/1 once: its
`is_zero_one()` reads nothing. The usable centrosymmetric support B meet
B-rotated is read off B's rows.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Iterator

from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    Matrix,
    PatternError,
    RectPermMatrix,
    _trusted,
    is_centrosymmetric,
)
from centrostoch.extremes import (
    _column_choices,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
)

__all__ = [
    "FacePattern",
    "has_row_support_stochastic",
    "has_row_support_centro",
    "count_face_vertices_stochastic",
    "count_face_vertices_centro",
    "enumerate_face_vertices",
]


class FacePattern(Matrix):
    """A (0,1) Matrix used as a support pattern.

    A pattern is a Matrix in every respect, so it equals and hashes like the
    plain Matrix with the same entries. Construction refuses any entry other
    than 0 and 1 with PatternError, and rotation and meet return patterns
    again.
    """

    __slots__ = ()

    def __init__(self, rows) -> None:
        # a Matrix is immutable and already checked, so its slots are shared
        source = rows if isinstance(rows, Matrix) else Matrix(rows)
        if not source.is_zero_one():
            raise PatternError("a face pattern must have entries 0 and 1 only")
        for name in Matrix.__slots__:
            object.__setattr__(self, name, getattr(source, name))

    def is_zero_one(self) -> bool:
        return True  # construction refused every other entry, so none is read

    @property
    def matrix(self) -> Matrix:
        """The pattern as a plain Matrix."""
        return _trusted(self.entries, self.ncols)

    def rotate_pi(self) -> "FacePattern":
        return FacePattern(super().rotate_pi())

    def is_centrosymmetric(self) -> bool:
        return is_centrosymmetric(self)

    def meet(self, other) -> "FacePattern":
        """Entrywise minimum with another pattern (a FacePattern, a Matrix
        or rows); raises PatternError when `other` is not (0,1)."""
        return FacePattern(self.entrywise_min(FacePattern(other)))


def has_row_support_stochastic(pattern) -> bool:
    """True iff every row of the pattern contains a 1."""
    return all(1 in row for row in FacePattern(pattern).entries)


def has_row_support_centro(pattern) -> bool:
    """True iff every row of B meet B-rotated contains a 1.

    That is the support condition a centrosymmetric stochastic matrix can
    actually use, since its support is closed under the half turn.
    """
    rows = FacePattern(pattern).entries
    # row i of B meet B-rotated: the entrywise min of row i and row m+1-i reversed
    return all(1 in map(min, row, reversed(mirror)) for row, mirror in zip(rows, reversed(rows)))


def _count(pattern, centro: bool) -> int:
    """The face's vertex count, the product of its per-row choice sizes;
    raises the counters' errors.

    Equal sizes are grouped into powers, so the product takes one
    multiplication per distinct size instead of one per row.
    """
    b = FacePattern(pattern)
    sizes = Counter(len(choice) for choice in _column_choices(*b.shape, b, centro=centro))
    return prod(size**k for size, k in sizes.items())


def count_face_vertices_stochastic(pattern) -> int:
    """Number of extreme points supported inside the pattern: the product
    of its row sums, worked out as powers of the distinct sums. Raises
    NoRowSupportError when some row is all zero."""
    return _count(pattern, centro=False)


def count_face_vertices_centro(pattern) -> int:
    """Number of centrosymmetric extreme points supported inside the
    pattern.

    The pattern must itself be centrosymmetric (normalize with B meet
    B-rotated first otherwise). The count is the product of the top-half
    row sums, times ceil(c / 2) for the center row sum c when the row count
    is odd, worked out as powers of the distinct factors. Raises
    NotCentrosymmetricError / NoRowSupportError.
    """
    return _count(pattern, centro=True)


def enumerate_face_vertices(
    pattern, centro: bool = False, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Matrix]:
    """Lazily yield the extreme points supported inside the pattern.

    They come in the order of the global enumeration for the pattern's
    shape. Raises the counters' errors up front, and EnumerationCapError
    when the face's own vertex count exceeds `cap`.
    """
    b = FacePattern(pattern)
    if centro:
        return enumerate_extreme_centro(*b.shape, cap=cap, pattern=b)
    plain = enumerate_extreme_stochastic(*b.shape, cap=cap, pattern=b)
    # read off the class when the listing starts, so a wrapper set on the
    # class sees every point
    return map(RectPermMatrix.to_matrix, plain)
