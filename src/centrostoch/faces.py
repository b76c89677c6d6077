"""Faces of the polytopes cut out by (0,1) support patterns.

A pattern B selects the face of matrices supported inside B. Vertex counts
come in closed form from the row sums; the enumerator deliberately takes the
slow road instead, filtering the global extreme-point enumeration through
the support condition, so counting and enumerating stay two independent
routes to the same answer. The filter tests each candidate's column tuple
(plain) or entries (centro) against B's entries.
"""

from __future__ import annotations

from math import prod
from typing import Iterator

from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    Matrix,
    NoRowSupportError,
    NotCentrosymmetricError,
    PatternError,
    is_centrosymmetric,
)
from centrostoch.extremes import (
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
        super().__init__(rows.entries if isinstance(rows, Matrix) else rows)
        if not self.is_zero_one():
            raise PatternError("a face pattern must have entries 0 and 1 only")

    @property
    def matrix(self) -> Matrix:
        """The pattern as a plain Matrix."""
        return Matrix(self.entries)

    def rotate_pi(self) -> "FacePattern":
        return FacePattern(super().rotate_pi())

    def is_centrosymmetric(self) -> bool:
        return is_centrosymmetric(self)

    def meet(self, other: "FacePattern") -> "FacePattern":
        """Entrywise minimum with another pattern."""
        return FacePattern(self.entrywise_min(other))


def _coerce(pattern) -> FacePattern:
    return pattern if isinstance(pattern, FacePattern) else FacePattern(pattern)


def has_row_support_stochastic(pattern) -> bool:
    """True iff every row of the pattern contains a 1."""
    return all(1 in row for row in _coerce(pattern).entries)


def has_row_support_centro(pattern) -> bool:
    """True iff every row of B meet B-rotated contains a 1.

    That is the support condition a centrosymmetric stochastic matrix can
    actually use, since its support is closed under the half turn.
    """
    b = _coerce(pattern)
    return all(1 in row for row in b.meet(b.rotate_pi()).entries)


def count_face_vertices_stochastic(pattern) -> int:
    """Number of extreme points supported inside the pattern: the product
    of its row sums. Raises NoRowSupportError when some row is all zero."""
    b = _coerce(pattern)
    if not has_row_support_stochastic(b):
        raise NoRowSupportError("pattern has an all-zero row")
    return prod(row.count(1) for row in b.entries)


def count_face_vertices_centro(pattern) -> int:
    """Number of centrosymmetric extreme points supported inside the
    pattern.

    The pattern must itself be centrosymmetric (normalize with B meet
    B-rotated first otherwise). The count is the product of the top-half
    row sums, times ceil(c / 2) for the center row sum c when the row count
    is odd. Raises NotCentrosymmetricError / NoRowSupportError.
    """
    b = _coerce(pattern)
    if not b.is_centrosymmetric():
        raise NotCentrosymmetricError(
            "count needs a centrosymmetric pattern; meet it with its rotation first"
        )
    if not has_row_support_centro(b):
        raise NoRowSupportError("pattern has an all-zero row")
    m = b.nrows
    half = m // 2
    top = prod(row.count(1) for row in b.entries[:half])
    if m % 2 == 0:
        return top
    center = b.entries[half].count(1)
    return top * ((center + 1) // 2)


def enumerate_face_vertices(
    pattern,
    centro: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
    check: bool = True,
) -> Iterator[Matrix]:
    """Lazily yield the extreme points supported inside the pattern.

    Runs the global extreme-point enumeration for the pattern's shape and
    keeps the candidates the pattern covers, testing each one's column tuple
    (plain) or entries (centro) against the pattern's entries; the
    closed-form counters take no part in it. With `check` (the default) the
    same preconditions as the counters are enforced up front; `check=False`
    allows unsupported patterns, for which the enumeration is simply empty.
    Raises EnumerationCapError when the global enumeration exceeds `cap`.
    """
    b = _coerce(pattern)
    m, n = b.shape
    allowed = b.entries
    if not centro:
        if check and not has_row_support_stochastic(b):
            raise NoRowSupportError("pattern has an all-zero row")
        return (
            r.to_matrix()
            for r in enumerate_extreme_stochastic(m, n, cap=cap)
            if all(row[c - 1] == 1 for row, c in zip(allowed, r.row_to_col))
        )
    if not b.is_centrosymmetric():
        raise NotCentrosymmetricError(
            "enumeration needs a centrosymmetric pattern"
        )
    if check and not has_row_support_centro(b):
        raise NoRowSupportError("pattern has an all-zero row")
    return (
        mat
        for mat in enumerate_extreme_centro(m, n, cap=cap)
        if all(
            p == 1 or x == 0
            for prow, row in zip(allowed, mat.entries)
            for p, x in zip(prow, row)
        )
    )
