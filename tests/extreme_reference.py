"""Reference route for the structural extremality predicates, kept as a
differential oracle.

These are the row-by-row predicates the library used before it read
extremality off `core._vertex_of`: every row a unit row, with the centre
row of an odd-row centrosymmetric matrix checked apart against the
admissible centre row. Tests require the library's predicates to agree
with them on every small matrix and on seeded random ones.

`reference_extremes` lists the extreme points by brute force over every
column tuple, in the order the library's enumerators promise.

`is_extreme_oracle` knows nothing about the shape of the extreme points: it
applies the general vertex criterion, testing by exact rank whether the
only support-preserving perturbation with zero row sums (and, on request,
half-turn symmetry) is zero. `verify_basis` checks a claimed basis by its
size and exact rank. Tests play both against the library's routes.
"""

from __future__ import annotations

from itertools import product

from centrostoch.core import (
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    _as_int,
    _center_row,
    _rank,
    _unit_row,
    _unit_column,
    is_centrosymmetric,
    is_stochastic,
    rank_of_family,
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


def reference_extremes(m: int, n: int, pattern=None, centro: bool = False):
    """The extreme points supported inside `pattern` (all when None) as
    Matrix values, lazily, in the enumerators' order, by brute force.

    Plain: every column tuple in lexicographic order. Centro: the top half's
    column tuples in lexicographic order, the bottom half its mirror, and
    for odd m every centre column j <= ceil(n / 2) cycling fastest. Each
    candidate is built row by row, kept when its support lies inside the
    pattern, and checked with the predicates above.
    """
    free = m // 2 if centro else m
    centres = range(1, (n + 1) // 2 + 1) if centro and m % 2 else [None]
    for top in product(range(1, n + 1), repeat=free):
        # a quick look at the top rows first; every row is checked below
        if pattern is not None and not all(pattern[i][c - 1] for i, c in enumerate(top)):
            continue
        cols = top + tuple(n + 1 - c for c in reversed(top)) if centro else top
        for centre in centres:
            rows = [_unit_row(n, c) for c in cols]
            if centre is not None:
                rows.insert(m // 2, _center_row(n, centre))
            if pattern is not None and any(
                x and not p for row, prow in zip(rows, pattern) for x, p in zip(row, prow)
            ):
                continue
            a = Matrix(rows)
            assert (is_extreme_centro if centro else is_extreme_stochastic)(a)
            yield a


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


def verify_basis(family, expected_dim: int) -> bool:
    """Check a claimed basis: expected_dim + 1 matrices, full exact rank."""
    expected_dim = _as_int(expected_dim)
    mats = list(family)
    count = len(mats)
    return count == expected_dim + 1 and rank_of_family(mats) == count
