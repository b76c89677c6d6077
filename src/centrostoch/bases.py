"""Explicit bases for the linear spans of the matrix polytopes.

Four families are built from two bricks: near-permutation blocks obtained by
sweeping a diagonal renumbering of the (n-1) x (n-1) grid, and all-ones
column matrices. The square family spans n x n stochastic matrices, the
rectangular family m x n; stacking a rectangular basis against its half-turn
rotation (with an optional fixed center row) spans the centrosymmetric
polytope for even and odd row counts. `verify_basis` checks the claimed
dimension count together with exact linear independence.
"""

from __future__ import annotations

from centrostoch.core import Matrix, ShapeError, _center_row, rank_of_family, rotate_pi

__all__ = [
    "renumber_position",
    "basis_square",
    "basis_rect",
    "basis_centro_even",
    "basis_centro_odd",
    "verify_basis",
]


def renumber_position(i: int, j: int, side: int) -> int:
    """Diagonal renumbering of the cells of a side x side grid.

    Cell (i, j), 1-based, gets number ((i + (j - i) * side) mod side^2),
    with 0 promoted to side^2. Walking the numbers 1, 2, ... visits the grid
    one wrapped diagonal after another, so any side - 1 consecutive numbers
    land in pairwise distinct rows and columns.
    """
    if side < 1:
        raise ShapeError("grid side must be positive")
    if not (1 <= i <= side and 1 <= j <= side):
        raise ShapeError(f"cell ({i}, {j}) outside the {side} x {side} grid")
    value = (i + (j - i) * side) % (side * side)
    return value if value else side * side


def _cells_by_number(side: int) -> dict[int, tuple[int, int]]:
    return {
        renumber_position(i, j, side): (i, j)
        for i in range(1, side + 1)
        for j in range(1, side + 1)
    }


def _near_permutation(start: int, side: int) -> Matrix:
    # ones on the side-1 consecutively numbered cells start, start+1, ...
    # (wrapping past side^2 back to 1); one row and one column stay empty
    cells = _cells_by_number(side)
    rows = [[0] * side for _ in range(side)]
    for offset in range(side - 1):
        number = (start + offset - 1) % (side * side) + 1
        i, j = cells[number]
        rows[i - 1][j - 1] = 1
    return Matrix(rows)


def _complete_to_permutation(block: Matrix) -> Matrix:
    # embed the near-permutation in the lower right of an (l+1) x (l+1)
    # square and fill the free row and column through position (1, c+1)
    # and (r+1, 1), giving a full permutation matrix
    side = block.nrows
    empty_rows = [i for i in range(1, side + 1) if all(x == 0 for x in block.row(i))]
    col_sums = [
        sum(block.at(i, j) for i in range(1, side + 1)) for j in range(1, side + 1)
    ]
    empty_cols = [j for j, s in enumerate(col_sums, 1) if s == 0]
    if len(empty_rows) != 1 or len(empty_cols) != 1:
        raise ShapeError("block must leave exactly one row and one column empty")
    r = empty_rows[0]
    c = empty_cols[0]
    size = side + 1
    rows = [[0] * size for _ in range(size)]
    rows[0][c] = 1
    rows[r][0] = 1
    for i in range(1, side + 1):
        for j in range(1, side + 1):
            rows[i][j] = block.at(i, j)
    return Matrix(rows)


def _ones_column(nrows: int, ncols: int, col: int) -> Matrix:
    return Matrix(
        [[1 if j == col else 0 for j in range(1, ncols + 1)] for _ in range(nrows)]
    )


def basis_square(n: int) -> list[Matrix]:
    """Basis of the span of the n x n stochastic matrices.

    (n-1)^2 permutation matrices completed from the renumbered diagonal
    blocks, followed by the n all-ones column matrices: n^2 - n + 1 matrices
    in all. Requires n >= 2.
    """
    if n < 2:
        raise ShapeError("the square family needs n >= 2")
    side = n - 1
    family = [
        _complete_to_permutation(_near_permutation(start, side))
        for start in range(1, side * side + 1)
    ]
    family.extend(_ones_column(n, n, j) for j in range(1, n + 1))
    return family


def _pivot_column_matrix(m: int, n: int, i: int, j: int) -> Matrix:
    # single 1 at (i, j); every other row carries its 1 in column j + 1
    rows = []
    for r in range(1, m + 1):
        col = j if r == i else j + 1
        rows.append([1 if cc == col else 0 for cc in range(1, n + 1)])
    return Matrix(rows)


def basis_rect(m: int, n: int) -> list[Matrix]:
    """Basis of the span of the m x n stochastic matrices.

    The m(n-1) pivot matrices B_{i,j} (a lone 1 at (i, j), all other rows 1
    in column j+1) ordered with j outermost, then the all-ones column matrix
    C_n: m(n-1) + 1 matrices. Requires m >= 1 and n >= 2.
    """
    if m < 1:
        raise ShapeError("the rectangular family needs m >= 1")
    if n < 2:
        raise ShapeError("the rectangular family needs n >= 2")
    family = [
        _pivot_column_matrix(m, n, i, j)
        for j in range(1, n)
        for i in range(1, m + 1)
    ]
    family.append(_ones_column(m, n, n))
    return family


def basis_centro_even(m: int, n: int) -> list[Matrix]:
    """Basis for the centrosymmetric polytope's span, even row count.

    Each element stacks a rectangular basis matrix for the top m/2 rows on
    its half-turn rotation. Requires even m >= 2 and n >= 2.
    """
    if m < 2 or m % 2 != 0:
        raise ShapeError("the even centrosymmetric family needs even m >= 2")
    return [
        Matrix(top.entries + rotate_pi(top).entries) for top in basis_rect(m // 2, n)
    ]


def basis_centro_odd(m: int, n: int) -> list[Matrix]:
    """Basis for the centrosymmetric polytope's span, odd row count.

    Each rectangular basis matrix for the top (m-1)/2 rows is stacked on a
    fixed admissible center row and its own rotation; then one extra element
    per non-central mirror pair of columns, built from all-ones columns with
    the matching half-half center row. Requires odd m >= 3 and n >= 2.
    """
    if m < 3 or m % 2 == 0:
        raise ShapeError("the odd centrosymmetric family needs odd m >= 3")
    if n < 2:
        raise ShapeError("the odd centrosymmetric family needs n >= 2")
    half = (m - 1) // 2
    fixed_center = _center_row(n, (n + 1) // 2)
    family = [
        Matrix(top.entries + (fixed_center,) + rotate_pi(top).entries)
        for top in basis_rect(half, n)
    ]
    for i in range(1, (n + 1) // 2):
        top = _ones_column(half, n, n + 1 - i)
        family.append(
            Matrix(top.entries + (_center_row(n, i),) + rotate_pi(top).entries)
        )
    return family


def verify_basis(family, expected_dim: int) -> bool:
    """Check a claimed basis: expected_dim + 1 matrices, full exact rank."""
    mats = list(family)
    count = len(mats)
    return count == expected_dim + 1 and rank_of_family(mats) == count
