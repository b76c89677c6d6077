"""Explicit bases for the linear spans of the matrix polytopes.

Four families are built from two bricks: near-permutation blocks obtained by
sweeping a diagonal renumbering of the (n-1) x (n-1) grid, and all-ones
column matrices. The square family spans n x n stochastic matrices, the
rectangular family m x n; stacking a rectangular basis against its half-turn
rotation (with an optional fixed center row) spans the centrosymmetric
polytope for even and odd row counts. `verify_basis` checks the claimed
dimension count together with exact linear independence. `_family_size`
states each family's shape rules and its size in closed form, so a caller
can bound a family before any member is built.
"""

from __future__ import annotations

from centrostoch.core import Matrix, ShapeError, _as_int, _rotated, _unit_matrix, rank_of_family

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
    i, j, side = _as_int(i), _as_int(j), _as_int(side)
    if side < 1:
        raise ShapeError("grid side must be positive")
    if not (1 <= i <= side and 1 <= j <= side):
        raise ShapeError(f"cell ({i}, {j}) outside the {side} x {side} grid")
    value = (i + (j - i) * side) % (side * side)
    return value if value else side * side


def _family_size(family: str, m: int | None, n: int) -> int:
    """The member count of a family ("square", "rect", "centro-even" or
    "centro-odd") at m x n, m unused by "square": n^2 - n + 1, m(n-1) + 1,
    (m/2)(n-1) + 1 and ((m-1)/2)(n-1) + (n+1)//2. Builds no member; raises
    the family's ShapeError for a shape it does not take, m's rule first."""
    if family == "square":
        name, m_rule, size = "square", None, n * n - n + 1
    elif family == "rect":
        name, size = "rectangular", m * (n - 1) + 1
        m_rule = None if m >= 1 else "m >= 1"
    elif family == "centro-even":
        name, size = "even centrosymmetric", (m // 2) * (n - 1) + 1
        m_rule = None if m >= 2 and m % 2 == 0 else "even m >= 2"
    else:
        name, size = "odd centrosymmetric", (m // 2) * (n - 1) + (n + 1) // 2
        m_rule = None if m >= 3 and m % 2 == 1 else "odd m >= 3"
    if m_rule is not None:
        raise ShapeError(f"the {name} family needs {m_rule}")
    if n < 2:
        raise ShapeError(f"the {name} family needs n >= 2")
    return size


def _near_permutation(start: int, side: int) -> list[tuple[int, int]]:
    # the side-1 consecutively numbered cells start, start+1, ... (wrapping
    # past side^2 back to 1); one row and one column stay empty. Inverting
    # renumber_position, the number v with v - 1 = q * side + r is the cell
    # (r + 1, (r + q) mod side + 1)
    places = (divmod((start + k - 1) % (side * side), side) for k in range(side - 1))
    return [(r + 1, (r + q) % side + 1) for q, r in places]


def _complete_to_permutation(block: list[tuple[int, int]], side: int) -> tuple[int, ...]:
    # embed the near-permutation in the lower right of a (side+1) x (side+1)
    # square; the new first row takes the block's free column and the
    # block's empty row takes the new first column, giving the column tuple
    # of a full permutation matrix
    cols = [1] * side
    for i, j in block:
        cols[i - 1] = j + 1
    free_cols = set(range(2, side + 2)).difference(cols)
    if cols.count(1) != 1 or len(free_cols) != 1:
        raise ShapeError("block must leave exactly one row and one column empty")
    return (*free_cols, *cols)


def basis_square(n: int) -> list[Matrix]:
    """Basis of the span of the n x n stochastic matrices.

    (n-1)^2 permutation matrices completed from the renumbered diagonal
    blocks, followed by the n all-ones column matrices: n^2 - n + 1 matrices
    in all. Requires n >= 2.
    """
    n = _as_int(n)
    _family_size("square", None, n)
    side = n - 1
    family = [
        _unit_matrix(_complete_to_permutation(_near_permutation(start, side), side), n)
        for start in range(1, side * side + 1)
    ]
    family.extend(_unit_matrix((j,) * n, n) for j in range(1, n + 1))
    return family


def _rect_columns(m: int, n: int):
    # column tuples of the rectangular family: each B_{i,j} (j outermost),
    # then the all-ones column C_n
    for j in range(1, n):
        for i in range(m):
            yield (j + 1,) * i + (j,) + (j + 1,) * (m - 1 - i)
    yield (n,) * m


def basis_rect(m: int, n: int) -> list[Matrix]:
    """Basis of the span of the m x n stochastic matrices.

    The m(n-1) pivot matrices B_{i,j} (a lone 1 at (i, j), all other rows 1
    in column j+1) ordered with j outermost, then the all-ones column matrix
    C_n: m(n-1) + 1 matrices. Requires m >= 1 and n >= 2.
    """
    m, n = _as_int(m), _as_int(n)
    _family_size("rect", m, n)
    return [_unit_matrix(cols, n) for cols in _rect_columns(m, n)]


def basis_centro_even(m: int, n: int) -> list[Matrix]:
    """Basis for the centrosymmetric polytope's span, even row count.

    Each element stacks a rectangular basis matrix for the top m/2 rows on
    its half-turn rotation. Requires even m >= 2 and n >= 2.
    """
    m, n = _as_int(m), _as_int(n)
    _family_size("centro-even", m, n)
    return [_unit_matrix(top + _rotated(top, n), n) for top in _rect_columns(m // 2, n)]


def basis_centro_odd(m: int, n: int) -> list[Matrix]:
    """Basis for the centrosymmetric polytope's span, odd row count.

    Each rectangular basis matrix for the top (m-1)/2 rows is stacked on a
    fixed admissible center row and its own rotation; then one extra element
    per non-central mirror pair of columns, built from all-ones columns with
    the matching half-half center row. Requires odd m >= 3 and n >= 2.
    """
    m, n = _as_int(m), _as_int(n)
    _family_size("centro-odd", m, n)
    half = (m - 1) // 2
    fixed_center = (n + 1) // 2
    family = [
        _unit_matrix(top + _rotated(top, n), n, fixed_center)
        for top in _rect_columns(half, n)
    ]
    family.extend(
        _unit_matrix((n + 1 - i,) * half + (i,) * half, n, i)
        for i in range(1, (n + 1) // 2)
    )
    return family


def verify_basis(family, expected_dim: int) -> bool:
    """Check a claimed basis: expected_dim + 1 matrices, full exact rank."""
    expected_dim = _as_int(expected_dim)
    mats = list(family)
    count = len(mats)
    return count == expected_dim + 1 and rank_of_family(mats) == count
