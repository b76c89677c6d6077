"""Reference route for the greedy decompositions, kept as a differential oracle.

This is the original peel-and-renormalise loop: mark each row's smallest
positive entry (leftmost on ties), peel off the marked rectangular
permutation matrix with the largest exactly feasible coefficient,
renormalise, and repeat. The centrosymmetric route pairs each term densely
with its half-turn rotation, tests the pair with `is_extreme_centro`, and
splices the averaged centre row back into both halves of a split. The
library computes the same terms by a sorted-breakpoint sweep over column
tuples; tests require the two to agree term for term, in order.

`reference_split` splits R + R^pi on dense rows, as the paper states it:
each top row's two unit entries in column order (a stacked pair counts
twice), the leftmost to Q1 and the other to Q2, and the bottom halves
mirrored. Tests hold `split_noncentrosymmetric` to it.

`decompose_centro_halves` averages each library term with its rotation.
Its terms are centrosymmetric but not always extreme, so no library route
produces them; tests keep it as a check on the halves construction.

`REFUSALS` are inputs at the edges of the decompositions' checks, and
`refusal` names the error class a route raises on one; tests hold the
library's routes and the command line to the reference's classes.
"""

from __future__ import annotations

from fractions import Fraction

from centrostoch import (
    CentrostochError,
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    is_centrosymmetric,
    is_extreme_centro,
    is_stochastic,
    split_noncentrosymmetric,
)
from centrostoch.decompose import _greedy_terms

_HALF = Fraction(1, 2)

# rows of entries as strings; each is refused by one route at least
REFUSALS = [
    [["2", "-1"], ["-1", "2"]],  # negative entries, rows summing to 1, centrosymmetric
    [["1", "1"]],  # a row summing to 2
    [["1", "0"], ["1", "0"]],  # stochastic, not centrosymmetric
    [["1/3", "2/3"], ["1/3", "2/3"]],  # stochastic, not centrosymmetric
    [["1", "0"], ["2", "-1"]],  # only the bottom row bad, not centrosymmetric
    [["1", "0"], ["1", "1"], ["0", "1"]],  # centrosymmetric, centre row sums to 2
    [["1/2", "1/2"], ["0", "0"], ["1/2", "1/2"]],  # an all-zero row, centrosymmetric
    [["1", "0", "0"], ["1", "-1", "1"], ["0", "0", "1"]],  # negative entry, row sums to 1
]


def refusal(decompose, a: Matrix) -> type | None:
    """The class of the error `decompose(a)` raises, or None."""
    try:
        decompose(a)
    except CentrostochError as exc:
        return type(exc)
    return None


def _mark(a: Matrix) -> tuple[RectPermMatrix, Fraction]:
    # smallest positive entry of each row, leftmost winning ties; the peel
    # coefficient is the smallest marked value
    cols = []
    smallest = None
    for row in a.entries:
        best_col = None
        best = None
        for j, x in enumerate(row, 1):
            if x > 0 and (best is None or x < best):
                best = x
                best_col = j
        cols.append(best_col)
        if smallest is None or best < smallest:
            smallest = best
    return RectPermMatrix(cols, a.ncols), smallest


def reference_greedy_terms(a: Matrix) -> list[tuple[Fraction, RectPermMatrix]]:
    if not is_stochastic(a):
        raise NotStochasticError("decomposition input must be row-stochastic")
    terms: list[tuple[Fraction, RectPermMatrix]] = []
    weight = Fraction(1)
    current = a
    while True:
        picked, coeff = _mark(current)
        if coeff == 1:
            # every row is a single 1: the remainder is itself extreme
            terms.append((weight, picked))
            return terms
        terms.append((weight * coeff, picked))
        # peel and renormalize; the marked positions that attain coeff
        # become exact zeros, so the loop strictly shrinks the support
        current = (current - picked.to_matrix() * coeff) * (1 / (1 - coeff))
        weight *= 1 - coeff


def reference_decompose_stochastic(a: Matrix) -> ConvexCombination:
    return ConvexCombination(
        (c, r.to_matrix()) for c, r in reference_greedy_terms(a)
    )


def _reinsert_center(
    q: RectPermMatrix, center: tuple[Fraction, ...]
) -> Matrix:
    rows = q.to_matrix().entries
    half = len(rows) // 2
    return Matrix(rows[:half] + (center,) + rows[half:])


def reference_decompose_centrosymmetric(a: Matrix) -> ConvexCombination:
    if not is_stochastic(a):
        raise NotStochasticError("input must be row-stochastic")
    if not is_centrosymmetric(a):
        raise NotCentrosymmetricError("input must be centrosymmetric")
    m, n = a.shape
    terms: list[tuple[Fraction, Matrix]] = []
    for coeff, r in reference_greedy_terms(a):
        paired = (r.to_matrix() + r.rotate_pi().to_matrix()) * _HALF
        if is_extreme_centro(paired):
            terms.append((coeff, paired))
            continue
        if m % 2 == 0:
            q1, q2 = split_noncentrosymmetric(r)
            terms.append((coeff * _HALF, q1.to_matrix()))
            terms.append((coeff * _HALF, q2.to_matrix()))
        else:
            # delete the center row, split the even remainder, then give
            # both halves the averaged center row
            half = m // 2
            trimmed = RectPermMatrix(
                r.row_to_col[:half] + r.row_to_col[half + 1 :], n
            )
            q1, q2 = split_noncentrosymmetric(trimmed)
            center = paired.row(half + 1)
            terms.append((coeff * _HALF, _reinsert_center(q1, center)))
            terms.append((coeff * _HALF, _reinsert_center(q2, center)))
    return ConvexCombination(terms)


def reference_split(r: RectPermMatrix) -> tuple[RectPermMatrix, RectPermMatrix]:
    total = r.to_matrix() + r.rotate_pi().to_matrix()
    m, n = total.shape
    # each top row's unit entries, column by column, an entry of 2 twice
    tops = [[j for j, x in enumerate(row, 1) for _ in range(int(x))]
            for row in total.entries[: m // 2]]
    halves = []
    for k in (0, 1):
        top = [cols[k] for cols in tops]
        halves.append(RectPermMatrix(top + [n + 1 - c for c in reversed(top)], n))
    return halves[0], halves[1]


def decompose_centro_halves(a: Matrix) -> ConvexCombination:
    """Decompose a centrosymmetric stochastic matrix into half-turn pairs.

    Each greedy term R is replaced by (R + R^pi) / 2, which is again
    centrosymmetric and stochastic but not necessarily extreme. Raises
    NotStochasticError / NotCentrosymmetricError on bad input.
    """
    if not is_stochastic(a):
        raise NotStochasticError("decomposition input must be row-stochastic")
    if not is_centrosymmetric(a):
        raise NotCentrosymmetricError("input must be centrosymmetric")
    return ConvexCombination(
        (c, (r.to_matrix() + r.rotate_pi().to_matrix()) * _HALF)
        for c, r in ((c, RectPermMatrix(cols, a.ncols)) for c, cols in _greedy_terms(a))
    )
