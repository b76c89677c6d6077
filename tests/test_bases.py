"""Basis families: renumbering, golden families, exact rank verification."""

from fractions import Fraction

import pytest

from centrostoch import (
    Matrix,
    ShapeError,
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
    is_centrosymmetric,
    is_stochastic,
    rank_of_family,
    renumber_position,
    verify_basis,
)
from centrostoch.bases import _complete_to_permutation, _family_size, _near_permutation

H = Fraction(1, 2)


class TestRenumbering:
    def test_small_grid_values(self):
        # 2 x 2 grid: diagonal first, then the wrapped diagonal
        got = {(i, j): renumber_position(i, j, 2) for i in (1, 2) for j in (1, 2)}
        assert got == {(1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 4}

    def test_three_grid_values(self):
        assert renumber_position(1, 1, 3) == 1
        assert renumber_position(3, 1, 3) == 6
        assert renumber_position(3, 2, 3) == 9

    def test_bijective(self):
        for side in range(1, 7):
            numbers = {
                renumber_position(i, j, side)
                for i in range(1, side + 1)
                for j in range(1, side + 1)
            }
            assert numbers == set(range(1, side * side + 1))

    def test_consecutive_numbers_hit_distinct_rows_and_columns(self):
        for side in range(2, 6):
            cells = {
                renumber_position(i, j, side): (i, j)
                for i in range(1, side + 1)
                for j in range(1, side + 1)
            }
            total = side * side
            for start in range(1, total + 1):
                block = [cells[(start + k - 1) % total + 1] for k in range(side - 1)]
                assert len({i for i, _ in block}) == side - 1
                assert len({j for _, j in block}) == side - 1

    def test_rejects_out_of_grid(self):
        with pytest.raises(ShapeError):
            renumber_position(0, 1, 2)
        with pytest.raises(ShapeError):
            renumber_position(1, 3, 2)
        with pytest.raises(ShapeError):
            renumber_position(1, 1, 0)


class TestNearPermutationBlocks:
    def test_inverts_the_renumbering(self):
        for side in range(1, 12):
            total = side * side
            cells = {
                renumber_position(i, j, side): (i, j)
                for i in range(1, side + 1)
                for j in range(1, side + 1)
            }
            for start in range(1, total + 1):
                expected = [cells[(start + k - 1) % total + 1] for k in range(side - 1)]
                assert _near_permutation(start, side) == expected, (side, start)

    def test_one_empty_row_and_column(self):
        for side in range(2, 5):
            for start in range(1, side * side + 1):
                cells = _near_permutation(start, side)
                rows = [i for i, _ in cells]
                cols = [j for _, j in cells]
                row_sums = [rows.count(i) for i in range(1, side + 1)]
                col_sums = [cols.count(j) for j in range(1, side + 1)]
                assert row_sums.count(0) == 1
                assert col_sums.count(0) == 1
                assert all(s in (0, 1) for s in row_sums)
                assert all(s in (0, 1) for s in col_sums)

    @pytest.mark.parametrize(
        "block", [[(1, 1), (2, 1)], [(1, 1), (1, 2)]], ids=["column-twice", "row-twice"]
    )
    def test_completion_refuses_a_block_with_two_free_lines(self, block):
        with pytest.raises(ShapeError):
            _complete_to_permutation(block, 3)


class TestSquareFamily:
    def test_smallest_case(self):
        fam = basis_square(2)
        assert fam == [
            Matrix([[0, 1], [1, 0]]),
            Matrix([[1, 0], [1, 0]]),
            Matrix([[0, 1], [0, 1]]),
        ]

    def test_counts_and_rank(self):
        for n in range(2, 6):
            fam = basis_square(n)
            assert len(fam) == n * n - n + 1
            assert rank_of_family(fam) == len(fam)
            assert all(is_stochastic(mat) for mat in fam)

    def test_permutation_part(self):
        # the first (n-1)^2 members are full permutation matrices
        n = 4
        for mat in basis_square(n)[: (n - 1) ** 2]:
            assert mat.is_zero_one()
            for i in range(1, n + 1):
                assert mat.row_sum(i) == 1
            for j in range(1, n + 1):
                assert sum(mat.at(i, j) for i in range(1, n + 1)) == 1

    def test_rejects_small_n(self):
        with pytest.raises(ShapeError):
            basis_square(1)


class TestRectFamily:
    def test_golden_five_by_three(self):
        def pivot(i, j):
            rows = []
            for r in range(1, 6):
                col = j if r == i else j + 1
                rows.append([1 if c == col else 0 for c in (1, 2, 3)])
            return Matrix(rows)

        expected = [pivot(i, j) for j in (1, 2) for i in (1, 2, 3, 4, 5)]
        expected.append(Matrix([[0, 0, 1]] * 5))
        assert basis_rect(5, 3) == expected

    def test_single_row(self):
        assert basis_rect(1, 2) == [Matrix([[1, 0]]), Matrix([[0, 1]])]

    def test_counts_and_rank(self):
        for m in range(1, 6):
            for n in range(2, 6):
                fam = basis_rect(m, n)
                assert len(fam) == m * (n - 1) + 1
                assert rank_of_family(fam) == len(fam)
                assert all(is_stochastic(mat) for mat in fam)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ShapeError):
            basis_rect(0, 3)
        with pytest.raises(ShapeError):
            basis_rect(3, 1)


class TestCentroEvenFamily:
    def test_smallest_case(self):
        fam = basis_centro_even(2, 2)
        assert fam == [
            Matrix([[1, 0], [0, 1]]),
            Matrix([[0, 1], [1, 0]]),
        ]

    def test_counts_and_rank(self):
        for m in (2, 4, 6):
            for n in range(2, 5):
                fam = basis_centro_even(m, n)
                assert len(fam) == (m // 2) * (n - 1) + 1
                assert rank_of_family(fam) == len(fam)
                for mat in fam:
                    assert is_stochastic(mat)
                    assert is_centrosymmetric(mat)

    def test_rejects_odd_m(self):
        with pytest.raises(ShapeError):
            basis_centro_even(3, 3)

    def test_rejects_one_column_in_its_own_words(self):
        with pytest.raises(ShapeError, match="^the even centrosymmetric family needs n >= 2$"):
            basis_centro_even(2, 1)


class TestCentroOddFamily:
    def test_golden_five_by_four(self):
        center = (0, H, H, 0)
        expected = [
            Matrix([[1, 0, 0, 0], [0, 1, 0, 0], center, [0, 0, 1, 0], [0, 0, 0, 1]]),
            Matrix([[0, 1, 0, 0], [1, 0, 0, 0], center, [0, 0, 0, 1], [0, 0, 1, 0]]),
            Matrix([[0, 1, 0, 0], [0, 0, 1, 0], center, [0, 1, 0, 0], [0, 0, 1, 0]]),
            Matrix([[0, 0, 1, 0], [0, 1, 0, 0], center, [0, 0, 1, 0], [0, 1, 0, 0]]),
            Matrix([[0, 0, 1, 0], [0, 0, 0, 1], center, [1, 0, 0, 0], [0, 1, 0, 0]]),
            Matrix([[0, 0, 0, 1], [0, 0, 1, 0], center, [0, 1, 0, 0], [1, 0, 0, 0]]),
            Matrix([[0, 0, 0, 1], [0, 0, 0, 1], center, [1, 0, 0, 0], [1, 0, 0, 0]]),
            Matrix(
                [[0, 0, 0, 1], [0, 0, 0, 1], (H, 0, 0, H), [1, 0, 0, 0], [1, 0, 0, 0]]
            ),
        ]
        assert basis_centro_odd(5, 4) == expected

    def test_odd_columns_use_unit_center(self):
        fam = basis_centro_odd(3, 3)
        assert len(fam) == 4
        # the first members carry the fixed unit center row
        assert fam[0].row(2) == (0, 1, 0)
        # the final member pairs the outer columns around a half-half center
        assert fam[-1] == Matrix([[0, 0, 1], [H, 0, H], [1, 0, 0]])

    def test_counts_and_rank(self):
        for m in (3, 5):
            for n in range(2, 6):
                fam = basis_centro_odd(m, n)
                half = (m - 1) // 2
                assert len(fam) == half * (n - 1) + (n + 1) // 2
                assert rank_of_family(fam) == len(fam)
                for mat in fam:
                    assert is_stochastic(mat)
                    assert is_centrosymmetric(mat)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ShapeError):
            basis_centro_odd(4, 3)
        with pytest.raises(ShapeError):
            basis_centro_odd(1, 3)
        with pytest.raises(ShapeError):
            basis_centro_odd(3, 1)


class TestVerifyBasis:
    def test_accepts_true_bases(self):
        assert verify_basis(basis_rect(5, 3), 10)
        assert verify_basis(basis_centro_odd(5, 4), 7)

    def test_rejects_wrong_dimension(self):
        assert not verify_basis(basis_rect(5, 3), 11)

    def test_rejects_dependent_family(self):
        fam = basis_rect(2, 2)
        dependent = fam[:-1] + [fam[0]]
        assert not verify_basis(dependent, len(dependent) - 1)


class TestFamilySize:
    """`_family_size` is each builder's member count in closed form, and
    refuses exactly the shapes the builder refuses, in its words."""

    BUILDERS = {"square": lambda m, n: basis_square(n), "rect": basis_rect,
                "centro-even": basis_centro_even, "centro-odd": basis_centro_odd}

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_equals_the_built_family(self, family):
        for m in range(-1, 9):
            for n in range(-1, 8):
                try:
                    built = len(self.BUILDERS[family](m, n))
                except ShapeError as exc:
                    with pytest.raises(ShapeError, match=f"^{exc}$"):
                        _family_size(family, m, n)
                else:
                    assert _family_size(family, m, n) == built, (m, n)
