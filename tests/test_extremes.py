"""Extreme-point predicates, enumerators, and the rank oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from centrostoch import (
    EnumerationCapError,
    Matrix,
    NoRowSupportError,
    NotCentrosymmetricError,
    NotStochasticError,
    PatternError,
    RectPermMatrix,
    ShapeError,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    is_centrosymmetric,
    is_extreme_centro,
    is_extreme_oracle,
    is_extreme_stochastic,
    is_stochastic,
)
import extreme_reference
from matrixgen import random_centro_stochastic, random_stochastic, uniform_on_pattern

HALF = H = Fraction(1, 2)

S = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])


def paired_with_rotation(r: RectPermMatrix) -> Matrix:
    return (r.to_matrix() + r.rotate_pi().to_matrix()) * HALF


def brute_centro_extremes(m: int, n: int) -> set:
    # every centrosymmetric extreme point is a half-sum of a rectangular
    # permutation matrix with its rotation; filter those with the oracle
    found = set()
    for r in enumerate_extreme_stochastic(m, n):
        candidate = paired_with_rotation(r)
        if candidate in found:
            continue
        if is_extreme_oracle(candidate, centro=True):
            found.add(candidate)
    return found


class TestStructuralPredicates:
    def test_rect_perm_matrices_are_extreme(self):
        assert is_extreme_stochastic(Matrix.identity(3))
        assert is_extreme_stochastic(Matrix([[0, 1], [0, 1], [1, 0]]))

    def test_non_extreme_stochastic(self):
        assert not is_extreme_stochastic(Matrix([["1/2", "1/2"]]))
        assert not is_extreme_stochastic(Matrix([[1, 1]]))
        assert not is_extreme_stochastic(Matrix([[0, 0]]))

    def test_centro_even(self):
        assert is_extreme_centro(Matrix([[1, 0], [0, 1]]))
        assert not is_extreme_centro(Matrix([["1/2", "1/2"], ["1/2", "1/2"]]))
        # extreme in the stochastic polytope but not centrosymmetric
        assert not is_extreme_centro(Matrix([[1, 0], [1, 0]]))

    def test_centro_odd_half_pair_center(self):
        assert is_extreme_centro(S)
        bad_center = Matrix(
            [[1, 0, 0, 0], [0, "1/4", "3/4", 0], [0, 0, 0, 1]]
        )
        assert not is_extreme_centro(bad_center)

    def test_centro_odd_unit_center(self):
        assert is_extreme_centro(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        # the unit must sit on the middle column
        assert not is_extreme_centro(Matrix([[0, 0, 1], [1, 0, 0], [1, 0, 0]]))

    def test_centro_odd_rejects_spread_center(self):
        spread = Matrix(
            [[1, 0, 0, 0], ["1/4", "1/4", "1/4", "1/4"], [0, 0, 0, 1]]
        )
        assert not is_extreme_centro(spread)

    def test_non_stochastic_is_not_extreme(self):
        assert not is_extreme_centro(Matrix([[2, -1], [-1, 2]]))


SMALL_VALUES = [Fraction(v) for v in ("-1/2", "0", "1/4", "1/2", "3/4", "1", "3/2")]


def random_small_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    # each row a unit row, a mirrored 1/2 pair or arbitrary values, so that
    # vertices, near-vertices and non-stochastic rows all turn up; half the
    # matrices are then made centrosymmetric
    rows = []
    for _ in range(m):
        kind = rng.random()
        row = [Fraction(0)] * n
        if kind < 0.5:
            row[rng.randrange(n)] = Fraction(1)
        elif kind < 0.75:
            j = rng.randrange(n)
            row[j] += H
            row[n - 1 - j] += H
        else:
            row = [rng.choice(SMALL_VALUES) for _ in range(n)]
        rows.append(row)
    if rng.random() < 0.5:
        for i in range(m // 2):
            rows[m - 1 - i] = rows[i][::-1]
        if m % 2:
            middle = rows[m // 2]
            rows[m // 2] = middle[: (n + 1) // 2] + middle[: n // 2][::-1]
    return Matrix(rows)


class TestPredicatesAgainstReference:
    """The predicates read off `_vertex_of` agree with the row-by-row ones."""

    def test_every_small_matrix_over_zero_half_one(self):
        values = (Fraction(0), H, Fraction(1))
        extreme = [0, 0]
        for m, n in itertools.product(range(1, 4), repeat=2):
            for cells in itertools.product(values, repeat=m * n):
                a = Matrix([cells[i * n : (i + 1) * n] for i in range(m)])
                plain, centro = is_extreme_stochastic(a), is_extreme_centro(a)
                assert plain == extreme_reference.is_extreme_stochastic(a), a
                assert centro == extreme_reference.is_extreme_centro(a), a
                extreme[0] += plain
                extreme[1] += centro
        # 3^1 + ... + 3^3 rectangular permutation matrices over all nine shapes
        assert extreme[0] == sum(n**m for m in range(1, 4) for n in range(1, 4))
        assert extreme[1] > 0

    def test_seeded_random_matrices(self):
        rng = random.Random(2468)
        extreme = [0, 0]
        for _ in range(24000):
            a = random_small_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            plain, centro = is_extreme_stochastic(a), is_extreme_centro(a)
            assert plain == extreme_reference.is_extreme_stochastic(a), a
            assert centro == extreme_reference.is_extreme_centro(a), a
            extreme[0] += plain
            extreme[1] += centro
        assert min(extreme) > 1000


class TestEnumerateStochastic:
    def test_counts(self):
        assert len(list(enumerate_extreme_stochastic(1, 3))) == 3
        assert len(list(enumerate_extreme_stochastic(2, 2))) == 4
        assert len(list(enumerate_extreme_stochastic(3, 4))) == 64

    def test_lexicographic_and_distinct(self):
        mats = list(enumerate_extreme_stochastic(2, 3))
        assert [r.row_to_col for r in mats[:4]] == [
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 1),
        ]
        assert len(set(mats)) == len(mats)

    def test_all_terms_extreme(self):
        for r in enumerate_extreme_stochastic(2, 3):
            assert is_extreme_stochastic(r.to_matrix())

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_extreme_stochastic(10, 10, cap=100)

    def test_bad_sizes(self):
        with pytest.raises(ShapeError):
            enumerate_extreme_stochastic(0, 3)


class TestEnumerateCentro:
    def test_even_counts(self):
        assert len(list(enumerate_extreme_centro(2, 2))) == 2
        assert len(list(enumerate_extreme_centro(4, 3))) == 9

    def test_odd_counts(self):
        assert len(list(enumerate_extreme_centro(1, 4))) == 2
        assert len(list(enumerate_extreme_centro(3, 2))) == 2
        assert len(list(enumerate_extreme_centro(3, 3))) == 6
        assert len(list(enumerate_extreme_centro(5, 4))) == 32

    def test_members_are_centro_stochastic_extremes(self):
        for mat in enumerate_extreme_centro(5, 4):
            assert is_stochastic(mat)
            assert is_centrosymmetric(mat)
            assert is_extreme_centro(mat)
            assert all(
                x in (0, HALF, 1) for row in mat.entries for x in row
            )

    def test_distinct(self):
        mats = list(enumerate_extreme_centro(5, 3))
        assert len(set(mats)) == len(mats)

    def test_matches_oracle_brute_force(self):
        for m in range(1, 5):
            for n in range(1, 4):
                enumerated = set(enumerate_extreme_centro(m, n))
                assert enumerated == brute_centro_extremes(m, n)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_extreme_centro(9, 9, cap=10)

    def test_bad_sizes(self):
        with pytest.raises(ShapeError):
            enumerate_extreme_centro(2, 0)


class TestFacePattern:
    def test_restricts_to_the_pattern(self):
        pattern = Matrix([[1, 0], [1, 1]])
        assert list(enumerate_extreme_stochastic(2, 2, pattern=pattern)) == [
            RectPermMatrix([1, 1], 2),
            RectPermMatrix([1, 2], 2),
        ]
        pattern = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert list(enumerate_extreme_centro(3, 3, pattern=pattern)) == [
            Matrix([[1, 0, 0], [H, 0, H], [0, 0, 1]]),
            Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            Matrix([[0, 1, 0], [H, 0, H], [0, 1, 0]]),
            Matrix([[0, 1, 0], [0, 1, 0], [0, 1, 0]]),
        ]

    def test_cap_bounds_the_face(self):
        identity = Matrix.identity(9)
        assert len(list(enumerate_extreme_stochastic(9, 9, cap=1, pattern=identity))) == 1
        with pytest.raises(EnumerationCapError):
            enumerate_extreme_centro(3, 3, cap=3, pattern=Matrix([[1] * 3] * 3))

    @pytest.mark.parametrize(
        "enumerate_extremes", [enumerate_extreme_stochastic, enumerate_extreme_centro]
    )
    def test_shape_mismatch(self, enumerate_extremes):
        with pytest.raises(ShapeError):
            enumerate_extremes(2, 3, pattern=Matrix([[1, 1], [1, 1]]))

    def test_centro_needs_centrosymmetric_pattern(self):
        pattern = Matrix([[1, 1], [1, 0]])
        assert len(list(enumerate_extreme_stochastic(2, 2, pattern=pattern))) == 2
        with pytest.raises(NotCentrosymmetricError):
            enumerate_extreme_centro(2, 2, pattern=pattern)

    def test_row_without_support(self):
        with pytest.raises(NoRowSupportError):
            enumerate_extreme_stochastic(2, 2, pattern=Matrix([[1, 1], [0, 0]]))

    def test_pattern_entries_are_zero_one(self):
        with pytest.raises(PatternError):
            enumerate_extreme_stochastic(1, 2, pattern=Matrix([[2, 1]]))

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_a_bad_entry_is_refused_before_symmetry_or_support(self, centro):
        # the later row's 1/2 is refused, though the pattern is neither
        # centrosymmetric nor free of all-zero rows
        enumerate_extremes = enumerate_extreme_centro if centro else enumerate_extreme_stochastic
        with pytest.raises(PatternError):
            enumerate_extremes(2, 2, pattern=Matrix([[0, 0], [1, H]]))


class TestOracle:
    def test_agrees_on_rect_perm(self):
        assert is_extreme_oracle(Matrix.identity(3))
        assert is_extreme_oracle(Matrix([[0, 1], [0, 1]]))

    def test_rejects_interior_point(self):
        assert not is_extreme_oracle(Matrix([["1/2", "1/2"]]))

    def test_centro_mode_on_s(self):
        assert is_extreme_oracle(S, centro=True)
        # S is not extreme among plain stochastic matrices
        assert not is_extreme_oracle(S)

    def test_preconditions(self):
        with pytest.raises(NotStochasticError):
            is_extreme_oracle(Matrix([[1, 1]]))
        with pytest.raises(NotCentrosymmetricError):
            is_extreme_oracle(Matrix([[1, 0], [1, 0]]), centro=True)

    def test_agreement_with_structural_predicate(self):
        # both routes on every half-sum candidate, including non-extremes
        for m, n in [(2, 3), (3, 3), (3, 4)]:
            for r in enumerate_extreme_stochastic(m, n):
                candidate = paired_with_rotation(r)
                assert is_extreme_oracle(candidate, centro=True) == is_extreme_centro(
                    candidate
                )

    def test_agreement_on_random_centro_matrices(self):
        rng = random.Random(405)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            a = random_centro_stochastic(rng, m, n)
            assert is_extreme_oracle(a, centro=True) == is_extreme_centro(a)

    def test_agreement_on_random_stochastic_matrices(self):
        rng = random.Random(406)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            a = random_stochastic(rng, m, n)
            assert is_extreme_oracle(a) == is_extreme_stochastic(a)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
    def test_agreement_on_every_row_supported_pattern(self, m, n):
        # uniform on every pattern without an empty row, extreme or not
        rows = [p for p in itertools.product((0, 1), repeat=n) if any(p)]
        for pattern in itertools.product(rows, repeat=m):
            a = uniform_on_pattern(pattern)
            assert is_extreme_oracle(a) == is_extreme_stochastic(a), pattern

    @pytest.mark.parametrize("m, n", [(3, 3), (4, 3)])
    def test_agreement_on_every_centro_row_supported_pattern(self, m, n):
        # the top half is free, the odd-m centre row is its own reversal
        rows = [p for p in itertools.product((0, 1), repeat=n) if any(p)]
        middles = [[p] for p in rows if p == p[::-1]] if m % 2 else [[]]
        for top in itertools.product(rows, repeat=m // 2):
            for middle in middles:
                pattern = [*top, *middle, *(row[::-1] for row in reversed(top))]
                a = uniform_on_pattern(pattern)
                assert is_centrosymmetric(a)
                assert is_extreme_oracle(a, centro=True) == is_extreme_centro(a), pattern
                assert is_extreme_oracle(a) == is_extreme_stochastic(a), pattern
