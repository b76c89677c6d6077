"""Extreme-point predicates, enumerators, and the rank oracle."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from centrostoch import (
    DEFAULT_ENUMERATION_CAP,
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
from centrostoch.core import _vertex_of
import extreme_reference
from matrixgen import (
    pattern_or_rotation,
    random_centro_stochastic,
    random_stochastic,
    random_supported_pattern,
    uniform_on_pattern,
)

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

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_bool_and_float_column_counts_refused(self, n):
        with pytest.raises(TypeError):
            list(enumerate_extreme_stochastic(2, n))

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_items_equal_the_checked_constructor(self, m, n):
        # the enumerator builds its items unchecked; each is the instance the
        # public constructor makes from the same columns, plain ints included,
        # and the vertex key of its matrix
        rng = random.Random(m * n)
        pattern = Matrix([[1 if j == 1 or rng.random() < 0.5 else 0 for j in range(1, n + 1)]
                          for _ in range(m)])
        for items in (enumerate_extreme_stochastic(m, n),
                      enumerate_extreme_stochastic(m, n, pattern=pattern)):
            for r in items:
                checked = RectPermMatrix(list(r.row_to_col), n)
                assert r == checked and hash(r) == hash(checked)
                assert (r.nrows, r.ncols, r.row_to_col) == (checked.nrows, checked.ncols, checked.row_to_col)
                assert type(r.ncols) is int and all(type(c) is int for c in r.row_to_col)
                assert type(r) is RectPermMatrix
                assert r == RectPermMatrix.from_matrix(r.to_matrix())
                assert r == _vertex_of(r.to_matrix()) == _vertex_of(Matrix(r.to_matrix().entries))
                with pytest.raises(AttributeError):
                    r.ncols = n


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


def near_cap_pattern(rng, m, n, ones, centro, centre_ones=None):
    # `ones` 1s in each free row (all rows, or the top half mirrored below),
    # and for odd-m centro a symmetric centre row with `centre_ones` 1s on
    # each side of it, the middle column included when n is odd
    rows = []
    for _ in range(m // 2 if centro else m):
        row = [0] * n
        for j in rng.sample(range(n), ones):
            row[j] = 1
        rows.append(row)
    if centro:
        bottom = [row[::-1] for row in reversed(rows)]
        if m % 2:
            centre = [0] * n
            for j in range(centre_ones):
                centre[j] = centre[n - 1 - j] = 1
            centre[n // 2] |= n % 2
            bottom.insert(0, centre)
        rows += bottom
    return rows


def as_matrix(item):
    # a RectPermMatrix read by its definition, a Matrix as it is
    if isinstance(item, RectPermMatrix):
        return Matrix([[int(j == c) for j in range(1, item.ncols + 1)] for c in item.row_to_col])
    return item


class TestEnumerationOrder:
    """Both enumerators list `reference_extremes`, in its order, with and
    without a pattern, and build each item only when it is asked for."""

    rng = random.Random(4099)
    # (m, n, pattern, centro): each enumeration has 4.7e5 to 1e6 points,
    # within the default cap of 1e6
    NEAR_CAP = {
        "plain-even-m": (6, 10, None, False),
        "plain-odd-m": (5, 15, None, False),
        "plain-even-m-pattern": (6, 12, near_cap_pattern(rng, 6, 12, 10, False), False),
        "plain-odd-m-pattern": (5, 16, near_cap_pattern(rng, 5, 16, 15, False), False),
        "centro-even-m": (12, 10, None, True),
        "centro-odd-m-even-n": (11, 10, None, True),
        "centro-odd-m-middle-centre": (11, 11, None, True),
        "centro-even-m-pattern": (12, 12, near_cap_pattern(rng, 12, 12, 10, True), True),
        "centro-odd-m-pattern-middle-centre": (
            11, 11, near_cap_pattern(rng, 11, 11, 10, True, centre_ones=4), True
        ),
        "centro-odd-m-even-n-pattern": (
            13, 8, near_cap_pattern(rng, 13, 8, 7, True, centre_ones=4), True
        ),
    }
    FIRST = 300

    @staticmethod
    def enumeration(m, n, pattern, centro):
        enumerate_extremes = enumerate_extreme_centro if centro else enumerate_extreme_stochastic
        return enumerate_extremes(m, n, pattern=None if pattern is None else Matrix(pattern))

    @pytest.mark.parametrize("case", NEAR_CAP)
    def test_first_items_near_the_cap_come_at_once(self, case):
        m, n, pattern, centro = self.NEAR_CAP[case]
        free = m // 2 if centro else m
        rows = [[1] * n] * m if pattern is None else pattern
        count = math.prod(map(sum, rows[:free]))
        if centro and m % 2:
            count *= sum(rows[m // 2][: (n + 1) // 2])
        assert 4 * 10**5 < count <= DEFAULT_ENUMERATION_CAP
        tracemalloc.start()
        try:
            first = list(itertools.islice(self.enumeration(m, n, pattern, centro), self.FIRST))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole enumeration would hold hundreds of thousands of items
        assert peak < 2**20, peak
        kind = Matrix if centro else RectPermMatrix
        assert all(isinstance(item, kind) for item in first)
        reference = extreme_reference.reference_extremes(m, n, pattern, centro)
        expected = list(itertools.islice(reference, self.FIRST))
        assert list(map(as_matrix, first)) == expected
        # once its entries are read, a centrosymmetric point is a plain Matrix
        assert all(type(item) is kind for item in first)

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_small_enumerations_equal_the_reference(self, centro):
        rng = random.Random(17)
        for m in range(1, 6):
            for n in range(1, 5):
                pattern = random_supported_pattern(rng, m, n)
                if centro:
                    pattern = pattern_or_rotation(pattern)
                for rows in (None, pattern.entries):
                    got = list(map(as_matrix, self.enumeration(m, n, rows, centro)))
                    assert got == list(extreme_reference.reference_extremes(m, n, rows, centro))


class TestRowBound:
    """Without a pattern, `cap` bounds the free rows (m, or ceil(m/2) for
    centro) before any row is walked. For n >= 2 a count over that many rows
    already exceeds the cap, so only one-column enumerations change."""

    @pytest.mark.parametrize(
        "enumerate_extremes", [enumerate_extreme_stochastic, enumerate_extreme_centro]
    )
    def test_huge_row_count_refused_up_front(self, enumerate_extremes):
        # walking these rows would exhaust memory, so the refusal must come first
        with pytest.raises(EnumerationCapError, match="free rows"):
            enumerate_extremes(99999999999, 1)

    def test_one_column_at_the_bound(self):
        [r] = enumerate_extreme_stochastic(5, 1, cap=5)
        assert r.row_to_col == (1,) * 5
        [a] = enumerate_extreme_centro(5, 1, cap=3)
        assert a == Matrix([[1]] * 5)
        with pytest.raises(EnumerationCapError):
            enumerate_extreme_stochastic(6, 1, cap=5)
        with pytest.raises(EnumerationCapError):
            enumerate_extreme_centro(6, 1, cap=2)

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_refused_exactly_past_the_count_or_the_rows(self, centro):
        enumerate_extremes = enumerate_extreme_centro if centro else enumerate_extreme_stochastic
        for m in range(1, 8):
            for n in range(1, 4):
                if centro:
                    count = n ** (m // 2) * ((n + 1) // 2) ** (m % 2)
                    rows = m - m // 2
                else:
                    count, rows = n**m, m
                for cap in range(0, 10):
                    refused = count > cap or rows > cap
                    if n >= 2:
                        assert refused == (count > cap)
                    if refused:
                        with pytest.raises(EnumerationCapError):
                            enumerate_extremes(m, n, cap=cap)
                    else:
                        assert len(list(enumerate_extremes(m, n, cap=cap))) == count

    def test_a_pattern_bounds_the_rows(self):
        # the rows come from the pattern, so only the count meets the cap
        ones = Matrix([[1]] * 12)
        assert len(list(enumerate_extreme_stochastic(12, 1, cap=1, pattern=ones))) == 1
        assert len(list(enumerate_extreme_centro(12, 1, cap=1, pattern=ones))) == 1


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
