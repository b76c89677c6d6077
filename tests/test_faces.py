"""Face patterns: support conditions, closed-form counts, enumeration."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from centrostoch import (
    FacePattern,
    Matrix,
    NoRowSupportError,
    NotCentrosymmetricError,
    PatternError,
    count_face_vertices_centro,
    count_face_vertices_stochastic,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    enumerate_face_vertices,
    has_row_support_centro,
    has_row_support_stochastic,
    is_extreme_centro,
    is_extreme_stochastic,
)
from centrostoch import core
from face_reference import reference_row_support_centro
from matrixgen import pattern_or_rotation, random_pattern, random_supported_pattern

H = Fraction(1, 2)

THREE_BY_TWO = FacePattern([[1, 1], [1, 1], [0, 1]])
MIDDLE_FREE = FacePattern([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
ALL_ONES = FacePattern([[1, 1, 1], [1, 1, 1], [1, 1, 1]])


class TestFacePattern:
    def test_wraps_zero_one_matrices(self):
        p = FacePattern([[1, 0], [0, 1]])
        assert p.shape == (2, 2)
        assert p.at(1, 1) == 1
        assert p.row_sum(1) == 1

    def test_rejects_string_rows(self):
        # read one character at a time, "11" passed for the row [1, 1]
        with pytest.raises(TypeError):
            FacePattern(["11", "01"])
        with pytest.raises(TypeError):
            count_face_vertices_stochastic(["111"])

    def test_rejects_other_entries(self):
        with pytest.raises(PatternError):
            FacePattern([["1/2", "1/2"]])
        with pytest.raises(PatternError):
            FacePattern([[2, 0]])

    def test_meet_and_rotation(self):
        p = FacePattern([[1, 1], [0, 1]])
        assert p.rotate_pi() == FacePattern([[1, 0], [1, 1]])
        assert p.meet(p.rotate_pi()) == FacePattern([[1, 0], [0, 1]])
        assert not p.is_centrosymmetric()
        assert p.meet(p.rotate_pi()).is_centrosymmetric()
        assert type(p.rotate_pi()) is FacePattern
        assert type(p.meet(p)) is FacePattern

    @pytest.mark.parametrize("other", [[[1, 1], [1, 0]], Matrix([[1, 1], [1, 0]])],
                             ids=["rows", "matrix"])
    def test_meet_takes_what_face_functions_take(self, other):
        met = FacePattern([[1, 1], [0, 1]]).meet(other)
        assert type(met) is FacePattern
        assert met == FacePattern([[1, 1], [0, 0]])

    @pytest.mark.parametrize("other", [[[2, 0], [0, 0]], Matrix([[2, 1], [1, 1]])],
                             ids=["rows", "matrix"])
    def test_meet_refuses_a_non_zero_one_other(self, other):
        # the minimum is 0/1 here, so only a check of `other` itself refuses
        with pytest.raises(PatternError):
            FacePattern([[1, 0], [0, 0]]).meet(other)

    def test_value_semantics(self):
        assert FacePattern([[1, 0]]) == FacePattern(Matrix([[1, 0]]))
        with pytest.raises(AttributeError):
            FacePattern([[1]]).matrix = None
        # a pattern is the Matrix with the same entries
        p = FacePattern([[1, 0], [1, 1]])
        assert p == Matrix([[1, 0], [1, 1]])
        assert hash(p) == hash(Matrix([[1, 0], [1, 1]]))
        assert type(p.matrix) is Matrix and p.matrix == p
        assert repr(p) == "FacePattern([[1, 0], [1, 1]])"
        with pytest.raises(AttributeError):
            p.nrows = 3


class TestRowSupport:
    def test_stochastic(self):
        assert has_row_support_stochastic(THREE_BY_TWO)
        assert not has_row_support_stochastic(FacePattern([[1, 1], [0, 0]]))

    def test_centro_uses_the_meet(self):
        # each row has a 1, but row 1 loses it after meeting the rotation
        p = FacePattern([[1, 0], [0, 1], [0, 1]])
        assert has_row_support_stochastic(p)
        assert not has_row_support_centro(p)
        assert has_row_support_centro(ALL_ONES)

    def test_accepts_plain_matrices(self):
        assert has_row_support_stochastic(Matrix([[1, 0], [0, 1]]))

    def test_centro_equals_the_meet_route_on_every_small_pattern(self):
        for m, n in itertools.product(range(1, 4), repeat=2):
            for bits in itertools.product((0, 1), repeat=m * n):
                rows = [bits[i * n : (i + 1) * n] for i in range(m)]
                expected = reference_row_support_centro(rows)
                assert has_row_support_centro(rows) is expected, rows
                assert has_row_support_centro(Matrix(rows)) is expected, rows
                assert has_row_support_centro(FacePattern(rows)) is expected, rows

    def test_centro_equals_the_meet_route_on_seeded_patterns(self):
        rng = random.Random(412)
        outcomes = set()
        for _ in range(300):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            density = rng.choice([Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)])
            pattern = random_pattern(rng, m, n, density)
            expected = reference_row_support_centro(pattern)
            assert has_row_support_centro(pattern) is expected, pattern
            outcomes.add(expected)
        assert outcomes == {False, True}


class TestCounts:
    def test_worked_three_by_two(self):
        assert count_face_vertices_stochastic(THREE_BY_TWO) == 4

    def test_full_pattern_counts_everything(self):
        assert count_face_vertices_stochastic(ALL_ONES) == 27

    def test_single_column(self):
        assert count_face_vertices_stochastic(FacePattern([[1], [1]])) == 1

    def test_requires_support(self):
        with pytest.raises(NoRowSupportError):
            count_face_vertices_stochastic(FacePattern([[1, 1], [0, 0]]))

    def test_centro_worked_examples(self):
        assert count_face_vertices_centro(MIDDLE_FREE) == 3
        assert count_face_vertices_centro(ALL_ONES) == 6

    def test_centro_even(self):
        assert count_face_vertices_centro(FacePattern([[1, 1], [1, 1]])) == 2

    def test_centro_requires_centrosymmetric_pattern(self):
        with pytest.raises(NotCentrosymmetricError):
            count_face_vertices_centro(FacePattern([[1, 1], [1, 0]]))

    def test_centro_requires_support(self):
        with pytest.raises(NoRowSupportError):
            count_face_vertices_centro(FacePattern([[0, 0], [0, 0]]))


def _rows_with_sums(rng, sums, n):
    # one n-column (0,1) row per sum, its ones in random columns
    rows = []
    for s in sums:
        ones = set(rng.sample(range(n), s))
        rows.append([int(j in ones) for j in range(n)])
    return rows


# (m, n, distinct): many rows sharing few row sums, or (top-half) row sums
# all different, at odd and even m
COUNT_CASES = [
    (3000, 4, False),
    (2999, 4, False),
    (1, 5, False),
    (60, 60, True),
    (59, 60, True),
    (61, 61, True),
]


class TestCountsAreExactProducts:
    """The counts equal the paper's products, multiplied out row by row."""

    @pytest.mark.parametrize("m, n, distinct", COUNT_CASES,
                             ids=lambda case: str(case).lower())
    def test_stochastic_is_the_product_of_the_row_sums(self, m, n, distinct):
        rng = random.Random(m * 1000 + n)
        sums = rng.sample(range(1, n + 1), m) if distinct else [
            rng.randint(1, n) for _ in range(m)]
        rows = _rows_with_sums(rng, sums, n)
        assert count_face_vertices_stochastic(FacePattern(rows)) == math.prod(sums)

    @pytest.mark.parametrize("m, n, distinct", COUNT_CASES,
                             ids=lambda case: str(case).lower())
    def test_centro_is_the_top_half_product_times_half_the_centre(self, m, n, distinct):
        rng = random.Random(m * 1000 + n + 1)
        half = m // 2
        sums = rng.sample(range(1, n + 1), half) if distinct else [
            rng.randint(1, n) for _ in range(half)]
        top = _rows_with_sums(rng, sums, n)
        rows = top + [row[::-1] for row in reversed(top)]
        expected = math.prod(sums)
        if m % 2:
            # a centrosymmetric centre row: a random nonzero row or its reversal
            row = _rows_with_sums(rng, [rng.randint(1, n)], n)[0]
            centre = [max(a, b) for a, b in zip(row, reversed(row))]
            rows.insert(half, centre)
            expected *= -(-sum(centre) // 2)
        assert count_face_vertices_centro(FacePattern(rows)) == expected


class TestEnumeration:
    def test_worked_three_by_two_vertices(self):
        verts = list(enumerate_face_vertices(THREE_BY_TWO))
        assert verts == [
            Matrix([[1, 0], [1, 0], [0, 1]]),
            Matrix([[1, 0], [0, 1], [0, 1]]),
            Matrix([[0, 1], [1, 0], [0, 1]]),
            Matrix([[0, 1], [0, 1], [0, 1]]),
        ]

    def test_centro_middle_free_vertices(self):
        verts = list(enumerate_face_vertices(MIDDLE_FREE, centro=True))
        assert verts == [
            Matrix([[1, 0, 0], [H, 0, H], [0, 0, 1]]),
            Matrix([[0, 1, 0], [H, 0, H], [0, 1, 0]]),
            Matrix([[0, 0, 1], [H, 0, H], [1, 0, 0]]),
        ]

    def test_counts_match_enumeration_exhaustively(self):
        # every 2 x 3 and 3 x 2 pattern
        for m, n in [(2, 3), (3, 2)]:
            for bits in itertools.product((0, 1), repeat=m * n):
                pattern = FacePattern(
                    [bits[i * n : (i + 1) * n] for i in range(m)]
                )
                if not has_row_support_stochastic(pattern):
                    continue
                count = count_face_vertices_stochastic(pattern)
                verts = list(enumerate_face_vertices(pattern))
                assert count == len(verts)
                assert len(set(verts)) == len(verts)
                assert all(is_extreme_stochastic(v) for v in verts)

    def test_centro_counts_match_enumeration_exhaustively(self):
        for bits in itertools.product((0, 1), repeat=9):
            pattern = FacePattern([bits[0:3], bits[3:6], bits[6:9]])
            if not pattern.is_centrosymmetric():
                continue
            if not has_row_support_centro(pattern):
                continue
            count = count_face_vertices_centro(pattern)
            verts = list(enumerate_face_vertices(pattern, centro=True))
            assert count == len(verts)
            assert all(is_extreme_centro(v) for v in verts)

    def test_centro_counts_random_patterns(self):
        rng = random.Random(409)
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            pattern = FacePattern(
                pattern_or_rotation(random_supported_pattern(rng, m, n))
            )
            assert has_row_support_centro(pattern)
            count = count_face_vertices_centro(pattern)
            verts = list(enumerate_face_vertices(pattern, centro=True))
            assert count == len(verts)

    def test_vertices_stay_inside_the_pattern(self):
        for v in enumerate_face_vertices(THREE_BY_TWO):
            assert all(THREE_BY_TWO.at(i, j) == 1 for i, j in v.support())

    def test_check_flag(self):
        unsupported = FacePattern([[1, 1], [0, 0]])
        with pytest.raises(NoRowSupportError):
            enumerate_face_vertices(unsupported)

    def test_centro_needs_centrosymmetric_pattern(self):
        with pytest.raises(NotCentrosymmetricError):
            enumerate_face_vertices(FacePattern([[1, 1], [1, 0]]), centro=True)

    def test_larger_support_never_loses_vertices(self):
        rng = random.Random(410)
        for _ in range(20):
            small = random_supported_pattern(rng, 3, 3)
            grown = pattern_or_rotation(small)
            vs = count_face_vertices_stochastic(small)
            vg = count_face_vertices_stochastic(grown)
            assert vs <= vg


class TestPatternBuiltOnce:
    """A pattern is checked as it is parsed, and no face function builds
    another Matrix from it."""

    @pytest.mark.parametrize("action", ["count", "support"])
    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_cli_builds_one_matrix(self, run_cli, monkeypatch, action, centro):
        # a Matrix is built by its constructor, by core._trusted from rows
        # that are already checked Fractions, or by core._held from checked
        # int rows (as the parse does): count all three
        built = []
        init = Matrix.__init__

        def counting(self, rows):
            built.append(type(self))
            init(self, rows)

        def counting_builder(builder):
            def build(*args):
                a = builder(*args)
                built.append(type(a))
                return a
            return build

        monkeypatch.setattr(Matrix, "__init__", counting)
        for builder in (core._trusted, core._held):
            for name, module in list(sys.modules.items()):
                if name.startswith("centrostoch") and getattr(module, builder.__name__, None) is builder:
                    monkeypatch.setattr(module, builder.__name__, counting_builder(builder))
        argv = ["face", action, *(["--centro"] if centro else []), "--json"]
        code, out, err = run_cli(argv, "3 3\n1 1 0\n1 0 1\n0 1 1\n")
        assert (code, err) == (0, "")
        assert built == [core._IntMatrix]

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_cli_count_walks_the_pattern_once(self, run_cli, monkeypatch, centro):
        import centrostoch.faces as faces

        walks = []
        choices = faces._column_choices
        monkeypatch.setattr(faces, "_column_choices",
                            lambda *a, **k: walks.append(a) or choices(*a, **k))
        argv = ["face", "count", *(["--centro"] if centro else [])]
        code, out, err = run_cli(argv, "3 3\n1 1 0\n1 0 1\n0 1 1\n")
        assert (code, out, err) == (0, "2\n" if centro else "8\n", "")
        assert len(walks) == 1

    def test_pattern_shares_the_matrix_rows(self):
        a = Matrix([[1, 0], [1, 1]])
        p = FacePattern(a)
        assert p.entries is a.entries and p.shape == a.shape
        assert FacePattern(p).entries is a.entries

    def test_pattern_answers_is_zero_one_without_reading(self, monkeypatch):
        p = FacePattern([[1, 0], [1, 1]])

        def refuse(self):
            raise AssertionError("the 0/1 check read the entries again")

        monkeypatch.setattr(Matrix, "is_zero_one", refuse)
        assert p.is_zero_one()

    def test_wrapping_a_pattern_again_checks_nothing(self, monkeypatch):
        p = FacePattern([[1, 0], [1, 1]])
        calls = []
        monkeypatch.setattr(Matrix, "is_zero_one", lambda self: calls.append(self) or True)
        q = FacePattern(p)
        assert calls == [] and q == p and q.entries is p.entries

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_face_functions_check_a_pattern_once(self, monkeypatch, centro):
        # every face function wraps its argument; only the plain Matrix is read
        a = Matrix([[1, 1, 0], [0, 1, 0], [0, 1, 1]])
        check = Matrix.is_zero_one
        calls = []
        monkeypatch.setattr(Matrix, "is_zero_one", lambda self: calls.append(self) or check(self))
        p = FacePattern(a)
        count = count_face_vertices_centro if centro else count_face_vertices_stochastic
        assert count(p) == len(list(enumerate_face_vertices(p, centro=centro)))
        assert has_row_support_stochastic(p) and has_row_support_centro(p)
        assert len(calls) == 1 and calls[0] is a


def enumerate_face_vertices_centro(pattern):
    return enumerate_face_vertices(pattern, centro=True)


NOT_ZERO_ONE = "a face pattern must have entries 0 and 1 only"
FACE_FUNCTIONS = [
    FacePattern,
    has_row_support_stochastic,
    has_row_support_centro,
    count_face_vertices_stochastic,
    count_face_vertices_centro,
    enumerate_face_vertices,
    enumerate_face_vertices_centro,
]
# the first is neither centrosymmetric nor supported in every row, so the
# 0/1 check must come first for PatternError to be the error raised
NOT_ZERO_ONE_ROWS = [[[2, 0, 1], [0, 0, 0]], [["1/2", 1], [1, "1/2"]]]


class TestNotZeroOne:
    @pytest.mark.parametrize("rows", NOT_ZERO_ONE_ROWS, ids=["2x3", "halves"])
    @pytest.mark.parametrize("fn", FACE_FUNCTIONS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("wrap", [Matrix, list], ids=["matrix", "rows"])
    def test_same_error_everywhere(self, rows, fn, wrap):
        with pytest.raises(PatternError) as info:
            fn(wrap(rows))
        assert str(info.value) == NOT_ZERO_ONE

    @pytest.mark.parametrize("rows", NOT_ZERO_ONE_ROWS, ids=["2x3", "halves"])
    @pytest.mark.parametrize("enumerate_extreme",
                             [enumerate_extreme_stochastic, enumerate_extreme_centro],
                             ids=["plain", "centro"])
    def test_global_enumerators_with_a_pattern(self, rows, enumerate_extreme):
        pattern = Matrix(rows)
        with pytest.raises(PatternError) as info:
            enumerate_extreme(*pattern.shape, pattern=pattern)
        assert str(info.value) == NOT_ZERO_ONE
