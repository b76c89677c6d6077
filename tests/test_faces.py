"""Face patterns: support conditions, closed-form counts, enumeration."""

import itertools
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
        # a Matrix is built by its constructor, or by core._trusted from rows
        # that are already checked Fractions (as the parse does): count both
        built = []
        init = Matrix.__init__
        trusted = core._trusted

        def counting(self, rows):
            built.append(type(self))
            init(self, rows)

        def counting_trusted(*args):
            a = trusted(*args)
            built.append(type(a))
            return a

        monkeypatch.setattr(Matrix, "__init__", counting)
        for name, module in list(sys.modules.items()):
            if name.startswith("centrostoch") and getattr(module, "_trusted", None) is trusted:
                monkeypatch.setattr(module, "_trusted", counting_trusted)
        argv = ["face", action, *(["--centro"] if centro else []), "--json"]
        code, out, err = run_cli(argv, "3 3\n1 1 0\n1 0 1\n0 1 1\n")
        assert (code, err) == (0, "")
        assert built == [Matrix]

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
