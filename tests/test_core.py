"""Core value types: exact matrices, row patterns, convex combinations, rank."""

import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centrostoch import (
    BipartiteGraph,
    ConvexCombination,
    FacePattern,
    Matrix,
    PatternError,
    RectPermMatrix,
    ShapeError,
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
    decompose_centrosymmetric,
    decompose_stochastic,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    enumerate_face_vertices,
    format_matrix,
    is_centrosymmetric,
    is_stochastic,
    rank_of_family,
    renumber_position,
    rotate_pi,
)
from centrostoch import core
from centrostoch.core import _row_ints, _unit_matrix, _vertex, _vertex_of
from convex_reference import reference_check, reference_merge
from extreme_reference import is_extreme_oracle, verify_basis
from matrixgen import (
    HALF,
    pattern_or_rotation,
    random_stochastic,
    random_stochastic_row,
    random_supported_pattern,
)
from rank_reference import reference_rank as exact_rank
from stochastic_reference import reference_is_stochastic

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def matrices(draw, max_rows=4, max_cols=4, entries=rationals):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return Matrix(rows)


class TestMatrixConstruction:
    def test_entries_become_fractions(self):
        a = Matrix([[1, "1/2"], ["0.25", 0]])
        assert a.at(1, 2) == Fraction(1, 2)
        assert a.at(2, 1) == Fraction(1, 4)
        assert all(isinstance(x, Fraction) for row in a.entries for x in row)

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[0.5, 0.5]])
        with pytest.raises(TypeError, match="bool"):
            Matrix([[True]])
        with pytest.raises(TypeError):
            Matrix([[1, False]])

    @pytest.mark.parametrize(
        "rows",
        [["10", "01"], "1", [[1, 0], b"01"], [bytearray(b"1")], (r for r in ([1], "1"))],
        ids=["str rows", "str", "bytes row", "bytearray row", "generator"],
    )
    def test_string_rows_refused(self, rows):
        # read one character at a time, ["10", "01"] built the identity
        with pytest.raises(TypeError, match="not"):
            Matrix(rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([[1, 0], [1]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([])
        with pytest.raises(ShapeError):
            Matrix([[]])

    def test_shape(self):
        assert Matrix([[1, 2, 3], [4, 5, 6]]).shape == (2, 3)

    def test_zeros_and_identity(self):
        assert Matrix.zeros(2, 3).entries == ((0, 0, 0), (0, 0, 0))
        assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])


class TestMatrixAccess:
    def test_at_is_one_based(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a.at(1, 1) == 1
        assert a.at(2, 1) == 3

    def test_at_out_of_range(self):
        a = Matrix([[1, 2], [3, 4]])
        for i, j in [(0, 1), (1, 0), (3, 1), (1, 3)]:
            with pytest.raises(IndexError):
                a.at(i, j)

    def test_row(self):
        a = Matrix([[1, 2], [3, 4]])
        assert a.row(2) == (3, 4)
        with pytest.raises(IndexError):
            a.row(3)

    def test_row_sum(self):
        a = Matrix([["1/3", "2/3"], [1, 0]])
        assert a.row_sum(1) == 1

    def test_support_and_nnz(self):
        a = Matrix([[1, 0], [0, "1/2"]])
        assert a.support() == frozenset({(1, 1), (2, 2)})
        assert a.nnz() == 2

    def test_is_zero_one(self):
        assert Matrix([[1, 0], [0, 1]]).is_zero_one()
        assert not Matrix([["1/2", "1/2"]]).is_zero_one()


class TestMatrixValueSemantics:
    def test_immutable(self):
        a = Matrix([[1]])
        with pytest.raises(AttributeError):
            a.nrows = 5

    def test_equality_and_hash(self):
        a = Matrix([[1, "1/2"]])
        b = Matrix([["2/2", "2/4"]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Matrix([[1, 1]])

    def test_arithmetic_is_exact(self):
        a = Matrix([["1/3", "1/7"]])
        b = Matrix([["1/6", "1/14"]])
        assert a - b - b == Matrix.zeros(1, 2)
        assert b * 2 == a
        assert Fraction(2) * b == a

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[1]]) * 0.5
        with pytest.raises(TypeError):
            Matrix([[1]]) * True

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Matrix([[1]]) + Matrix([[1, 2]])

    def test_other_operands_are_not_implemented(self):
        a = Matrix([[1]])
        for method in (a.__add__, a.__sub__, a.__eq__):
            assert method(1) is NotImplemented
        assert a != 1
        with pytest.raises(TypeError):
            a + 1
        with pytest.raises(TypeError):
            a - 1

    def test_entrywise_min(self):
        a = Matrix([[1, 0], [0, 1]])
        b = Matrix([[1, 1], [0, 0]])
        assert a.entrywise_min(b) == Matrix([[1, 0], [0, 0]])

    @given(matrices())
    def test_subtraction_roundtrip(self, a):
        assert (a - a) + a == a


class TestRotation:
    def test_half_turn_example(self):
        assert rotate_pi(Matrix([[1, 2], [3, 4]])) == Matrix([[4, 3], [2, 1]])

    def test_single_cell(self):
        assert rotate_pi(Matrix([[7]])) == Matrix([[7]])

    @given(matrices())
    def test_involution(self, a):
        assert rotate_pi(rotate_pi(a)) == a

    @given(matrices())
    def test_sum_with_rotation_is_centrosymmetric(self, a):
        assert is_centrosymmetric(a + rotate_pi(a))

    def test_method_matches_function(self):
        a = Matrix([[1, 2, 3], [4, 5, 6]])
        assert a.rotate_pi() == rotate_pi(a)


class TestPredicates:
    def test_stochastic(self):
        assert is_stochastic(Matrix([[1, 0], ["1/2", "1/2"]]))
        assert not is_stochastic(Matrix([[1, 1]]))
        assert not is_stochastic(Matrix([["3/2", "-1/2"]]))

    def test_stochastic_equals_the_fraction_reference(self):
        # rows checked on ints over their own lcm against the plain Fraction
        # route: negative entries, rows off 1 by 2^-200, huge numerators and
        # denominators, m = 1 and n = 1
        rng = random.Random(611)
        tiny = Fraction(1, 2**200)

        def huge_row(n):
            # unrelated 100-300-bit denominators; the last entry closes the
            # row, and is negative when the others overshoot
            row = [Fraction(rng.getrandbits(rng.randint(100, 300)),
                            rng.getrandbits(rng.randint(100, 300)) | 1) for _ in range(n - 1)]
            return row + [1 - sum(row)]

        def bad_row(n):
            row = huge_row(n) if rng.random() < 0.3 else random_stochastic_row(rng, n, 10**30)
            j = rng.randrange(n)
            kind = rng.randrange(3)
            if kind == 0:
                row[j] += rng.choice((tiny, -tiny))
            elif kind == 1 and n > 1:
                # a negative entry, the row still summing to 1
                k = (j + 1) % n
                shift = row[j] + rng.choice((tiny, Fraction(1, 3), Fraction(7)))
                row[j] -= shift
                row[k] += shift
            else:
                row[j] = -row[j] if row[j] else -tiny
            return row

        seen = set()
        for _ in range(300):
            m, n = rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 6))
            good = rng.random() < 0.5
            rows = []
            for _ in range(m):
                kind = rng.randrange(4) if good else rng.randrange(5)
                if kind == 4:
                    rows.append(bad_row(n))
                elif kind == 3:
                    rows.append(huge_row(n))
                else:
                    rows.append(random_stochastic_row(rng, n, rng.choice((3, 10**6, 10**40))))
            a = Matrix(rows)
            expected = reference_is_stochastic(a)
            assert is_stochastic(a) == expected, a
            seen.add(expected)
        assert seen == {True, False}

    def test_centrosymmetric(self):
        s = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])
        assert is_centrosymmetric(s)
        assert not is_centrosymmetric(Matrix([[1, 0], [1, 0]]))
        assert is_centrosymmetric(Matrix([["1/3", "1/3"], ["1/3", "1/3"]]))


def equal_but_not_identical(x):
    # a Fraction equal to x but built apart, as Fraction(2, 4) is to Fraction(1, 2)
    y = Fraction(3 * x.numerator, 3 * x.denominator)
    assert y == x and y is not x
    return y


def centro_cases(rng, m, n):
    # seeded m x n matrices on both sides of the half-turn test: mirrored
    # rows whose equal entries are shared or built apart, and the same with
    # one entry changed
    pool = [Fraction(0), Fraction(1), HALF, Fraction(1, 3), Fraction(-2, 7)]
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    for i in range((m + 1) // 2):
        for j in range(n):
            x = rows[i][j]
            rows[m - 1 - i][n - 1 - j] = x if rng.random() < 0.5 else equal_but_not_identical(x)
    yield Matrix(rows)
    i, j = rng.randrange(m), rng.randrange(n)
    rows[i][j] += rng.choice((1, Fraction(1, 2**100)))
    yield Matrix(rows)
    yield Matrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)])


class TestCentrosymmetricIsTheDefinition:
    """is_centrosymmetric(a) is a == rotate_pi(a): row i against row m+1-i
    reversed, whole tuples at a time."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_seeded_matrices(self, m):
        rng = random.Random(7100 + m)
        seen = set()
        for n in range(1, 8):
            for _ in range(6):
                for a in centro_cases(rng, m, n):
                    expected = a == rotate_pi(a)
                    assert is_centrosymmetric(a) == expected, a
                    seen.add(expected)
        assert seen == {True, False}

    def test_shared_and_separately_built_halves(self):
        assert Fraction(1, 2) is not Fraction(2, 4)
        for a in (Matrix([[HALF, HALF]]), Matrix([[Fraction(1, 2), Fraction(2, 4)]]),
                  Matrix([[1, "1/2"], ["2/4", 1]])):
            assert is_centrosymmetric(a) and a == rotate_pi(a)
        assert not is_centrosymmetric(Matrix([[HALF, Fraction(2, 3)]]))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (6, 5)])
    def test_face_patterns_and_unit_matrices(self, m, n):
        rng = random.Random(31 * m + n)
        for _ in range(8):
            pattern = FacePattern(random_supported_pattern(rng, m, n))
            cover = FacePattern(pattern_or_rotation(pattern))
            for p in (pattern, cover, pattern.meet(pattern.rotate_pi())):
                assert is_centrosymmetric(p) == (p == rotate_pi(p))
            cols = tuple(rng.randint(1, n) for _ in range(m - m % 2))
            mirrored = cols[: m // 2] + tuple(n + 1 - c for c in reversed(cols[: m // 2]))
            center = rng.randint(1, n) if m % 2 else None
            for a in (_unit_matrix(cols, n, center), _unit_matrix(mirrored, n, center)):
                assert is_centrosymmetric(a) == (a == rotate_pi(a))
            assert is_centrosymmetric(_unit_matrix(mirrored, n, center))


class TestRowInts:
    """`_row_ints(row)` is (d, nums) with d the lcm of the row's
    denominators and nums[j] / d == row[j]."""

    def test_seeded_rows(self):
        rng = random.Random(1709)
        for _ in range(400):
            n = rng.randint(1, 8)
            bits = rng.choice((3, 30, 100))
            row = tuple(
                Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
                if rng.random() < 0.8 else Fraction(0)
                for _ in range(n)
            )
            d, nums = _row_ints(row)
            assert d == math.lcm(*[x.denominator for x in row])
            assert len(nums) == n and all(type(v) is int for v in nums)
            assert all(Fraction(v, d) == x for v, x in zip(nums, row))

    def test_examples(self):
        assert _row_ints((Fraction(1, 2), Fraction(-1, 3), Fraction(0))) == (6, [3, -2, 0])
        assert _row_ints((Fraction(5),)) == (1, [5])
        big = Fraction(2**100 + 1, 2**100)
        assert _row_ints((big, Fraction(1, 3))) == (3 * 2**100, [3 * (2**100 + 1), 2**100])


class TestRectPermMatrix:
    def test_to_matrix(self):
        r = RectPermMatrix([2, 1], 3)
        assert r.to_matrix() == Matrix([[0, 1, 0], [1, 0, 0]])

    def test_from_matrix_roundtrip(self):
        r = RectPermMatrix([3, 3, 1], 4)
        assert RectPermMatrix.from_matrix(r.to_matrix()) == r

    @pytest.mark.parametrize("cols, n", [((1,), 1), ((2, 1), 3), ((3, 3, 1), 4), ((1, 4, 2, 2, 3), 4)])
    def test_is_its_own_vertex_key(self, cols, n):
        # the key (cols, ncols, None) of its matrix, which holds it as is
        assert issubclass(RectPermMatrix, core._Vertex)
        r = RectPermMatrix(cols, n)
        assert r == _vertex(cols, n) and hash(r) == hash(_vertex(cols, n))
        assert _vertex_of(r.to_matrix()) is r
        assert _vertex_of(Matrix(r.to_matrix().entries)) == r
        assert r.shape == (len(cols), n) == r.to_matrix().shape

    @pytest.mark.parametrize(
        "build",
        [lambda: RectPermMatrix._make(((5,), 2, None)),
         lambda: RectPermMatrix._make(((1, 2), 2, 1)),
         lambda: RectPermMatrix([1, 2], 2)._replace(center=1),
         lambda: RectPermMatrix([1, 2], 2)._replace(cols=(1, 3))],
        ids=["make-column", "make-center", "replace-center", "replace-column"],
    )
    def test_tuple_constructors_refuse_what_the_constructor_refuses(self, build):
        # a column out of range, or any centre: a RectPermMatrix has none
        with pytest.raises(ShapeError):
            build()

    def test_replace_builds_through_the_constructor(self):
        r = RectPermMatrix([1, 2], 2)._replace(cols=(2, 2, 1))
        assert type(r) is RectPermMatrix and r == RectPermMatrix([2, 2, 1], 2)
        assert r.shape == (3, 2) and r.nrows == 3 and len(r) == 3
        assert RectPermMatrix._make(((2, 1), 3, None)) == RectPermMatrix([2, 1], 3)

    def test_from_matrix_rejects_bad_rows(self):
        with pytest.raises(PatternError):
            RectPermMatrix.from_matrix(Matrix([[1, 1]]))
        with pytest.raises(PatternError):
            RectPermMatrix.from_matrix(Matrix([["1/2", "1/2"]]))
        with pytest.raises(PatternError):
            RectPermMatrix.from_matrix(Matrix([[0, 0]]))

    def test_column_range_checked(self):
        with pytest.raises(ShapeError):
            RectPermMatrix([3], 2)
        with pytest.raises(ShapeError):
            RectPermMatrix([0], 2)
        with pytest.raises(ShapeError):
            RectPermMatrix([], 2)
        with pytest.raises(ShapeError):
            RectPermMatrix([1], 0)

    @pytest.mark.parametrize("cols", [[2.7, 1], [True, 2], [2.0]], ids=repr)
    def test_float_and_bool_columns_refused(self, cols):
        with pytest.raises(TypeError):
            RectPermMatrix(cols, 3)

    @pytest.mark.parametrize("ncols", [2.5, 2.0, True], ids=repr)
    def test_float_and_bool_ncols_refused(self, ncols):
        # 2.5 used to construct and fail only in to_matrix; True meant 1
        with pytest.raises(TypeError):
            RectPermMatrix([1], ncols)

    def test_rotate(self):
        r = RectPermMatrix([1, 1, 2, 4], 4)
        assert r.rotate_pi().row_to_col == (1, 3, 4, 4)
        assert r.rotate_pi().to_matrix() == rotate_pi(r.to_matrix())

    def test_is_centrosymmetric(self):
        assert RectPermMatrix([1, 3, 2, 4], 4).is_centrosymmetric()
        assert not RectPermMatrix([1, 1, 2, 4], 4).is_centrosymmetric()

    def test_immutable(self):
        r = RectPermMatrix([1], 1)
        with pytest.raises(AttributeError):
            r.ncols = 2

    def test_shape_repr_and_equality(self):
        r = RectPermMatrix([2, 1], 3)
        assert r.shape == (2, 3)
        assert repr(r) == "RectPermMatrix([2, 1], ncols=3)"
        # a rectangular permutation matrix is not the Matrix it stands for
        assert r.__eq__(r.to_matrix()) is NotImplemented and r != r.to_matrix()


class TestConvexCombination:
    def test_duplicates_merge(self):
        a = Matrix([[1, 0]])
        b = Matrix([[0, 1]])
        comb = ConvexCombination(
            [("1/4", a), ("1/2", b), ("1/4", a)]
        )
        assert len(comb) == 2
        assert comb.terms[0] == (Fraction(1, 2), a)
        assert comb.terms[1] == (Fraction(1, 2), b)

    def test_combine_is_exact(self):
        a = Matrix([[1, 0]])
        b = Matrix([[0, 1]])
        comb = ConvexCombination([("1/3", a), ("2/3", b)])
        assert comb.combine() == Matrix([["1/3", "2/3"]])

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            ConvexCombination([("1/2", Matrix([[1]]))])

    def test_coefficients_must_be_positive(self):
        a = Matrix([[1]])
        b = Matrix([[0]])
        with pytest.raises(ValueError):
            ConvexCombination([("3/2", a), ("-1/2", b)])
        with pytest.raises(ValueError):
            ConvexCombination([(0, a), (1, b)])

    def test_shape_mix_rejected(self):
        with pytest.raises(ShapeError):
            ConvexCombination([("1/2", Matrix([[1]])), ("1/2", Matrix([[1, 0]]))])

    def test_a_centre_vertex_and_a_plain_vertex_of_one_shape_mix(self):
        # a centre row makes up for the shorter column tuple
        centre, plain = core._Vertex((1, 3), 3, 1), core._Vertex((1, 2, 3), 3, None)
        comb = ConvexCombination([("1/2", centre), ("1/2", plain)])
        assert comb.combine() == Matrix([[1, 0, 0], ["1/4", "1/2", "1/4"], [0, 0, 1]])
        assert [t.shape for _, t in comb] == [(3, 3), (3, 3)]

    def test_a_shape_mix_names_every_shape_sorted(self):
        centre = core._Vertex((1, 3), 3, 1)
        cases = [
            ([centre, core._Vertex((1, 3), 3, None)], "[(2, 3), (3, 3)]"),
            ([Matrix([[1, 0]]), centre, RectPermMatrix([1, 2], 3), centre],
             "[(1, 2), (2, 3), (3, 3)]"),
            ([_unit_matrix((2, 1), 2, 1), Matrix([["1/2", "1/2"]]), _unit_matrix((1, 1), 1)],
             "[(1, 2), (2, 1), (3, 2)]"),
        ]
        for terms, shapes in cases:
            with pytest.raises(ShapeError) as exc:
                ConvexCombination([(Fraction(1, len(terms)), t) for t in terms])
            assert str(exc.value) == f"terms mix shapes: {shapes}"

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ConvexCombination([])

    def test_immutable_and_iterable(self):
        comb = ConvexCombination([(1, Matrix([[1]]))])
        assert list(comb) == [(Fraction(1), Matrix([[1]]))]
        with pytest.raises(AttributeError):
            comb.terms = ()

    def test_a_term_is_a_matrix_or_a_rect_perm_matrix(self):
        # a RectPermMatrix is its own vertex key: it merges with its to_matrix()
        r = RectPermMatrix([2, 1], 3)
        comb = ConvexCombination([("1/4", r), ("1/2", r.to_matrix()), ("1/4", r.rotate_pi())])
        assert comb.terms == ((Fraction(3, 4), r.to_matrix()),
                              (Fraction(1, 4), r.rotate_pi().to_matrix()))
        assert comb.combine() == Matrix([[0, "3/4", "1/4"], ["3/4", "1/4", 0]])
        assert pickle.loads(pickle.dumps(comb)).terms == comb.terms
        with pytest.raises(TypeError, match="Matrix"):
            ConvexCombination([(1, [[1, 0]])])

    def test_repr(self):
        comb = ConvexCombination([("1/3", Matrix([[1, 0]])), ("2/3", Matrix([[0, 1]]))])
        assert repr(comb) == (
            "ConvexCombination([(1/3, Matrix([[1, 0]])), (2/3, Matrix([[0, 1]]))])"
        )


TINY = Fraction(1, 2**200)


def random_partition(rng, count, bits):
    # `count` positive coefficients summing to 1, over denominators of
    # about `bits` bits
    weights = [rng.getrandbits(bits) + 1 for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def spelled(rng, coeff):
    # the coefficient as a Fraction, its str, or an int when it is one
    if coeff.denominator == 1 and rng.random() < 0.5:
        return int(coeff)
    return str(coeff) if rng.random() < 0.3 else coeff


def coefficient_case(rng):
    """A seeded term list, valid or broken in one of the ways the checks
    must name: a 0, negative or 1 + 2^-200 coefficient, merged repeats above
    1, or a total off by 2^-200."""
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    pool = []
    for _ in range(rng.randint(1, 4)):
        cols = tuple(rng.randint(1, n) for _ in range(m - m % 2))
        vertex = _vertex(cols, n, rng.randint(1, n) if m % 2 else None)
        pool.append(vertex if rng.random() < 0.7 else _unit_matrix(*vertex))
    if rng.random() < 0.4:  # a term that is not an extreme point
        pool.append(Matrix([[Fraction(1, n)] * n] * m))
    keys = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
    coeffs = random_partition(rng, len(keys), rng.choice([4, 30, 300]))
    kind = rng.choice(["valid", "zero", "negative", "above-one", "repeats-above-one",
                       "total-above", "total-below"])
    last = len(keys) - 1
    if kind == "zero":
        coeffs[rng.randint(0, last)] = Fraction(0)
    elif kind == "negative":
        coeffs[rng.randint(0, last)] *= -1
    elif kind == "above-one":
        coeffs[rng.randint(0, last)] = 1 + TINY
    elif kind == "repeats-above-one":
        keys += [keys[0], keys[0]]
        coeffs += [Fraction(3, 4), Fraction(1, 2)]
    elif kind == "total-above":
        coeffs[last] += TINY
    elif kind == "total-below":
        coeffs[last] -= TINY
    return [(spelled(rng, c), key) for c, key in zip(coeffs, keys)]


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestCoefficientChecks:
    """The checks on ints accept and refuse exactly as the Fraction route in
    tests/convex_reference.py, with the same ValueError text."""

    def test_equal_the_reference(self):
        rng = random.Random(2**200 + 1)
        seen = Counter()
        for _ in range(1500):
            terms = coefficient_case(rng)

            def library():
                pairs = ConvexCombination(terms)._vertex_terms()
                return tuple((Fraction(*c), key) for c, key in pairs)

            def reference():
                merged = reference_merge(terms)
                reference_check(merged.values())
                return tuple((c, key) for key, c in merged.items())

            got, expected = outcome(library), outcome(reference)
            assert got == expected
            if type(got) is str:
                seen[got.split()[0]] += 1
            else:
                seen["accepted"] += 1
                assert all(type(c) is Fraction for c, _ in got)
        # both messages occur, and so do valid combinations
        assert min(seen["coefficient"], seen["coefficients"], seen["accepted"]) > 150

    def test_total_is_checked_on_the_reduced_sum(self):
        # 1/6 + 1/3 + 1/2: the running total reduces to 1/2, then to 1
        comb = ConvexCombination([("1/6", _vertex((1,), 3)), ("1/3", _vertex((2,), 3)),
                                  ("1/2", _vertex((3,), 3))])
        assert [Fraction(*c) for c, _ in comb._vertex_terms()] == [Fraction(1, 6), Fraction(1, 3),
                                                                  Fraction(1, 2)]
        with pytest.raises(ValueError, match=r"^coefficients sum to 5/6, not 1$"):
            ConvexCombination([("1/6", _vertex((1,), 3)), ("2/3", _vertex((2,), 3))])

    def test_decomposition_terms_need_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(85)
        term_lists = [list(decompose_stochastic(random_stochastic(rng, m, n, 10**6))
                           ._vertex_terms())
                      for m, n in [(1, 1), (1, 5), (3, 3), (6, 4), (9, 9), (12, 7)]]
        calls = Counter()
        for name in ("__add__", "__radd__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            def counting(self, other, real=getattr(Fraction, name), name=name):
                calls[name] += 1
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counting)
        for terms in term_lists:
            assert len(ConvexCombination(terms)) == len(terms)
        assert not calls


class TestVertexKeys:
    """Terms that are extreme points merge and recombine on their vertex."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mirrored_centre_columns_merge(self, n):
        cols = (1, n)
        for j in range(1, n + 1):
            comb = ConvexCombination(
                [("1/3", _vertex(cols, n, j)), ("2/3", _vertex(cols, n, n + 1 - j))]
            )
            assert len(comb) == 1
            assert comb.terms == ((Fraction(1), _unit_matrix(cols, n, j)),)

    def test_middle_centre_column_merges_with_unit_rows(self):
        comb = ConvexCombination([("1/2", _vertex((1, 3), 3, 2)), ("1/2", _vertex((1, 2, 3), 3))])
        assert len(comb) == 1
        assert comb.terms == ((Fraction(1), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),)

    @pytest.mark.parametrize("center", [None, 1])
    def test_matrix_and_vertex_terms_merge_in_first_order(self, center):
        a, b = _vertex((1, 2), 2, center), _vertex((2, 1), 2, center)
        comb = ConvexCombination(
            [("1/8", b), ("1/4", _unit_matrix(*a)), ("1/8", _unit_matrix(*b)), ("1/2", a)]
        )
        assert len(comb) == 2
        assert comb.terms == (
            (Fraction(1, 4), _unit_matrix(*b)),
            (Fraction(3, 4), _unit_matrix(*a)),
        )

    def test_terms_cannot_be_set(self):
        # before and after the first access builds them
        comb = ConvexCombination([("1/2", _vertex((1, 2), 2)), ("1/2", _vertex((2, 1), 2))])
        with pytest.raises(AttributeError):
            comb.terms = ()
        assert [c for c, _ in comb] == [Fraction(1, 2)] * 2
        with pytest.raises(AttributeError):
            comb.terms = ()

    def test_combine_equals_the_left_fold(self):
        rng = random.Random(20260819)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            terms = []
            for _ in range(rng.randint(1, 6)):
                cols = tuple(rng.randint(1, n) for _ in range(m - m % 2))
                center = rng.randint(1, n) if m % 2 else None
                vertex = _vertex(cols, n, center)
                kind = rng.randrange(3)
                if kind == 0:
                    term = vertex
                elif kind == 1:
                    term = _unit_matrix(*vertex)
                else:
                    term = Matrix([[Fraction(rng.randint(0, 3), 3) for _ in range(n)] for _ in range(m)])
                terms.append((Fraction(rng.randint(1, 9)), term))
            total = sum(c for c, _ in terms)
            comb = ConvexCombination([(c / total, term) for c, term in terms])
            coeff, mat = comb.terms[0]
            acc = mat * coeff
            for coeff, mat in comb.terms[1:]:
                acc = acc + mat * coeff
            assert comb.combine() == acc


def every_row_vertex_of(a):
    # `_vertex_of` on a key-less matrix as it read every row before it
    # stopped early: the oracle for the early stop
    cols = [core._unit_column(row) for row in a.entries]
    if None not in cols:
        return core._Vertex(tuple(cols), a.ncols, None)
    half = a.nrows // 2
    row = a.entries[half]
    if a.nrows % 2 and cols.count(None) == 1 and cols[half] is None and Fraction(1, 2) in row:
        j = row.index(Fraction(1, 2)) + 1
        if row == core._center_row(a.ncols, j):
            return core._Vertex(tuple(cols[:half] + cols[half + 1 :]), a.ncols, j)
    return None


@pytest.fixture
def unit_column_calls(monkeypatch):
    calls = []
    unit_column = core._unit_column

    def counting(row):
        calls.append(row)
        return unit_column(row)

    monkeypatch.setattr(core, "_unit_column", counting)
    return calls


class TestVertexOfStopsEarly:
    """`_vertex_of` reads rows top down up to the first one that rules a
    vertex out, with the same result as reading them all."""

    def test_a_first_row_that_is_not_a_unit_row_ends_the_read(self, unit_column_calls):
        half = Fraction(1, 2)
        a = Matrix([[half, half]] + [[1, 0]] * 999)
        assert _vertex_of(a) is None
        assert len(unit_column_calls) == 1

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_the_middle_row_of_odd_m_is_read_past(self, unit_column_calls, m):
        cols, n = tuple(range(1, m)), m + 2
        a = Matrix(_unit_matrix(cols, n, 1).entries)
        assert _vertex_of(a) == _vertex(cols, n, 1)
        assert len(unit_column_calls) == m

    def test_equals_reading_every_row(self):
        rng = random.Random(20261019)
        values = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)]
        for _ in range(3000):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            center = rng.randint(1, n) if m % 2 else None
            rows = [list(row) for row in _unit_matrix(
                [rng.randint(1, n) for _ in range(m - (center is not None))], n, center
            ).entries]
            for _ in range(rng.choice([0, 0, 1, 2])):
                rows[rng.randrange(m)][rng.randrange(n)] = rng.choice(values)
            a = Matrix(rows)
            assert _vertex_of(a) == every_row_vertex_of(a)


class TestVertexKept:
    """A vertex `_vertex_of` reads off a matrix's entries is kept in the
    matrix, so it is read once; equality, hashing and pickling still read
    the entries alone."""

    def test_check_reads_a_centre_row_vertex_once(self, run_cli, unit_column_calls):
        # both extremality predicates read the vertex of the 7x7 input
        a = _unit_matrix((1, 2, 3, 5, 6, 7), 7, 2)
        code, out, err = run_cli(["check"], format_matrix(a))
        assert (code, err) == (0, "")
        assert out == ("stochastic=true\ncentrosymmetric=true\nextreme_stochastic=false\n"
                       "extreme_centrosymmetric=true\n")
        assert len(unit_column_calls) == 7

    @pytest.mark.parametrize("center", [None, 2])
    def test_a_kept_vertex_changes_no_value(self, unit_column_calls, center):
        rows = _unit_matrix((3, 1, 2, 3), 4, center).entries
        a, b = Matrix(rows), Matrix(rows)
        assert a._key is None
        vertex = _vertex_of(a)
        assert a._key is vertex and _vertex_of(a) is vertex
        assert len(unit_column_calls) == a.nrows
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(c) is Matrix and c == a and c._key is None
        if center is None:
            assert FacePattern(a)._key is vertex

    def test_a_matrix_that_is_no_vertex_keeps_none(self):
        a = Matrix([["1/2", "1/2"], [1, 0]])
        assert _vertex_of(a) is None and a._key is None


class TestRank:
    def test_empty_family(self):
        assert rank_of_family([]) == 0

    def test_zero_matrix_has_rank_zero(self):
        assert rank_of_family([Matrix.zeros(2, 2)]) == 0

    def test_independent_pair(self):
        assert rank_of_family([Matrix.identity(2), Matrix([[0, 1], [1, 0]])]) == 2

    def test_duplicates_do_not_add_rank(self):
        a = Matrix([[1, "1/2"], [0, 1]])
        assert rank_of_family([a, a, a * 3]) == 1

    def test_dependent_triple(self):
        a = Matrix([[1, 0]])
        b = Matrix([[0, 1]])
        c = a * Fraction(1, 3) + b * Fraction(2, 3)
        assert rank_of_family([a, b, c]) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rank_of_family([Matrix([[1]]), Matrix([[1, 0]])])

    def test_rank_is_order_independent(self):
        rng = random.Random(7)
        fam = [
            Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] for _ in range(2)])
            for _ in range(6)
        ]
        base = rank_of_family(fam)
        for _ in range(5):
            rng.shuffle(fam)
            assert rank_of_family(fam) == base

    @given(st.lists(matrices(max_rows=2, max_cols=3), min_size=1, max_size=5))
    def test_rank_bounds(self, fams):
        shape = fams[0].shape
        fam = [a for a in fams if a.shape == shape]
        rank = rank_of_family(fam)
        assert 0 <= rank <= min(len(fam), shape[0] * shape[1])


P = (1 << 61) - 1


class TestRankCertificate:
    """rank_of_family eliminates int vectors without division; on full,
    deficient and repeated families, with small, negative and huge entries
    and with denominators and numerators divisible by 2^61 - 1, it equals
    the Fraction elimination of rank_reference."""

    SHAPES = [(1, 1), (1, 4), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]
    ENTRIES = {
        "small": lambda rng: Fraction(rng.randint(0, 3), rng.randint(1, 3)),
        "negative": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        "huge": lambda rng: Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**30)),
    }

    @pytest.mark.parametrize("kind", list(ENTRIES))
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_random_families_equal_the_exact_rank(self, kind, m, n):
        rng = random.Random(f"{kind}/{m}/{n}")
        entry = self.ENTRIES[kind]
        for _ in range(25):
            size = rng.randint(1, m * n + 2)
            family = [Matrix([[entry(rng) for _ in range(n)] for _ in range(m)]) for _ in range(size)]
            assert rank_of_family(family) == exact_rank(family)

    @pytest.mark.parametrize("kind", list(ENTRIES))
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_low_rank_families_equal_the_exact_rank(self, kind, m, n):
        # every member a combination of a few generators: deficient whenever
        # the family outnumbers them
        rng = random.Random(f"low/{kind}/{m}/{n}")
        entry = self.ENTRIES[kind]
        for _ in range(10):
            gens = [Matrix([[entry(rng) for _ in range(n)] for _ in range(m)])
                    for _ in range(rng.randint(1, max(1, m * n - 1)))]
            family = []
            for _ in range(len(gens) + rng.randint(0, 3)):
                acc = Matrix.zeros(m, n)
                for g in gens:
                    acc = acc + g * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                family.append(acc)
            assert rank_of_family(family) == exact_rank(family)

    def test_a_repeated_member(self):
        family = basis_rect(3, 4)
        assert rank_of_family(family) == len(family)
        assert rank_of_family(family + [family[2]]) == len(family)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 3), (4, 2)])
    def test_a_basis_and_one_more_stochastic_matrix(self, m, n):
        family = basis_rect(m, n) + [random_stochastic(random.Random(m * n), m, n)]
        assert rank_of_family(family) == len(family) - 1 == exact_rank(family)

    def test_the_zero_matrix_adds_no_rank(self):
        assert rank_of_family([Matrix.zeros(3, 2), Matrix([[1, 0], [0, 0], [0, 1]])]) == 1

    def test_a_denominator_divisible_by_p_takes_the_exact_route(self):
        family = [Matrix([[Fraction(1, P), 1]]), Matrix([[Fraction(3, 2 * P), 0]])]
        assert rank_of_family(family) == 2 == exact_rank(family)

    def test_a_numerator_divisible_by_p_is_not_lost(self):
        # P and 2P vanish mod p; only the exact route sees their rank
        assert rank_of_family([Matrix([[P, 0]]), Matrix([[0, 2 * P]])]) == 2
        assert rank_of_family([Matrix([[Fraction(P, 3)]])]) == 1

    # each basis family at small shapes, with the extreme points of its polytope
    DEFICIENT = [("square", n, n) for n in (2, 3, 4)] + [
        ("rect", m, n) for m, n in [(1, 2), (2, 3), (3, 3), (4, 2)]
    ] + [("centro-even", m, n) for m, n in [(2, 2), (2, 3), (4, 3)]] + [
        ("centro-odd", m, n) for m, n in [(3, 2), (3, 3), (5, 3), (3, 4)]
    ]

    @staticmethod
    def basis_and_points(name, m, n):
        if name == "square":
            return basis_square(n), [r.to_matrix() for r in enumerate_extreme_stochastic(n, n)]
        if name == "rect":
            return basis_rect(m, n), [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
        build = basis_centro_even if name == "centro-even" else basis_centro_odd
        return build(m, n), list(enumerate_extreme_centro(m, n))

    @pytest.mark.parametrize("name, m, n", DEFICIENT)
    def test_a_basis_and_one_more_extreme_point(self, name, m, n):
        basis, points = self.basis_and_points(name, m, n)
        rng = random.Random(f"{name}/{m}/{n}")
        for point in rng.sample(points, min(6, len(points))):
            family = basis + [point]
            rng.shuffle(family)
            assert rank_of_family(family) == len(family) - 1 == exact_rank(family)

    @pytest.mark.parametrize("name, m, n", DEFICIENT)
    def test_a_basis_with_one_member_repeated(self, name, m, n):
        basis, _ = self.basis_and_points(name, m, n)
        for k in range(len(basis)):
            family = basis[:]
            family.insert(len(basis) - k, basis[k])
            assert rank_of_family(family) == len(family) - 1 == exact_rank(family)

    def test_no_fraction_arithmetic(self, monkeypatch):
        # the rank eliminates ints: no Fraction is subtracted, multiplied or
        # divided, even on a deficient family (the oracle, which checks the
        # library's routes, eliminates Fractions, and is called after)
        family = basis_rect(4, 4) + [RectPermMatrix([2, 4, 1, 3], 4).to_matrix()]
        points = list(enumerate_extreme_centro(3, 3))
        points.append(Matrix([[Fraction(1, 3)] * 3] * 3))
        calls = Counter()
        for name in ("__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            def counted(*args, _name=name, _original=getattr(Fraction, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(Fraction, name, counted)
        rank = rank_of_family(family)
        monkeypatch.undo()
        verdicts = [(is_extreme_oracle(a), is_extreme_oracle(a, centro=True)) for a in points]
        assert calls == Counter()
        assert rank == len(family) - 1
        assert verdicts == [(_vertex_of(a).center is None, True) for a in points[:-1]] + [
            (False, False)
        ]

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 3), (4, 3)])
    def test_the_oracle_stays_exact(self, m, n):
        rng = random.Random(31 * m + n)
        for a in enumerate_extreme_centro(m, n):
            assert is_extreme_oracle(a, centro=True)
            assert is_extreme_oracle(a) == (_vertex_of(a).center is None)
        for _ in range(20):
            a = random_stochastic(rng, m, n)
            assert is_extreme_oracle(a) == (a.nnz() == m)


def basis_families(k):
    # the four families with k columns: the rectangular one with 14 - k rows,
    # the centrosymmetric ones with k or k + 1
    yield basis_square(k)
    yield basis_rect(14 - k, k)
    yield basis_centro_even(k + k % 2, k)
    yield basis_centro_odd(k + 1 - k % 2, k)


class TestRankLastColumnFirst:
    """`_rank` eliminates the flattened columns last to first. The rank of
    the basis families at every size from 2 to 12 still equals the Fraction
    elimination of rank_reference, and a point they span adds none."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_the_basis_families(self, k):
        rng = random.Random(k)
        for family in basis_families(k):
            assert rank_of_family(family) == len(family) == exact_rank(family)
            m, n = family[0].shape
            point = RectPermMatrix([rng.randint(1, n) for _ in range(m)], n).to_matrix()
            if is_centrosymmetric(family[0]):
                point = (point + point.rotate_pi()) * Fraction(1, 2)
            spanned = family + [point]
            rng.shuffle(spanned)
            assert rank_of_family(spanned) == len(family)

    def test_the_last_column_is_eliminated_first(self, monkeypatch):
        # the first step scales the pivot 3 against the 5 below it, not 2
        # against 4
        calls = []
        original = core.gcd

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(core, "gcd", recording)
        assert core._rank([{0: 2, 2: 3}, {0: 4, 2: 5}]) == 2
        assert calls[0] == (3, 5)


class TestRankFromVertices:
    """`rank_of_family` reads an extreme point's vector off its vertex, and
    ranks only the top ceil(m/2) rows when every member is centrosymmetric.
    Mixed with plain copies of the same points, or with a member off the
    centrosymmetric matrices, it still equals the Fraction elimination of
    rank_reference."""

    # odd m with centre rows, even m, and the plain families down to m = 1
    SHAPES = [("centro-even", 2, 2), ("centro-even", 4, 3), ("centro-even", 6, 4),
              ("centro-odd", 3, 2), ("centro-odd", 3, 3), ("centro-odd", 5, 4),
              ("centro-odd", 7, 3), ("rect", 1, 2), ("rect", 1, 3), ("rect", 3, 3),
              ("square", 3, 3)]
    CENTRO = [shape for shape in SHAPES if shape[0].startswith("centro")]

    @pytest.mark.parametrize("name, m, n", SHAPES)
    def test_plain_copies_rank_as_their_vertices(self, name, m, n):
        basis, points = TestRankCertificate.basis_and_points(name, m, n)
        copies = [Matrix(a.entries) for a in TestRankCertificate.basis_and_points(name, m, n)[0]]
        rng = random.Random(f"copies/{name}/{m}/{n}")
        mixed = [rng.choice(pair) for pair in zip(basis, copies)]
        assert rank_of_family(mixed) == rank_of_family(copies) == len(basis)
        for point in rng.sample(points, min(4, len(points))):
            family = mixed + [point, Matrix(point.entries)] + copies
            rng.shuffle(family)
            assert rank_of_family(family) == len(basis) == exact_rank(family)

    @pytest.mark.parametrize("name, m, n", CENTRO)
    def test_a_member_off_the_centrosymmetric_matrices_ranks_on_full_rows(self, name, m, n):
        # the basis spans the centrosymmetric matrices, and each extra
        # member lies off them; its top rows alone lie in the basis's span
        basis = TestRankCertificate.basis_and_points(name, m, n)[0]
        rng = random.Random(f"off/{name}/{m}/{n}")
        point = _unit_matrix((1,) * m, n)  # the first row turned has its 1 in column n
        for extra in (point, Matrix(point.entries), random_stochastic(rng, m, n)):
            assert not is_centrosymmetric(extra)
            family = basis + [extra]
            rng.shuffle(family)
            assert rank_of_family(family) == len(family) == exact_rank(family)

    def test_the_top_rows_are_kept_only_when_every_member_is_centrosymmetric(self):
        basis = [a._key for a in basis_centro_odd(5, 4)]
        # rows 1..3 of 5 are the flat indices below 12, the centre row's included
        assert max(j for v in core._integer_rows(basis, (5, 4)) for j in v) == 11
        full = core._integer_rows(basis + [_vertex((1, 1, 1, 1, 1), 4)], (5, 4))
        assert max(j for v in full for j in v) == 19
        # a centre row's vertex scales to 2 on its unit rows, as its copy does
        (vector,) = core._integer_rows([_vertex((1, 4), 4, 2)], (3, 4))
        assert vector == {0: 2, 5: 1, 6: 1} == core._integer_rows(
            [Matrix([[1, 0, 0, 0], [0, HALF, HALF, 0], [0, 0, 0, 1]])], (3, 4))[0]

    def test_a_one_row_family(self):
        # 1 x 3: only the middle column's point is centrosymmetric
        middle, side = _unit_matrix((2,), 3), _unit_matrix((1,), 3)
        assert rank_of_family([middle]) == rank_of_family([middle, Matrix(middle.entries)]) == 1
        assert rank_of_family([middle, side, Matrix(side.entries)]) == 2

    def test_vertex_members_build_no_fraction_and_no_dense_row(self, monkeypatch, row_builds):
        families = [basis_centro_odd(5, 4), basis_centro_even(4, 3), basis_rect(3, 3),
                    basis_square(4), list(enumerate_extreme_centro(3, 3))]
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            ranks = [rank_of_family(family) for family in families]
        assert made == [] and row_builds == []
        # the 3 x 3 centrosymmetric points span as many dimensions as that basis has members
        assert ranks == [len(family) for family in families[:4]] + [len(basis_centro_odd(3, 3))]


class TestRankMembers:
    """`rank_of_family` takes Matrix and RectPermMatrix members alike: a
    RectPermMatrix is its own vertex. Anything else is a TypeError, and a
    shape mismatch a ShapeError, whichever kinds the members are."""

    def test_a_rect_perm_matrix_member(self):
        assert rank_of_family([RectPermMatrix([1, 2], 2)]) == 1

    def test_a_family_mixing_the_three_forms(self):
        basis = basis_rect(3, 3)
        perms = [RectPermMatrix(a._key.cols, 3) for a in basis]
        rng = random.Random("three forms")
        for _ in range(20):
            family = [rng.choice([r, r.to_matrix(), Matrix(a.entries)])
                      for r, a in zip(perms, basis)]
            family += rng.sample(perms, 2) + [Matrix(rng.choice(basis).entries)]
            rng.shuffle(family)
            matrices = [a.to_matrix() if isinstance(a, RectPermMatrix) else a for a in family]
            assert rank_of_family(family) == len(basis) == exact_rank(matrices)

    @pytest.mark.parametrize("member", [[1, 0], [[1, 0]], (1,), None, "10"],
                             ids=["row", "rows", "tuple", "none", "str"])
    def test_other_members_are_a_type_error(self, member):
        with pytest.raises(TypeError):
            rank_of_family([member])
        with pytest.raises(TypeError):
            rank_of_family([RectPermMatrix([1, 2], 2), member])

    def test_a_shape_mismatch_across_the_kinds(self):
        for family in ([RectPermMatrix([1, 2], 2), Matrix([[1, 0, 0]])],
                       [Matrix([[1, 0], [0, 1]]), RectPermMatrix([1], 2)],
                       [RectPermMatrix([1, 2], 2), RectPermMatrix([1, 2], 3)]):
            with pytest.raises(ShapeError):
                rank_of_family(family)


class TestSizesAreInts:
    """Every public size, position and dimension goes through core._as_int,
    so a float or a bool raises TypeError instead of standing for an int."""

    # (call, an int the call accepts): the call is made with that int's
    # float and with True in its place
    CALLS = {
        "zeros-rows": (lambda v: Matrix.zeros(v, 2), 2),
        "zeros-cols": (lambda v: Matrix.zeros(2, v), 2),
        "identity": (lambda v: Matrix.identity(v), 2),
        "at-i": (lambda v: Matrix.identity(2).at(v, 1), 1),
        "at-j": (lambda v: Matrix.identity(2).at(1, v), 1),
        "row": (lambda v: Matrix.identity(2).row(v), 1),
        "row-sum": (lambda v: Matrix.identity(2).row_sum(v), 1),
        "square": (lambda v: basis_square(v), 2),
        "rect-m": (lambda v: basis_rect(v, 3), 1),
        "rect-n": (lambda v: basis_rect(2, v), 2),
        "centro-even-m": (lambda v: basis_centro_even(v, 3), 2),
        "centro-even-n": (lambda v: basis_centro_even(2, v), 2),
        "centro-odd-m": (lambda v: basis_centro_odd(v, 3), 3),
        "centro-odd-n": (lambda v: basis_centro_odd(3, v), 2),
        "extreme-stochastic-m": (lambda v: list(enumerate_extreme_stochastic(v, 2)), 1),
        "extreme-stochastic-n": (lambda v: list(enumerate_extreme_stochastic(2, v)), 2),
        "extreme-centro-m": (lambda v: list(enumerate_extreme_centro(v, 3)), 1),
        "extreme-centro-n": (lambda v: list(enumerate_extreme_centro(2, v)), 3),
        "renumber-i": (lambda v: renumber_position(v, 1, 2), 1),
        "renumber-j": (lambda v: renumber_position(1, v, 2), 1),
        "renumber-side": (lambda v: renumber_position(1, 1, v), 2),
        "verify-dim": (lambda v: verify_basis(basis_rect(2, 3), v), 4),
        "extreme-stochastic-cap": (lambda v: list(enumerate_extreme_stochastic(2, 2, cap=v)), 4),
        "extreme-centro-cap": (lambda v: list(enumerate_extreme_centro(2, 2, cap=v)), 2),
        "face-vertices-cap": (lambda v: list(enumerate_face_vertices([[1, 1], [1, 1]], cap=v)), 4),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_an_int_is_accepted(self, name):
        call, value = self.CALLS[name]
        call(value)

    @pytest.mark.parametrize("kind", ["float", "bool"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_a_float_or_a_bool_is_refused(self, name, kind):
        call, value = self.CALLS[name]
        with pytest.raises(TypeError):
            call(float(value) if kind == "float" else True)

    @pytest.mark.parametrize("cap", [2.5, True], ids=["2.5", "True"])
    @pytest.mark.parametrize("name", ["extreme-stochastic-cap", "extreme-centro-cap",
                                      "face-vertices-cap"])
    def test_a_cap_that_is_no_count_is_refused(self, name, cap):
        # compared as given, cap=4.5 would let a face of 4 vertices through
        # and cap=True would read "exceeds the cap of True"
        with pytest.raises(TypeError):
            self.CALLS[name][0](cap)


def assert_carries_its_vertex(a):
    # `a` is a Matrix built from its vertex: equal to the same entries built
    # plainly, with the vertex read back the key-less way, and immutable
    plain = Matrix(a.entries)
    assert plain._key is None
    assert a == plain and hash(a) == hash(plain)
    assert a._key is not None
    assert _vertex_of(a) == _vertex_of(plain)
    for name in ("nrows", "ncols", "entries", "_key"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


class TestCarriedVertex:
    """Every extreme point built from its vertex carries the canonical
    vertex that its entries read back to."""

    SHAPES = [(1, 1), (1, 4), (2, 1), (2, 3), (3, 1), (3, 3), (3, 4), (4, 2), (5, 3), (4, 5)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_enumerated_points(self, m, n):
        for a in enumerate_extreme_centro(m, n):
            assert_carries_its_vertex(a)
        for r in enumerate_extreme_stochastic(m, n):
            assert_carries_its_vertex(r.to_matrix())

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_face_vertices(self, m, n):
        rng = random.Random(97 * m + n)
        for _ in range(4):
            pattern = random_supported_pattern(rng, m, n)
            centro = pattern_or_rotation(pattern)
            for a in enumerate_extreme_centro(m, n, pattern=centro):
                assert_carries_its_vertex(a)
            for r in enumerate_extreme_stochastic(m, n, pattern=pattern):
                assert_carries_its_vertex(r.to_matrix())
            for a in enumerate_face_vertices(pattern):
                assert_carries_its_vertex(a)
            for a in enumerate_face_vertices(centro, centro=True):
                assert_carries_its_vertex(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_every_centre_column(self, m, n):
        # centre columns j and n+1-j give one matrix and one vertex; for odd
        # n the middle column's centre row is a unit row
        rng = random.Random(m * n)
        top = tuple(rng.randint(1, n) for _ in range(m // 2))
        cols = top + tuple(n + 1 - c for c in reversed(top))
        for j in range(1, n + 1):
            a = _unit_matrix(cols, n, j)
            assert_carries_its_vertex(a)
            assert a == _unit_matrix(cols, n, n + 1 - j)
            assert _vertex_of(a) == _vertex_of(_unit_matrix(cols, n, n + 1 - j))

    @pytest.mark.parametrize(
        "family",
        [basis_square(2), basis_square(3), basis_square(4), basis_rect(1, 2), basis_rect(3, 4),
         basis_rect(4, 3), basis_centro_even(2, 2), basis_centro_even(4, 5),
         basis_centro_even(6, 4), basis_centro_odd(3, 2), basis_centro_odd(3, 5),
         basis_centro_odd(5, 4)],
        ids=lambda family: f"{len(family)}x{family[0].nrows}x{family[0].ncols}",
    )
    def test_basis_members(self, family):
        for a in family:
            assert_carries_its_vertex(a)

    def test_a_face_pattern_adopts_the_key_with_the_rows(self):
        a = _unit_matrix((2, 1, 2), 2)
        p = FacePattern(a)
        assert p.entries is a.entries and _vertex_of(p) == _vertex_of(Matrix(a.entries))

    def test_the_rows_are_shared(self):
        a, b = _unit_matrix((1, 3), 3, 1), _unit_matrix((2, 3), 3, 3)
        assert a.entries[1] is b.entries[1] and a.entries[2] is b.entries[2]


def round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


class TestPickleAndCopy:
    """pickle, copy.copy and copy.deepcopy rebuild each immutable value
    through its constructor: equal, hash-equal, of the same type, still
    immutable, and with the same vertex."""

    MATRICES = [
        Matrix([[1, "-1/2"], ["3/7", 0]]),
        _unit_matrix((2, 1, 2), 3),
        _unit_matrix((1, 3), 3, 3),
        _unit_matrix((1, 3), 3, 2),
        RectPermMatrix([3, 1], 4).to_matrix(),
    ]

    PATTERNS = [FacePattern(MATRICES[1]), FacePattern(MATRICES[4]), FacePattern([[1, 0], [1, 1]])]

    @pytest.mark.parametrize("a", MATRICES + PATTERNS, ids=repr)
    def test_matrix_and_face_pattern(self, a):
        for b in round_trips(a):
            assert type(b) is type(a)
            assert b == a and hash(b) == hash(a)
            assert _vertex_of(b) == _vertex_of(a)
            with pytest.raises(AttributeError):
                b.entries = ()

    def test_rect_perm_matrix(self):
        r = RectPermMatrix([2, 1, 2], 3)
        for b in round_trips(r):
            assert type(b) is RectPermMatrix
            assert b == r and hash(b) == hash(r)
            with pytest.raises(AttributeError):
                b.row_to_col = ()

    def test_bipartite_graph(self):
        g = BipartiteGraph(2, 2, [(1, 1), (2, 2)])
        for b in round_trips(g):
            assert type(b) is BipartiteGraph
            assert b == g and hash(b) == hash(g)
            with pytest.raises(AttributeError):
                b.edges = frozenset()

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 4), (4, 3), (5, 5)])
    def test_convex_combination(self, m, n):
        # odd m puts centre columns in the vertex keys; a hand-made term
        # that is not an extreme point is keyed by its Matrix
        rng = random.Random(m * 10 + n)
        a = Matrix([[Fraction(1, n)] * n] * m)
        # a to_matrix() term is keyed by its RectPermMatrix
        r = RectPermMatrix([rng.randint(1, n) for _ in range(m)], n)
        combs = [decompose_centrosymmetric(a),
                 ConvexCombination([("1/3", a), ("2/3", random_stochastic(rng, m, n))]),
                 ConvexCombination([("1/4", r.to_matrix()), ("3/4", r.rotate_pi().to_matrix())])]
        for comb in combs:
            for b in round_trips(comb):
                assert type(b) is ConvexCombination
                pairs = tuple(b._vertex_terms())
                assert pairs == tuple(comb._vertex_terms())
                assert hash(pairs) == hash(tuple(comb._vertex_terms()))
                assert list(b) == list(comb) and b.combine() == comb.combine()
                with pytest.raises(AttributeError):
                    b.terms = ()


class TestDerivedMatrices:
    """A matrix derived from checked ones is a plain Matrix of exact
    Fractions, equal and hash-equal to the constructor's matrix of the same
    rows, and none of its entries is converted again."""

    A = Matrix([["1/2", "1/2", 0], [0, "1/3", "2/3"]])
    B = Matrix([["1/4", 0, "3/4"], [1, 0, 0]])
    P = FacePattern([[1, 0, 1], [0, 1, 1]])
    DERIVE = {
        "rotate_pi": lambda a, b, p: rotate_pi(a),
        "method_rotate_pi": lambda a, b, p: a.rotate_pi(),
        "entrywise_min": lambda a, b, p: a.entrywise_min(b),
        "add": lambda a, b, p: a + b,
        "sub": lambda a, b, p: a - b,
        "mul": lambda a, b, p: a * 3,
        "rmul": lambda a, b, p: Fraction(1, 3) * a,
        "combine": lambda a, b, p: ConvexCombination([("1/3", a), ("2/3", b)]).combine(),
        "combine_vertices": lambda a, b, p: decompose_stochastic(a).combine(),
        "pattern_matrix": lambda a, b, p: p.matrix,
    }

    @pytest.mark.parametrize("name", DERIVE)
    def test_plain_matrix_of_fractions(self, name):
        d = self.DERIVE[name](self.A, self.B, self.P)
        assert type(d) is Matrix
        assert all(type(x) is Fraction for row in d.entries for x in row)
        rebuilt = Matrix([list(row) for row in d.entries])
        assert d == rebuilt and hash(d) == hash(rebuilt)
        assert d.shape == rebuilt.shape and d.entries == rebuilt.entries

    @pytest.mark.parametrize("name", DERIVE)
    def test_no_entry_is_converted_again(self, monkeypatch, name):
        expected = self.DERIVE[name](self.A, self.B, self.P)

        def refuse(row):
            raise AssertionError("a derived matrix converted its entries again")

        monkeypatch.setattr(core, "_rational_row", refuse)
        assert self.DERIVE[name](self.A, self.B, self.P) == expected
