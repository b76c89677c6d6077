"""Extreme points as vertex-backed matrices.

Every extreme-point Matrix the library hands out (the enumerators,
`RectPermMatrix.to_matrix`, the basis families and the terms of a
decomposition) holds only its vertex until `entries` is first read. Each
must behave exactly like `Matrix(rows)` built from reference rows, whichever
operation reads it first.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from centrostoch import (
    FacePattern,
    Matrix,
    PatternError,
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
    decompose_centrosymmetric,
    decompose_stochastic,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    enumerate_face_vertices,
)
from centrostoch.core import _integer_rows, _unit_matrix, _vertex_of
from matrixgen import random_centro_stochastic, random_stochastic

SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def built(a):
    # whether the entries slot is set, read past Matrix.__getattr__
    try:
        Matrix.entries.__get__(a, Matrix)
    except AttributeError:
        return False
    return True


def unit(n, c):
    return [Fraction(int(j == c)) for j in range(1, n + 1)]


def reference_rows(cols, n, center=None):
    # unit rows for `cols`; for a centre column j the middle row has 1/2 in
    # columns j and n+1-j (1 when they coincide)
    rows = [unit(n, c) for c in cols]
    if center is not None:
        row = [Fraction(0)] * n
        row[center - 1] += Fraction(1, 2)
        row[n - center] += Fraction(1, 2)
        rows.insert(len(rows) // 2, row)
    return rows


def stochastic_points(m, n):
    # every rectangular permutation matrix, columns in lexicographic order
    plain = enumerate_extreme_stochastic(m, n)
    cols = itertools.product(range(1, n + 1), repeat=m)
    return [(r.to_matrix(), reference_rows(c, n)) for r, c in zip(plain, cols, strict=True)]


def centro_points(m, n):
    # the top half lexicographically, the centre column fastest for odd m
    expected = []
    for top in itertools.product(range(1, n + 1), repeat=m // 2):
        bottom = tuple(n + 1 - c for c in reversed(top))
        for j in range(1, (n + 1) // 2 + 1) if m % 2 else [None]:
            expected.append(reference_rows(top + bottom, n, j))
    points = enumerate_extreme_centro(m, n)
    return list(zip(points, expected, strict=True))


def face_points(m, n):
    # the plain and the centrosymmetric face of the all-ones pattern
    ones = [[1] * n for _ in range(m)]
    plain = zip(enumerate_face_vertices(ones), stochastic_points(m, n), strict=True)
    centro = zip(enumerate_face_vertices(ones, centro=True), centro_points(m, n), strict=True)
    return [(a, rows) for a, (_, rows) in itertools.chain(plain, centro)]


def keyed_points(mats):
    # reference rows from each matrix's own vertex, read before any row is
    # built; the entry-reading route (`_vertex_of` of a plain Matrix) must
    # give the same vertex back
    points = []
    for a in mats:
        assert not built(a)
        key = _vertex_of(a)
        rows = reference_rows(key.cols, key.ncols, key.center)
        assert _vertex_of(Matrix(rows)) == key
        points.append((a, rows))
    return points


def basis_points(m, n):
    families = []
    if m == 1 and n >= 2:
        families.append(basis_square(n))
    if n >= 2:
        families.append(basis_rect(m, n))
        if m % 2 == 0:
            families.append(basis_centro_even(m, n))
        elif m >= 3:
            families.append(basis_centro_odd(m, n))
    return keyed_points(a for family in families for a in family)


def term_points(m, n):
    rng = random.Random(100 * m + n)
    mats = []
    for _ in range(3):
        for decompose, a in ((decompose_stochastic, random_stochastic(rng, m, n)),
                             (decompose_centrosymmetric, random_centro_stochastic(rng, m, n))):
            comb = decompose(a)
            mats.extend(t for _, t in comb)
            assert comb.combine() == a
    return keyed_points(mats)


SOURCES = {
    "stochastic": stochastic_points,
    "centro": centro_points,
    "face": face_points,
    "basis": basis_points,
    "terms": term_points,
}


def everywhere(a):
    return [a.at(i, j) for i in range(1, a.nrows + 1) for j in range(1, a.ncols + 1)]


def face_pattern(a):
    # the pattern, or the refusal of a point with a centre row
    try:
        return FacePattern(a)
    except PatternError as exc:
        return str(exc)


# each reads a fresh point first, and must agree with the same read of the
# reference Matrix
READS = {
    "entries": lambda a: a.entries,
    "eq": lambda a: a,
    "hash": hash,
    "repr": repr,
    "at": everywhere,
    "row": lambda a: [a.row(i) for i in range(1, a.nrows + 1)],
    "support": lambda a: a.support(),
    "nnz": lambda a: a.nnz(),
    "shape": lambda a: a.shape,
    "rotate_pi": lambda a: a.rotate_pi(),
    "pickle": lambda a: pickle.loads(pickle.dumps(a)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "face_pattern": face_pattern,
}


@pytest.mark.parametrize("read", READS, ids=list(READS))
@pytest.mark.parametrize("source", SOURCES, ids=list(SOURCES))
def test_reads_equal_the_reference(source, read):
    op = READS[read]
    for m, n in SHAPES:
        points = SOURCES[source](m, n)
        assert points or (source == "basis" and n == 1)
        for a, rows in points:
            assert not built(a), (m, n)
            expected = Matrix(rows)
            got = op(a)
            assert got == op(expected), (m, n, rows)
            assert type(got) is type(op(expected))


@pytest.mark.parametrize("source", SOURCES, ids=list(SOURCES))
def test_the_vertex_is_read_without_building_rows(source):
    for m, n in SHAPES:
        for a, rows in SOURCES[source](m, n):
            key = _vertex_of(a)
            assert key is a._key and key == _vertex_of(Matrix(rows))
            assert not built(a)
            assert a.nrows == len(rows) and a.ncols == n
            assert not built(a)


def slots_set(a):
    # the Matrix slots that hold a value, read past Matrix.__getattr__
    names = []
    for name in Matrix.__slots__:
        try:
            getattr(Matrix, name).__get__(a, Matrix)
        except AttributeError:
            continue
        names.append(name)
    return names


@pytest.mark.parametrize("source", SOURCES, ids=list(SOURCES))
def test_the_shape_is_read_off_the_vertex_until_the_rows_are_built(source):
    # a point sets `_key` alone; its shape comes from the vertex until the
    # first `entries` read sets every slot, and it agrees with the dense
    # matrix's either way, as do a pattern, a pickle, == and hash
    for m, n in SHAPES:
        for a, rows in SOURCES[source](m, n):
            expected = Matrix(rows)
            shape = (expected.nrows, expected.ncols, expected.shape)
            assert slots_set(a) == ["_key"], (m, n)
            assert (a.nrows, a.ncols, a.shape) == shape
            assert slots_set(a) == ["_key"]
            assert a.entries == expected.entries and type(a) is Matrix
            assert slots_set(a) == list(Matrix.__slots__)
            assert (a.nrows, a.ncols, a.shape) == shape
            assert a == expected and hash(a) == hash(expected)
            assert pickle.loads(pickle.dumps(a)) == expected
            assert face_pattern(a) == face_pattern(expected)


@pytest.mark.parametrize("source", SOURCES, ids=list(SOURCES))
def test_the_first_read_builds_the_rows_once(source):
    for m, n in SHAPES:
        for a, _ in SOURCES[source](m, n):
            rows = a.entries
            assert built(a) and a.entries is rows


@pytest.mark.parametrize("m, n", SHAPES)
def test_repeated_vertices_share_their_rows(m, n):
    # two enumerations give equal points whose rows are the same objects;
    # `_integer_rows` reads each point's vector off its vertex, and a plain
    # copy of the point gives the same vector from its rows
    first = list(enumerate_extreme_centro(m, n))
    second = list(enumerate_extreme_centro(m, n))
    plain = [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
    for a, b in zip(first, second, strict=True):
        assert all(x is y for x, y in zip(a.entries, b.entries, strict=True))
    for family in (first + second, plain + plain[::-1]):
        rows = [row for a in family for row in a.entries]
        assert len({id(row) for row in rows}) == len(set(rows))
        assert _integer_rows([a._key for a in family], (m, n)) == _integer_rows(
            [Matrix(a.entries) for a in family], (m, n))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_a_middle_column_centre_joins_the_columns(n):
    # the middle column's centre row is a unit row: the vertex has no centre
    middle = (n + 1) // 2
    a = _unit_matrix((1, n), n, middle)
    assert a._key.center is None and a._key.cols == (1, middle, n)
    assert a == Matrix(reference_rows((1, n), n, middle)) == Matrix(reference_rows((1, middle, n), n))


class TestOtherNames:
    """`Matrix.__getattr__` answers only `entries`; every other missing name
    raises the usual AttributeError."""

    def test_a_missing_name(self):
        a = _unit_matrix((1, 2), 2)
        with pytest.raises(AttributeError, match="^'Matrix' object has no attribute 'colums'$"):
            a.colums
        assert getattr(a, "colums", None) is None and not hasattr(a, "__deepcopy__")
        assert not built(a)

    def test_a_face_pattern_names_its_type(self):
        p = FacePattern(_unit_matrix((1, 2), 2))
        with pytest.raises(AttributeError, match="^'FacePattern' object has no attribute 'x'$"):
            p.x

    def test_an_unbuilt_point_stays_immutable(self):
        a = _unit_matrix((2, 1), 2, 1)
        for name in ("nrows", "ncols", "entries", "_key"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        assert not built(a)
