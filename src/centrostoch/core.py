"""Exact rational matrices and the structural predicates shared by every module.

Every scalar handed out is a `fractions.Fraction` (or an int pair held in
its place), so every operation in this package is exact and every equality test is bit-for-bit; there are no
tolerances anywhere. Matrices, row-pattern matrices and convex combinations
are immutable values: operations return fresh objects, and instances are safe
to hash, reuse and share.

Positions are 1-based in the public API (`at(i, j)`, supports, graph edges),
matching the usual combinatorial conventions for these objects. Internal
storage is ordinary 0-based tuples.

Extreme points travel as their vertex `_Vertex(cols, ncols, center)`, with
a canonical centre column or None; a `RectPermMatrix` is such a vertex. A
convex combination keys each term that is an extreme point by its vertex,
merges and recombines on those keys, and hands out a term's Matrix, holding
only that vertex, when the terms are iterated. `_vertex_of` reads the vertex
back off a Matrix; it is the one statement of what an extreme point looks
like, and the extremality predicates read it.

The Matrix of an extreme point (`_unit_matrix`: enumerated points, basis
members, `to_matrix`, combination terms) sets one slot, `_key`, to its
vertex, and reads its shape off it until the first read of `entries` builds
its rows from cached rows that all such matrices share, sets its shape and
makes it a plain Matrix; a listing that prints from the vertex builds none.
A Matrix read from text (`_IntMatrix`) holds its rows as ints the same way.
`_row_ints` is the one integer view of a row and `_is_stochastic_row` the
one rule for a stochastic row on it; `is_stochastic` and the greedy sweep
in `decompose` check rows with both (`_int_rows` reads held ints with no
Fraction), `rank_of_family` scales rows by the first, and none of them
compares or adds a Fraction. A convex combination holds its coefficients
as reduced int pairs (`_Ratio`).
`Matrix(...)`, which converts and checks every entry, is for outside input;
matrices derived from checked ones are assembled by `_trusted`.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import starmap
from math import gcd, lcm

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CentrostochError",
    "ShapeError",
    "NotStochasticError",
    "NotCentrosymmetricError",
    "SplitError",
    "NoRowSupportError",
    "PatternError",
    "NotForestError",
    "EnumerationCapError",
    "Matrix",
    "RectPermMatrix",
    "ConvexCombination",
    "rotate_pi",
    "is_stochastic",
    "is_centrosymmetric",
    "rank_of_family",
]

DEFAULT_ENUMERATION_CAP = 10**6

_HALF = Fraction(1, 2)


class CentrostochError(Exception):
    """Base class for domain errors raised by this package."""


class ShapeError(CentrostochError):
    """Operands have missing, ragged, or incompatible dimensions."""


class NotStochasticError(CentrostochError):
    """A row-stochastic matrix was required."""


class NotCentrosymmetricError(CentrostochError):
    """A centrosymmetric input was required."""


class SplitError(CentrostochError):
    """The half-turn splitting construction was applied outside its domain."""


class NoRowSupportError(CentrostochError):
    """A face pattern without row support was given to a vertex routine."""


class PatternError(CentrostochError):
    """A (0,1) pattern with the required row structure was expected."""


class NotForestError(CentrostochError):
    """A forest graph was required."""


class EnumerationCapError(CentrostochError):
    """An enumeration would produce more items than the configured cap."""


def _to_rational(value) -> Fraction:
    # a Fraction is already in normal form and immutable: pass it through
    if type(value) is Fraction:
        return value
    # floats are rejected rather than converted: Fraction(0.1) is not 1/10,
    # and silently accepting it would poison every exactness guarantee.
    # bools are rejected too: True is an int, but never a meant entry.
    if isinstance(value, (float, bool)):
        raise TypeError(
            "float and bool entries are not allowed in exact matrices; pass a "
            "Fraction, an int, or a string such as '1/2' or '0.3'"
        )
    return Fraction(value)


def _rational_row(row: Iterable) -> tuple[Fraction, ...]:
    # read by character, the string row "10" would pass for [1, 0]
    if isinstance(row, (str, bytes, bytearray)):
        raise TypeError(f"a row must be a sequence of entries, not {type(row).__name__} {row!r}")
    return tuple(map(_to_rational, row))


def _as_int(value) -> int:
    # an index or a count: like entries, floats and bools are refused, not rounded
    if isinstance(value, bool):
        raise TypeError("bool is not allowed as an index or a count; pass an int")
    return operator.index(value)


class Matrix:
    """Immutable dense m x n matrix over the rationals.

    Rows are given as any iterable of iterables of Fraction-convertible
    values (ints, Fractions, strings like ``'7/10'``); floats raise
    TypeError. Entry access is 1-based via :meth:`at`.

    Equality and hashing read the entries alone. An extreme point built by
    `_unit_matrix` holds its vertex in the private `_key` slot, so
    `_vertex_of` reads it back in O(1), and leaves the rest unset until
    `entries` is first read (`_VertexMatrix`); on another matrix `_key` is
    None until `_vertex_of` reads a vertex off the entries and keeps it.
    """

    __slots__ = ("nrows", "ncols", "entries", "_key")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(map(_rational_row, rows))
        if not data or not data[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeError("all rows must have the same length")
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor; a carried vertex
        # is derived from the entries, so it is read off them again
        return (type(self), (self.entries,))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        nrows, ncols = _as_int(nrows), _as_int(ncols)
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        n = _as_int(n)
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def at(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j, both 1-based."""
        i, j = _as_int(i), _as_int(j)
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"position ({i}, {j}) outside {self.nrows} x {self.ncols}")
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[Fraction, ...]:
        """Row i as a tuple, 1-based."""
        i = _as_int(i)
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} outside 1..{self.nrows}")
        return self.entries[i - 1]

    def row_sum(self, i: int) -> Fraction:
        return sum(self.row(i), Fraction(0))

    def support(self) -> frozenset[tuple[int, int]]:
        """1-based positions of the nonzero entries."""
        return frozenset(
            (i + 1, j + 1)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
            if x != 0
        )

    def nnz(self) -> int:
        return sum(1 for row in self.entries for x in row if x != 0)

    def is_zero_one(self) -> bool:
        return all(x == 0 or x == 1 for row in self.entries for x in row)

    def rotate_pi(self) -> "Matrix":
        return rotate_pi(self)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        """The Matrix whose (i, j) entry is op(self's, other's (i, j) entry).

        Raises ShapeError when the two shapes differ.
        """
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        rows = zip(self.entries, other.entries)
        return _trusted(tuple(tuple(map(op, ra, rb)) for ra, rb in rows), self.ncols)

    def entrywise_min(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, min)

    def __add__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._entrywise(other, operator.add)

    def __sub__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._entrywise(other, operator.sub)

    def __mul__(self, scalar) -> "Matrix":
        c = _to_rational(scalar)
        return _trusted(tuple(tuple(x * c for x in row) for row in self.entries), self.ncols)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"{type(self).__name__}([{rows}])"


# slot setters past the immutable __setattr__, for the builders below
_new = object.__new__
_set_nrows, _set_ncols, _set_entries, _set_key = (
    getattr(Matrix, s).__set__ for s in Matrix.__slots__)


def _trusted(rows: tuple[tuple[Fraction, ...], ...], ncols: int) -> Matrix:
    """The Matrix of `rows`, which must already be a nonempty tuple of
    `ncols`-long tuples of Fractions; nothing is checked or converted."""
    a = _new(Matrix)
    _set_nrows(a, len(rows))
    _set_ncols(a, ncols)
    _set_entries(a, rows)
    _set_key(a, None)
    return a


def rotate_pi(a: Matrix) -> Matrix:
    """Half-turn rotation: entry (i, j) moves to (m+1-i, n+1-j)."""
    return _trusted(tuple(row[::-1] for row in a.entries[::-1]), a.ncols)


# Rows are immutable tuples, so every extreme point shares them. The caches
# are bounded, so at most _ROW_CACHE rows of the widest n in use stay alive.
_ROW_CACHE = 256


@functools.lru_cache(maxsize=_ROW_CACHE)
def _unit_row(n: int, c: int) -> tuple[Fraction, ...]:
    """The n-long row with 1 in column c (1-based) and 0 elsewhere."""
    zero = Fraction(0)
    return (zero,) * (c - 1) + (Fraction(1),) + (zero,) * (n - c)


@functools.lru_cache(maxsize=_ROW_CACHE)
def _center_row(n: int, j: int) -> tuple[Fraction, ...]:
    """Admissible centre row of an odd-row centrosymmetric extreme point.

    1 on the middle column when column j (1-based) is it, otherwise 1/2 on
    columns j and n+1-j: the centre row of (R + R^pi) / 2 when R puts its
    centre 1 in column j.
    """
    if j == n + 1 - j:
        return _unit_row(n, j)
    row = [Fraction(0)] * n
    row[j - 1] = row[n - j] = _HALF
    return tuple(row)


def _unit_matrix(cols: Sequence[int], n: int, center: int | None = None) -> Matrix:
    """The (0,1) matrix with n columns whose row i has its 1 in column cols[i].

    Columns are 1-based. With `center` given, the admissible centre row
    `_center_row(n, center)` is inserted as the middle row, so an even-length
    tuple becomes an odd-row extreme point of the centrosymmetric polytope.
    The matrix holds only its canonical vertex (`_keyed`).
    """
    return _keyed(_vertex(cols, n, center))


def _keyed(key: _Vertex) -> Matrix:
    """The Matrix of the canonical vertex `key` in O(1), `_key` its one set
    slot: its rows are built from the key on the first read of `entries`
    (`_VertexMatrix`)."""
    a = _new(_VertexMatrix)
    _set_key(a, key)
    return a


def _held(rows: tuple[tuple[int, ...], ...], ncols: int, values: list[tuple[int, int]]) -> Matrix:
    """The `_IntMatrix` whose entry (i, j) is values[rows[i][j]], each value
    a distinct reduced (num, den) pair, den > 0, that some entry has; `rows`
    must be a nonempty tuple of `ncols`-long tuples. Nothing is checked."""
    a = _new(_IntMatrix)
    _set_nrows(a, len(rows))
    _set_ncols(a, ncols)
    nums, dens = zip(*values)
    _set_key(a, (rows, nums, dens))
    return a


class _LazyMatrix(Matrix):
    """A Matrix before its rows are read: `__getattr__` runs on unset slots
    only, builds `entries` and the shape from `_key` (`_build`) and makes
    the object a plain Matrix, so no other Matrix pays for the hook. It
    names, reprs and pickles itself as a Matrix."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "entries":
            if name == "nrows" or name == "ncols":  # unset only on a `_VertexMatrix`
                return self._key.shape[name == "ncols"]
            raise AttributeError(f"'Matrix' object has no attribute {name!r}", name=name, obj=self)
        rows, key = self._build()
        _set_nrows(self, len(rows))
        _set_ncols(self, len(rows[0]))
        _set_entries(self, rows)
        _set_key(self, key)
        object.__setattr__(self, "__class__", Matrix)
        return rows

    def __reduce__(self):
        return (Matrix, (self.entries,))


class _VertexMatrix(_LazyMatrix):
    """An extreme point's Matrix: `_key` is its vertex, and stays."""

    __slots__ = ()

    def _build(self):
        key = self._key
        rows = [_unit_row(key.ncols, c) for c in key.cols]
        if key.center is not None:
            rows.insert(len(rows) // 2, _center_row(key.ncols, key.center))
        return tuple(rows), key


class _IntMatrix(_LazyMatrix):
    """A Matrix read from text (`_held`): `_key` is (rows, nums, dens),
    each row a tuple of indices of distinct values nums[k] / dens[k]. The
    entries take one Fraction per value, and `_key` becomes None;
    `support()` and `is_zero_one()` read no entry."""

    __slots__ = ()

    def _build(self):
        rows, nums, dens = self._key
        values = list(map(Fraction, nums, dens))
        return tuple([tuple([values[k] for k in row]) for row in rows]), None

    def support(self) -> frozenset[tuple[int, int]]:
        rows, nums, _ = self._key
        return frozenset(
            (i + 1, j + 1) for i, row in enumerate(rows) for j, k in enumerate(row) if nums[k]
        )

    def is_zero_one(self) -> bool:
        # every value is some entry's
        _, nums, dens = self._key
        return all(d == 1 and 0 <= n <= 1 for n, d in zip(nums, dens))


def _unit_column(row: Sequence[Fraction]) -> int | None:
    """The inverse of `_unit_matrix` on one row: the 1-based column of the
    row's one 1 when its other entries are all 0, else None."""
    if row.count(1) == 1 and row.count(0) == len(row) - 1:
        return row.index(1) + 1
    return None


def _rotated(cols: Sequence[int], n: int) -> tuple[int, ...]:
    """Column tuple of the half-turn rotation of `_unit_matrix(cols, n)`:
    the rows reversed, column c becoming n + 1 - c. Applied to the bottom
    half of a tuple it gives the top half's mirror images."""
    return tuple(map((n + 1).__sub__, reversed(cols)))


class _Vertex(namedtuple("_Vertex", "cols ncols center")):
    """The key of the extreme point `_unit_matrix(cols, ncols, center)`:
    `cols` a tuple of ints, `ncols` an int, `center` an int or None.

    Built by `_vertex` or `_vertex_of`, which keep `center` canonical, so
    two keys are equal exactly when their matrices are.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        """The matrix's (rows, columns): a centre adds a row."""
        return (len(self.cols) + (self.center is not None), self.ncols)


# _Vertex._make without its length check: a key from a (cols, ncols, center) tuple
_new_vertex = functools.partial(tuple.__new__, _Vertex)


def _vertex(cols: Sequence[int], n: int, center: int | None = None) -> _Vertex:
    """Canonical key of `_unit_matrix(cols, n, center)`.

    Centre columns j and n+1-j give the same centre row, so the key keeps
    the smaller; the middle column's centre row is a unit row, so it joins
    the column tuple instead.
    """
    cols = tuple(cols)
    if center is not None:
        center = min(center, n + 1 - center)
        if center == n + 1 - center:
            half = len(cols) // 2
            cols, center = cols[:half] + (center,) + cols[half:], None
    return _Vertex(cols, n, center)


def _vertex_of(a: Matrix) -> _Vertex | None:
    """The key of `a` when it is a matrix `_unit_matrix` builds, else None.

    A matrix `_unit_matrix` built carries its key, which is returned as it
    is; any other matrix has its key read off its entries, top down, up to
    the first row that rules a vertex out: a row other than a unit row,
    except the middle row of an odd row count, which may be a centre row.
    A key read off the entries is kept in `a`, so it is read once.
    """
    key = a._key
    if isinstance(key, _Vertex):
        return key
    half = a.nrows // 2
    # the one row that may be other than a unit row: the middle of odd m
    middle = half if a.nrows % 2 else None
    cols = []
    for i, row in enumerate(a.entries):
        col = _unit_column(row)
        if col is None and i != middle:
            return None
        cols.append(col)
    if None not in cols:
        key = _Vertex(tuple(cols), a.ncols, None)
    else:
        row = a.entries[half]
        j = row.index(_HALF) + 1 if _HALF in row else None
        if j is None or row != _center_row(a.ncols, j):
            return None
        key = _Vertex(tuple(cols[:half] + cols[half + 1 :]), a.ncols, j)
    _set_key(a, key)
    return key


def _row_ints(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, nums): d is the lcm of the row's own denominators and
    nums[j] / d == row[j]. One lcm shared by all rows would not do: on rows
    with unrelated 30-bit denominators it grows to tens of thousands of bits
    and makes the greedy sweep slower than Fraction arithmetic tenfold."""
    d = lcm(*[x.denominator for x in row])
    return d, [x.numerator * (d // x.denominator) for x in row]


def _int_rows(a: Matrix) -> Iterator[tuple[int, list[int]]]:
    """The `_row_ints` of a's rows, top down and lazily; an `_IntMatrix`
    gives them off its held ints, building no Fraction."""
    if type(a) is not _IntMatrix:
        return map(_row_ints, a.entries)
    rows, nums, dens = a._key

    def ints(row: tuple[int, ...]) -> tuple[int, list[int]]:
        d = lcm(*{dens[k] for k in row})
        return d, [nums[k] * (d // dens[k]) for k in row]

    return map(ints, rows)


def _is_stochastic_row(d: int, nums: list[int]) -> bool:
    """The stochastic-row rule on a row's `_row_ints` (d, nums): no num is
    negative, and the nums sum to d."""
    return min(nums) >= 0 and sum(nums) == d


def is_stochastic(a: Matrix) -> bool:
    """True iff every entry is nonnegative and every row sums to exactly 1."""
    return all(starmap(_is_stochastic_row, _int_rows(a)))


def is_centrosymmetric(a: Matrix) -> bool:
    """True iff the matrix equals its half-turn rotation: row i is row
    m+1-i reversed. An `_IntMatrix`'s rows index distinct values, so they
    compare as the entries do."""
    e = a._key[0] if type(a) is _IntMatrix else a.entries
    return all(e[i] == e[-1 - i][::-1] for i in range((a.nrows + 1) // 2))


class RectPermMatrix(_Vertex):
    """Rectangular permutation matrix: a (0,1)-matrix with one 1 per row.

    Stored compactly as the 1-based column of each row's single 1. There is
    no constraint across rows, so an m x n instance exists for every one of
    the n^m column assignments.

    An instance is the vertex key `(cols, ncols, None)` of its matrix, so it
    compares and hashes as that key, and `len()` is the key's length, 3;
    `row_to_col` is its `cols`. The tuple constructors `_make` and
    `_replace` go through the checked constructor, and a centre other than
    None is a ShapeError.
    """

    __slots__ = ()

    def __new__(cls, row_to_col: Sequence[int], ncols: int) -> "RectPermMatrix":
        cols = tuple(map(_as_int, row_to_col))
        ncols = _as_int(ncols)
        if not cols:
            raise ShapeError("a matrix needs at least one row")
        if ncols < 1:
            raise ShapeError("a matrix needs at least one column")
        for c in cols:
            if not 1 <= c <= ncols:
                raise ShapeError(f"column {c} outside 1..{ncols}")
        return _new_rect_perm((cols, ncols, None))

    @classmethod
    def _make(cls, iterable) -> "RectPermMatrix":
        # namedtuple's `_replace` builds its result through `_make` too
        cols, ncols, center = iterable
        if center is not None:
            raise ShapeError("a rectangular permutation matrix has no centre row")
        return cls(cols, ncols)

    row_to_col = _Vertex.cols

    def __reduce__(self):
        return (RectPermMatrix, (self.row_to_col, self.ncols))

    @property
    def nrows(self) -> int:
        return len(self.cols)

    @classmethod
    def from_matrix(cls, a: Matrix) -> "RectPermMatrix":
        """Read a rectangular permutation matrix off a Matrix.

        Raises PatternError when some entry is not 0/1 or some row does not
        have exactly one 1.
        """
        cols = [_unit_column(row) for row in a.entries]
        if None in cols:
            raise PatternError(f"row {cols.index(None) + 1} does not carry exactly one 1")
        return cls(cols, a.ncols)

    def to_matrix(self) -> Matrix:
        return _keyed(self)

    def rotate_pi(self) -> "RectPermMatrix":
        return _new_rect_perm((_rotated(self.cols, self.ncols), self.ncols, None))

    def is_centrosymmetric(self) -> bool:
        return self.cols == _rotated(self.cols, self.ncols)

    def __repr__(self) -> str:
        return f"RectPermMatrix({list(self.cols)}, ncols={self.ncols})"


# the RectPermMatrix of a (cols, ncols, None) tuple whose cols is a nonempty
# tuple of ints in 1..ncols; nothing is checked
_new_rect_perm = functools.partial(tuple.__new__, RectPermMatrix)


class _Ratio(namedtuple("_Ratio", "num den")):
    """num / den reduced, den > 0, as a Fraction holds it; it prints as that
    Fraction does."""

    __slots__ = ()

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


# _Ratio._make without its length check: the ratio of a reduced (num, den) tuple
_new_ratio = functools.partial(tuple.__new__, _Ratio)


def _ratio_sum(x: _Ratio, y: _Ratio) -> _Ratio:
    """x + y, reduced."""
    n, d = x.num * y.den + y.num * x.den, x.den * y.den
    g = gcd(n, d)
    return _new_ratio((n // g, d // g))


class ConvexCombination:
    """Convex combination of equally shaped matrices.

    Terms are (coefficient, matrix) pairs. Construction merges repeated
    matrices by adding their coefficients (first occurrence fixes the order),
    then requires every merged coefficient to lie in (0, 1] and the total to
    be exactly 1. Coefficients are held and checked as reduced int pairs
    (`_Ratio`, as the decompositions give them; any other coefficient is
    converted): a coefficient n/d needs 0 < n <= d, and the total is
    reduced after each addition, as Fraction addition reduces it. The
    partial sums of a greedy decomposition are its breakpoints, so that
    total stays as small as its terms. (One common denominator of all
    coefficients would not: their lcm grows with every unrelated
    denominator.) `terms`, iteration, `combine()`, repr and pickling build
    the coefficients' Fractions.

    A term that is an extreme point, whether given as a Matrix or as its
    vertex (a `RectPermMatrix`, or the decompositions' `_Vertex`), is keyed
    by its vertex: merging hashes a few ints instead of every entry, and
    `combine()` adds each coefficient into one cell per row. The term
    matrices are made once, on the first access to `terms` or the first
    iteration; a vertex's matrix holds only the vertex until its entries
    are read.
    """

    __slots__ = ("_coeffs", "_keys", "_shape", "_terms")

    def __init__(self, terms: Iterable[tuple]) -> None:
        merged: dict[_Vertex | Matrix, _Ratio] = {}
        for coeff, term in terms:
            if isinstance(term, _Vertex):
                key = term
            elif isinstance(term, Matrix):
                key = _vertex_of(term) or term
            else:
                raise TypeError("terms must pair a coefficient with a Matrix or a RectPermMatrix")
            if type(coeff) is not _Ratio:
                coeff = _to_rational(coeff)
                coeff = _new_ratio((coeff.numerator, coeff.denominator))
            previous = merged.get(key)
            merged[key] = coeff if previous is None else _ratio_sum(previous, coeff)
        if not merged:
            raise ShapeError("a convex combination needs at least one term")
        # a vertex's shape is read off its fields, with no Python call per key
        shapes = {(len(key.cols) + (key.center is not None), key.ncols)
                  if isinstance(key, _Vertex) else key.shape for key in merged}
        if len(shapes) != 1:
            raise ShapeError(f"terms mix shapes: {sorted(shapes)}")
        # on ints: the exact total tn / td, reduced after each step as
        # Fraction addition reduces it
        tn, td = 0, 1
        for coeff in merged.values():
            n, d = coeff
            if not 0 < n <= d:
                raise ValueError(f"coefficient {coeff} outside (0, 1]")
            g = gcd(td, d)
            if g == 1:
                tn, td = tn * d + n * td, td * d
            else:
                s = td // g
                t = tn * (d // g) + n * s
                g2 = gcd(t, g)
                tn, td = t // g2, s * (d // g2)
        if tn != td:
            raise ValueError(f"coefficients sum to {_new_ratio((tn, td))}, not 1")
        object.__setattr__(self, "_keys", tuple(merged))
        object.__setattr__(self, "_shape", shapes.pop())
        object.__setattr__(self, "_coeffs", tuple(merged.values()))
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ConvexCombination is immutable")

    def __reduce__(self):
        return (ConvexCombination, (tuple(zip(starmap(Fraction, self._coeffs), self._keys)),))

    @property
    def terms(self) -> tuple[tuple[Fraction, Matrix], ...]:
        """The merged (coefficient, Matrix) pairs, in first-occurrence order."""
        if self._terms is None:
            terms = tuple(
                (Fraction(*c), key if isinstance(key, Matrix) else _keyed(key))
                for c, key in zip(self._coeffs, self._keys)
            )
            object.__setattr__(self, "_terms", terms)
        return self._terms

    def _vertex_terms(self) -> Iterator[tuple[_Ratio, _Vertex | Matrix]]:
        """(coefficient, vertex) pairs in order, each coefficient a `_Ratio`,
        building no matrix and no Fraction; a term that is not an extreme
        point (never one of a decomposition) comes as its Matrix."""
        return zip(self._coeffs, self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple[Fraction, Matrix]]:
        return iter(self.terms)

    def combine(self) -> Matrix:
        """Evaluate the combination exactly.

        A vertex adds its coefficient to one cell per row (half of it to
        each of a centre row's two cells); any other term adds its scaled
        nonzero entries.
        """
        m, n = self._shape
        acc = [[Fraction(0)] * n for _ in range(m)]
        for coeff, key in zip(starmap(Fraction, self._coeffs), self._keys):
            if isinstance(key, Matrix):
                for row, entries in zip(acc, key.entries):
                    for j, x in enumerate(entries):
                        if x:
                            row[j] += coeff * x
                continue
            rows = acc
            if key.center is not None:
                half = m // 2
                rows = acc[:half] + acc[half + 1 :]
                share = coeff * _HALF
                acc[half][key.center - 1] += share
                acc[half][n - key.center] += share
            for row, c in zip(rows, key.cols):
                row[c - 1] += coeff
        return _trusted(tuple(map(tuple, acc)), n)

    def __repr__(self) -> str:
        inner = ", ".join(f"({c}, {m!r})" for c, m in self.terms)
        return f"ConvexCombination([{inner}])"


def _integer_rows(mats: list[Matrix]) -> list[list[int]]:
    """Each matrix flattened row-major and scaled to ints by the lcm of its
    denominators, which leaves the rank of the family unchanged.

    Every row's `_row_ints` is taken once, however many matrices share the
    row (extreme points share their rows), and a matrix whose lcm is larger
    multiplies them up.
    """
    scaled: dict[int, tuple[int, list[int]]] = {}  # id of a row of `mats` -> its _row_ints
    out = []
    for mat in mats:
        parts = []
        for row in mat.entries:
            part = scaled.get(id(row))
            if part is None:
                part = scaled[id(row)] = _row_ints(row)
            parts.append(part)
        d = lcm(*[rd for rd, _ in parts])
        out.append([x * (d // rd) for rd, ints in parts for x in ints])
    return out


def _rank(rows: list[list[int]]) -> int:
    """Rank of a nonempty list of int vectors over the rationals, by
    elimination without division.

    The columns are eliminated last to first, a permutation that leaves the
    rank alone: `basis_rect(20, 20)` ranks in 0.05 s instead of 0.9 s, and
    dense random families take the same time either way.

    Mutates its argument; callers pass throwaway copies. Columns right of
    the current one are never read again, so only the rest is updated.
    """
    nrows = len(rows)
    pivots = 0
    for col in reversed(range(len(rows[0]))):
        pivot_row = next((r for r in range(pivots, nrows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[pivots], rows[pivot_row] = rows[pivot_row], rows[pivots]
        source = rows[pivots][: col + 1]
        pivot = source[col]
        for r in range(pivots + 1, nrows):
            target = rows[r]
            factor = target[col]
            if factor:
                g = gcd(pivot, factor)
                a, b = pivot // g, factor // g
                new = [a * t - b * x for t, x in zip(target, source)]
                # a primitive row is proportional to the row of minors it
                # stands for, so its entries never exceed those minors
                g = gcd(*new)
                target[: col + 1] = [x // g for x in new] if g > 1 else new
        pivots += 1
    return pivots


def rank_of_family(family: Iterable[Matrix]) -> int:
    """Exact rank of a family of equally shaped matrices, flattened row-major.

    The empty family has rank 0. Shapes must agree. Each matrix is scaled
    to ints from its rows' `_row_ints`, and the int vectors are eliminated
    without division, each row kept primitive (its entries share no common
    factor), so no Fraction is built and no entry grows past the minors of
    the family.
    """
    mats = list(family)
    if not mats:
        return 0
    rows = _integer_rows(mats)  # first: a vertex's Matrix then holds its shape
    shape = mats[0].shape
    for mat in mats:
        if mat.shape != shape:
            raise ShapeError(f"shape mismatch: {shape} vs {mat.shape}")
    return _rank(rows)
