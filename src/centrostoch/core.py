"""Exact rational matrices and the structural predicates shared by every module.

Scalars are `fractions.Fraction` throughout, so every operation in this
package is exact and every equality test is bit-for-bit; there are no
tolerances anywhere. Matrices, row-pattern matrices and convex combinations
are immutable values: operations return fresh objects, and instances are safe
to hash, reuse and share.

Positions are 1-based in the public API (`at(i, j)`, supports, graph edges),
matching the usual combinatorial conventions for these objects. Internal
storage is ordinary 0-based tuples.

Extreme points travel as column tuples. A convex combination keys each term
that is an extreme point by its vertex (column tuple, column count and
canonical centre column), merges and recombines on those keys, and builds
the dense Matrix of a term only when the terms are iterated. `_vertex_of`
reads the vertex back off a Matrix; it is the one statement of what an
extreme point looks like, and the extremality predicates and the CLI both
read it.

The dense Matrix of an extreme point (`_unit_matrix`, behind the
enumerators, `RectPermMatrix.to_matrix` and the basis builders) is built
from cached unit and centre rows that all such matrices share, and carries
its vertex, so `_vertex_of` hands it back without reading an entry.
`_row_ints` is the one integer view of a row; `is_stochastic`, the greedy
sweep in `decompose` and `rank_of_family` all read rows through it, and
none of them compares or adds a Fraction.
`Matrix(...)`, which converts and checks every entry, is for outside input;
matrices derived from checked ones are assembled by `_trusted`.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    `_unit_matrix` shares its rows with every other such matrix and carries
    its vertex in the private `_key` slot (None on any other matrix), so
    `_vertex_of` reads it back in O(1).
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


def _trusted(rows: tuple[tuple[Fraction, ...], ...], ncols: int, key=None) -> Matrix:
    """The Matrix of `rows`, which must already be a nonempty tuple of
    `ncols`-long tuples of Fractions; nothing is checked or converted.

    `key`, when given, must be the canonical vertex (`_vertex`) of exactly
    these entries.
    """
    a = object.__new__(Matrix)
    object.__setattr__(a, "nrows", len(rows))
    object.__setattr__(a, "ncols", ncols)
    object.__setattr__(a, "entries", rows)
    object.__setattr__(a, "_key", key)
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
    This is the one place where column tuples become dense rows: shared
    cached rows, O(m) to build, and the matrix carries its canonical vertex.
    """
    key = _vertex(cols, n, center)
    rows = [_unit_row(n, c) for c in key.cols]
    if key.center is not None:
        rows.insert(len(rows) // 2, _center_row(n, key.center))
    return _trusted(tuple(rows), n, key)


def _unit_column(row: Sequence[Fraction]) -> int | None:
    """The inverse of `_unit_matrix` on one row: the 1-based column of the
    row's one 1 when its other entries are all 0, else None."""
    if row.count(1) == 1 and row.count(0) == len(row) - 1:
        return row.index(1) + 1
    return None


def _rotated(cols: Sequence[int], n: int) -> tuple[int, ...]:
    """Column tuple of the half-turn rotation of `_unit_matrix(cols, n)`."""
    return tuple(n + 1 - c for c in reversed(cols))


def _mirrored(top: Sequence[int], n: int) -> tuple[int, ...]:
    """Column tuple `top` followed by its half-turn rotation's columns."""
    return tuple(top) + _rotated(top, n)


class _Vertex(NamedTuple):
    """The key of the extreme point `_unit_matrix(cols, ncols, center)`.

    Built by `_vertex` or `_vertex_of`, which keep `center` canonical, so
    two keys are equal exactly when their matrices are.
    """

    cols: tuple[int, ...]
    ncols: int
    center: int | None


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
    is; any other matrix has its key read off its entries.
    """
    if a._key is not None:
        return a._key
    cols = [_unit_column(row) for row in a.entries]
    if None not in cols:
        return _Vertex(tuple(cols), a.ncols, None)
    half = a.nrows // 2
    row = a.entries[half]
    if a.nrows % 2 and cols.count(None) == 1 and cols[half] is None and _HALF in row:
        j = row.index(_HALF) + 1
        if row == _center_row(a.ncols, j):
            return _Vertex(tuple(cols[:half] + cols[half + 1 :]), a.ncols, j)
    return None


def _dense(key: _Vertex | Matrix) -> Matrix:
    """The Matrix of a merge key: a vertex's `_unit_matrix`, or the Matrix itself."""
    return key if isinstance(key, Matrix) else _unit_matrix(*key)


def _row_ints(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, nums): d is the lcm of the row's own denominators and
    nums[j] / d == row[j]. One lcm shared by all rows would not do: on rows
    with unrelated 30-bit denominators it grows to tens of thousands of bits
    and makes the greedy sweep slower than Fraction arithmetic tenfold."""
    d = lcm(*[x.denominator for x in row])
    return d, [x.numerator * (d // x.denominator) for x in row]


def is_stochastic(a: Matrix) -> bool:
    """True iff every entry is nonnegative and every row sums to exactly 1.

    Each row is checked on its `_row_ints` (d, nums): no num may be
    negative, and the nums must sum to d.
    """
    for row in a.entries:
        d, nums = _row_ints(row)
        if min(nums) < 0 or sum(nums) != d:
            return False
    return True


def is_centrosymmetric(a: Matrix) -> bool:
    """True iff the matrix equals its half-turn rotation: row i is row
    m+1-i reversed."""
    e = a.entries
    return all(e[i] == e[-1 - i][::-1] for i in range((a.nrows + 1) // 2))


class RectPermMatrix:
    """Rectangular permutation matrix: a (0,1)-matrix with one 1 per row.

    Stored compactly as the 1-based column of each row's single 1. There is
    no constraint across rows, so an m x n instance exists for every one of
    the n^m column assignments.
    """

    __slots__ = ("nrows", "ncols", "row_to_col")

    def __init__(self, row_to_col: Sequence[int], ncols: int) -> None:
        cols = tuple(map(_as_int, row_to_col))
        ncols = _as_int(ncols)
        if not cols:
            raise ShapeError("a matrix needs at least one row")
        if ncols < 1:
            raise ShapeError("a matrix needs at least one column")
        for c in cols:
            if not 1 <= c <= ncols:
                raise ShapeError(f"column {c} outside 1..{ncols}")
        object.__setattr__(self, "nrows", len(cols))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "row_to_col", cols)

    @classmethod
    def _trusted(cls, cols: tuple[int, ...], ncols: int) -> "RectPermMatrix":
        """The instance for a nonempty tuple of ints in 1..ncols, unchecked."""
        r = object.__new__(cls)
        object.__setattr__(r, "nrows", len(cols))
        object.__setattr__(r, "ncols", ncols)
        object.__setattr__(r, "row_to_col", cols)
        return r

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RectPermMatrix is immutable")

    def __reduce__(self):
        return (RectPermMatrix, (self.row_to_col, self.ncols))

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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_matrix(self) -> Matrix:
        return _unit_matrix(self.row_to_col, self.ncols)

    def rotate_pi(self) -> "RectPermMatrix":
        return RectPermMatrix._trusted(_rotated(self.row_to_col, self.ncols), self.ncols)

    def is_centrosymmetric(self) -> bool:
        return self.row_to_col == _rotated(self.row_to_col, self.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RectPermMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.row_to_col == other.row_to_col

    def __hash__(self) -> int:
        return hash((self.ncols, self.row_to_col))

    def __repr__(self) -> str:
        return f"RectPermMatrix({list(self.row_to_col)}, ncols={self.ncols})"


class ConvexCombination:
    """Convex combination of equally shaped matrices.

    Terms are (coefficient, matrix) pairs. Construction merges repeated
    matrices by adding their coefficients (first occurrence fixes the order),
    then requires every merged coefficient to lie in (0, 1] and the total to
    be exactly 1. Both checks run on ints: a coefficient n/d needs
    0 < n <= d, and the total is a numerator and denominator reduced after
    each addition, as Fraction addition reduces them; a Fraction is built
    only for an error message. The partial sums of a greedy decomposition
    are its breakpoints, so that total stays as small as its terms. (One
    common denominator of all coefficients would not: their lcm grows with
    every unrelated denominator.)

    A term that is an extreme point, whether given as a Matrix or (by the
    decompositions) as its vertex, is keyed by its vertex: merging hashes a
    few ints instead of every entry, and `combine()` adds each coefficient
    into one cell per row. The dense matrices are built once, on the first
    access to `terms` or the first iteration.
    """

    __slots__ = ("_coeffs", "_keys", "_shape", "_terms")

    def __init__(self, terms: Iterable[tuple]) -> None:
        merged: dict[_Vertex | Matrix, Fraction] = {}
        for coeff, term in terms:
            if type(term) is _Vertex:
                key = term
            elif isinstance(term, Matrix):
                key = _vertex_of(term) or term
            else:
                raise TypeError("terms must pair a coefficient with a Matrix")
            coeff = _to_rational(coeff)
            previous = merged.get(key)
            merged[key] = coeff if previous is None else previous + coeff
        if not merged:
            raise ShapeError("a convex combination needs at least one term")
        shapes = {
            key.shape if isinstance(key, Matrix)
            else (len(key.cols) + (key.center is not None), key.ncols)
            for key in merged
        }
        if len(shapes) != 1:
            raise ShapeError(f"terms mix shapes: {sorted(shapes)}")
        # on ints: the exact total tn / td, reduced after each step as
        # Fraction addition reduces it
        tn, td = 0, 1
        for coeff in merged.values():
            n, d = coeff.numerator, coeff.denominator
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
            raise ValueError(f"coefficients sum to {Fraction(tn, td)}, not 1")
        object.__setattr__(self, "_keys", tuple(merged))
        object.__setattr__(self, "_shape", shapes.pop())
        object.__setattr__(self, "_coeffs", tuple(merged.values()))
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ConvexCombination is immutable")

    def __reduce__(self):
        return (ConvexCombination, (tuple(zip(self._coeffs, self._keys)),))

    @property
    def terms(self) -> tuple[tuple[Fraction, Matrix], ...]:
        """The merged (coefficient, Matrix) pairs, in first-occurrence order."""
        if self._terms is None:
            object.__setattr__(
                self, "_terms", tuple(zip(self._coeffs, map(_dense, self._keys)))
            )
        return self._terms

    def _vertex_terms(self) -> Iterator[tuple[Fraction, _Vertex | Matrix]]:
        """(coefficient, vertex) pairs in order, building no matrix; a term
        that is not an extreme point (never one of a decomposition) comes as
        its Matrix."""
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
        for coeff, key in zip(self._coeffs, self._keys):
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

    Mutates its argument; callers pass throwaway copies. Columns left of
    the current one are never read again, so only the rest is updated.
    """
    nrows = len(rows)
    pivots = 0
    for col in range(len(rows[0])):
        pivot_row = next((r for r in range(pivots, nrows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[pivots], rows[pivot_row] = rows[pivot_row], rows[pivots]
        source = rows[pivots][col:]
        pivot = source[0]
        for r in range(pivots + 1, nrows):
            target = rows[r]
            factor = target[col]
            if factor:
                g = gcd(pivot, factor)
                a, b = pivot // g, factor // g
                new = [a * t - b * x for t, x in zip(target[col:], source)]
                # a primitive row is proportional to the row of minors it
                # stands for, so its entries never exceed those minors
                g = gcd(*new)
                target[col:] = [x // g for x in new] if g > 1 else new
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
    shape = mats[0].shape
    for mat in mats:
        if mat.shape != shape:
            raise ShapeError(f"shape mismatch: {shape} vs {mat.shape}")
    return _rank(_integer_rows(mats))
