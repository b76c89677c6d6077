"""Greedy decompositions: golden traces, splitting, exactness properties."""

import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrostoch import (
    ConvexCombination,
    Matrix,
    NotCentrosymmetricError,
    NotStochasticError,
    RectPermMatrix,
    SplitError,
    decompose_centrosymmetric,
    decompose_stochastic,
    format_matrix,
    is_centrosymmetric,
    is_extreme_centro,
    is_extreme_stochastic,
    parse_matrix,
    rotate_pi,
    split_noncentrosymmetric,
)
import centrostoch.core as core_module
import centrostoch.decompose as decompose_module
import greedy_reference
from greedy_reference import (
    REFUSALS,
    decompose_centro_halves,
    reference_decompose_centrosymmetric,
    reference_decompose_stochastic,
    reference_greedy_terms,
    reference_split,
    refusal,
)
from matrixgen import random_centro_stochastic, random_stochastic

# 3 x 4 worked example: rows (1/2, 0, 1/2, 0), (3/10, 0, 0, 7/10),
# (2/5, 1/5, 2/5, 0)
WORKED = Matrix(
    [
        ["1/2", 0, "1/2", 0],
        ["3/10", 0, 0, "7/10"],
        ["2/5", "1/5", "2/5", 0],
    ]
)

S = Matrix([[1, 0, 0, 0], [0, "1/2", "1/2", 0], [0, 0, 0, 1]])

SHAPES = [(m, n) for m in range(1, 9) for n in range(1, 9)]


def stochastic_rows(count, n):
    # few small weights: zeros and equal entries (the tie-break) are common;
    # an all-zero draw becomes the uniform row
    weight = st.sampled_from((0, 0, 1, 2, 3))
    row = st.lists(weight, min_size=n, max_size=n).map(lambda r: r if any(r) else [1] * n)
    return st.lists(row, min_size=count, max_size=count).map(
        lambda rows: [[Fraction(w, sum(r)) for w in r] for r in rows]
    )


def centro_stochastic(m, n):
    def build(parts):
        top, center = parts
        rows = list(top)
        rows.extend([(r[j] + r[n - 1 - j]) / 2 for j in range(n)] for r in center)
        rows.extend(row[::-1] for row in reversed(top))
        return Matrix(rows)

    return st.tuples(stochastic_rows(m // 2, n), stochastic_rows(m % 2, n)).map(build)


class TestDecomposeStochastic:
    def test_worked_example_trace(self):
        # the greedy loop marks smallest positive entries, leftmost on ties
        comb = decompose_stochastic(WORKED)
        expected = [
            (Fraction(1, 5), RectPermMatrix([1, 1, 2], 4)),
            (Fraction(1, 10), RectPermMatrix([1, 1, 1], 4)),
            (Fraction(1, 5), RectPermMatrix([1, 4, 1], 4)),
            (Fraction(1, 10), RectPermMatrix([3, 4, 1], 4)),
            (Fraction(2, 5), RectPermMatrix([3, 4, 3], 4)),
        ]
        assert list(comb) == [(c, r.to_matrix()) for c, r in expected]
        assert comb.combine() == WORKED

    def test_worked_example_term_bound(self):
        comb = decompose_stochastic(WORKED)
        assert len(comb) <= WORKED.nnz() - WORKED.nrows + 1

    def test_certificate_combination_recombines(self):
        # independent certificate for the same matrix
        e0 = Matrix([[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        e1 = Matrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]])
        e2 = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
        e3 = Matrix([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        cert = ConvexCombination(
            [("2/5", e0), ("3/10", e1), ("1/5", e2), ("1/10", e3)]
        )
        assert cert.combine() == WORKED

    def test_extreme_input_is_a_fixed_point(self):
        r = RectPermMatrix([2, 2, 1], 3).to_matrix()
        comb = decompose_stochastic(r)
        assert list(comb) == [(Fraction(1), r)]

    def test_single_row(self):
        comb = decompose_stochastic(Matrix([["1/2", "1/2"]]))
        assert list(comb) == [
            (Fraction(1, 2), Matrix([[1, 0]])),
            (Fraction(1, 2), Matrix([[0, 1]])),
        ]

    def test_rejects_non_stochastic(self):
        with pytest.raises(NotStochasticError):
            decompose_stochastic(Matrix([[1, 1]]))

    def test_random_recombination(self):
        rng = random.Random(401)
        inputs = []
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            inputs.append(random_stochastic(rng, m, n))
        # large weights on large shapes: long breakpoint lists, big denominators
        for m, n in [(20, 20), (13, 17), (1, 20), (20, 1)]:
            inputs.append(random_stochastic(rng, m, n, max_weight=10**6))
        for a in inputs:
            comb = decompose_stochastic(a)
            assert list(comb) == list(reference_decompose_stochastic(a))
            assert comb.combine() == a
            assert sum(c for c, _ in comb) == 1
            assert all(is_extreme_stochastic(t) for _, t in comb)
            assert len(comb) <= a.nnz() - a.nrows + 1


class TestDecomposeCentroHalves:
    def test_centrosymmetric_fixed_point(self):
        comb = decompose_centro_halves(S)
        assert list(comb) == [(Fraction(1), S)]

    def test_terms_are_paired_rotations(self):
        rng = random.Random(402)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = random_centro_stochastic(rng, m, n)
            comb = decompose_centro_halves(a)
            assert comb.combine() == a
            for _, term in comb:
                assert is_centrosymmetric(term)

    def test_rejects_bad_input(self):
        with pytest.raises(NotStochasticError):
            decompose_centro_halves(Matrix([[2, -1], [-1, 2]]))
        with pytest.raises(NotCentrosymmetricError):
            decompose_centro_halves(Matrix([[1, 0], [1, 0]]))
        for rows in REFUSALS:
            a = Matrix(rows)
            expected = refusal(reference_decompose_centrosymmetric, a)
            assert expected is not None and refusal(decompose_centro_halves, a) is expected, rows


class TestSplit:
    def test_four_by_four_certificate(self):
        q1, q2 = split_noncentrosymmetric(RectPermMatrix([1, 1, 2, 4], 4))
        assert {q1, q2} == {
            RectPermMatrix([1, 3, 2, 4], 4),
            RectPermMatrix([1, 1, 4, 4], 4),
        }

    def test_four_by_five_certificate(self):
        q1, q2 = split_noncentrosymmetric(RectPermMatrix([1, 2, 2, 4], 5))
        assert {q1, q2} == {
            RectPermMatrix([1, 2, 4, 5], 5),
            RectPermMatrix([2, 4, 2, 4], 5),
        }

    def test_split_identity(self):
        rng = random.Random(403)
        for _ in range(60):
            m = 2 * rng.randint(1, 3)
            n = rng.randint(2, 5)
            r = RectPermMatrix([rng.randint(1, n) for _ in range(m)], n)
            if r.is_centrosymmetric():
                continue
            q1, q2 = split_noncentrosymmetric(r)
            assert q1 != q2
            assert q1.is_centrosymmetric() and q2.is_centrosymmetric()
            total = r.to_matrix() + r.rotate_pi().to_matrix()
            assert q1.to_matrix() + q2.to_matrix() == total

    def test_rejects_odd_row_count(self):
        with pytest.raises(SplitError):
            split_noncentrosymmetric(RectPermMatrix([1, 2, 1], 2))

    def test_rejects_centrosymmetric_input(self):
        with pytest.raises(SplitError):
            split_noncentrosymmetric(RectPermMatrix([1, 3, 2, 4], 4))

    def test_random_splits_equal_the_dense_rule(self):
        # seeded random R at every even m from 2 to 40 and n from 1 to 25,
        # with a mirrored R of each size refused: Q1 and Q2 as the dense rule
        # gives them, in that order
        rng = random.Random(2901)
        for m in range(2, 41, 2):
            for n in range(1, 26):
                top = [rng.randint(1, n) for _ in range(m // 2)]
                mirrored = RectPermMatrix(top + [n + 1 - c for c in reversed(top)], n)
                with pytest.raises(SplitError, match="^input is already centrosymmetric$"):
                    split_noncentrosymmetric(mirrored)
                for _ in range(3):
                    r = RectPermMatrix([rng.randint(1, n) for _ in range(m)], n)
                    if not r.is_centrosymmetric():
                        split = split_noncentrosymmetric(r)
                        assert type(split) is tuple and split == reference_split(r), r

    @pytest.mark.parametrize("cols", [[1], [1, 2, 1], [2, 1, 1, 2, 2]])
    def test_an_odd_row_count_is_refused_in_its_own_words(self, cols):
        with pytest.raises(SplitError, match="^splitting needs an even number of rows$"):
            split_noncentrosymmetric(RectPermMatrix(cols, 2))

    def test_every_small_split_equals_the_dense_rule(self):
        # every R up to 4 x 3: odd row counts and centrosymmetric R are
        # refused, every other R splits as the dense rule does, in order
        for m, n in itertools.product(range(1, 5), range(1, 4)):
            for cols in itertools.product(range(1, n + 1), repeat=m):
                r = RectPermMatrix(cols, n)
                if m % 2 or r.is_centrosymmetric():
                    with pytest.raises(SplitError):
                        split_noncentrosymmetric(r)
                    continue
                split = split_noncentrosymmetric(r)
                assert type(split) is tuple and split == reference_split(r), r
                assert all(type(q) is RectPermMatrix for q in split)


class TestDecomposeCentrosymmetric:
    def test_extreme_fixed_point(self):
        comb = decompose_centrosymmetric(S)
        assert list(comb) == [(Fraction(1), S)]

    def test_uniform_two_by_two(self):
        a = Matrix([["1/2", "1/2"], ["1/2", "1/2"]])
        comb = decompose_centrosymmetric(a)
        assert list(comb) == [
            (Fraction(1, 2), Matrix.identity(2)),
            (Fraction(1, 2), Matrix([[0, 1], [1, 0]])),
        ]

    def test_every_term_extreme(self):
        rng = random.Random(404)
        inputs = []
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            inputs.append(random_centro_stochastic(rng, m, n))
        # large weights on large shapes, even and odd m, even and odd n
        for m, n in [(20, 20), (21, 20), (21, 21), (1, 20)]:
            inputs.append(random_centro_stochastic(rng, m, n, max_weight=10**6))
        for a in inputs:
            comb = decompose_centrosymmetric(a)
            assert list(comb) == list(reference_decompose_centrosymmetric(a))
            assert comb.combine() == a
            for _, term in comb:
                assert is_extreme_centro(term)

    def test_odd_paired_terms_already_extreme(self):
        a = Matrix([["3/4", "1/4"], ["1/2", "1/2"], ["1/4", "3/4"]])
        comb = decompose_centrosymmetric(a)
        assert list(comb) == [
            (Fraction(1, 4), Matrix([[0, 1], ["1/2", "1/2"], [1, 0]])),
            (Fraction(3, 4), Matrix([[1, 0], ["1/2", "1/2"], [0, 1]])),
        ]

    def test_odd_split_branch_reinserts_averaged_center(self):
        # uniform rows force the split: every greedy term pairs into the
        # all-halves matrix, which is not extreme
        a = Matrix([["1/2", "1/2"], ["1/2", "1/2"], ["1/2", "1/2"]])
        comb = decompose_centrosymmetric(a)
        assert list(comb) == [
            (Fraction(1, 2), Matrix([[1, 0], ["1/2", "1/2"], [0, 1]])),
            (Fraction(1, 2), Matrix([[0, 1], ["1/2", "1/2"], [1, 0]])),
        ]

    def test_rejects_bad_input(self):
        with pytest.raises(NotStochasticError):
            decompose_centrosymmetric(Matrix([[1, 1]]))
        with pytest.raises(NotCentrosymmetricError):
            decompose_centrosymmetric(Matrix([[1, 0], [1, 0]]))
        # both routes refuse with the reference's class: a bad row anywhere,
        # and NotStochasticError before NotCentrosymmetricError
        for rows in REFUSALS:
            a = Matrix(rows)
            expected = refusal(reference_decompose_centrosymmetric, a)
            assert expected is not None and refusal(decompose_centrosymmetric, a) is expected, rows
            assert refusal(decompose_stochastic, a) is refusal(reference_decompose_stochastic, a), rows


class TestCentroSplitRoute:
    """The centrosymmetric engine splits each pair that is not yet extreme
    through `split_noncentrosymmetric`, once per split, as the reference
    does; its terms are the reference's, in order."""

    @pytest.mark.parametrize(
        "m, n",
        [(1, 1), (1, 4), (2, 1), (2, 2), (2, 5), (3, 1), (3, 4), (4, 3), (5, 5), (6, 4), (7, 2),
         (8, 7)],
    )
    def test_terms_and_splits_equal_the_reference(self, monkeypatch, m, n):
        rng = random.Random(1000 * m + n)
        inputs = [random_centro_stochastic(rng, m, n) for _ in range(6)]
        calls = {"library": 0, "reference": 0}

        def counted(key):
            def split(r):
                calls[key] += 1
                return split_noncentrosymmetric(r)
            return split

        monkeypatch.setattr(decompose_module, "split_noncentrosymmetric", counted("library"))
        monkeypatch.setattr(greedy_reference, "split_noncentrosymmetric", counted("reference"))
        for a in inputs:
            assert list(decompose_centrosymmetric(a)) == list(reference_decompose_centrosymmetric(a))
        assert calls["library"] == calls["reference"]

    def test_each_non_extreme_pair_is_split(self, monkeypatch):
        # both greedy terms of the uniform 2 x 2, (1, 1) and (2, 2), are
        # not centrosymmetric; both split into the two permutations
        seen = []

        def split(r):
            seen.append(r)
            return split_noncentrosymmetric(r)

        monkeypatch.setattr(decompose_module, "split_noncentrosymmetric", split)
        comb = decompose_centrosymmetric(Matrix([[Fraction(1, 2)] * 2] * 2))
        assert seen == [RectPermMatrix([1, 1], 2), RectPermMatrix([2, 2], 2)]
        assert len(comb) == 2

    def test_only_split_pairs_divide_their_coefficient(self, monkeypatch):
        # small weights make ties within rows, and so pairs that split
        rng = random.Random(726)
        inputs = [random_centro_stochastic(rng, m, n, max_weight)
                  for m, n in [(1, 4), (2, 5), (3, 3), (4, 4), (5, 6), (8, 5), (9, 8)]
                  for max_weight in (2, 9, 10**6)]
        calls = Counter()

        def split(r):
            calls["split"] += 1
            return split_noncentrosymmetric(r)

        def divide(self, other, real=Fraction.__truediv__):
            calls["divide"] += 1
            return real(self, other)

        monkeypatch.setattr(decompose_module, "split_noncentrosymmetric", split)
        monkeypatch.setattr(Fraction, "__truediv__", divide)
        combs = [decompose_centrosymmetric(a) for a in inputs]
        monkeypatch.undo()
        assert calls["split"] > 0 and calls["divide"] <= calls["split"]
        for a, comb in zip(inputs, combs):
            assert list(comb) == list(reference_decompose_centrosymmetric(a))


class TestMirroredSweep:
    """The centrosymmetric route sweeps only the top ceil(m/2) rows, and
    still gives the reference's terms and splits on every small shape."""

    @pytest.mark.parametrize("max_weight", [1, 2])
    def test_terms_and_splits_equal_the_reference_on_every_shape(self, monkeypatch, max_weight):
        # weights 1 and 2 leave every row uniform or nearly so on its
        # support, the most ties; odd n gives middle-column centres
        rng = random.Random(2300 + max_weight)
        inputs = [random_centro_stochastic(rng, m, n, max_weight)
                  for m in range(1, 10) for n in range(1, 9) for _ in range(2)]
        calls, splits = Counter(), 0

        def counted(key):
            def split(r):
                calls[key] += 1
                return split_noncentrosymmetric(r)
            return split

        monkeypatch.setattr(decompose_module, "split_noncentrosymmetric", counted("library"))
        monkeypatch.setattr(greedy_reference, "split_noncentrosymmetric", counted("reference"))
        for a in inputs:
            calls.clear()
            assert list(decompose_centrosymmetric(a)) == list(reference_decompose_centrosymmetric(a))
            assert calls["library"] == calls["reference"], a.shape
            splits += calls["library"]
        assert splits > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
    def test_reads_the_top_rows_only(self, monkeypatch, m):
        a = random_centro_stochastic(random.Random(m), m, 5)
        read = []

        def counted(row, real=core_module._row_ints):
            read.append(row)
            return real(row)

        monkeypatch.setattr(core_module, "_row_ints", counted)
        decompose_module._greedy_terms(a, mirrored=True)
        assert read == list(a.entries[: (m + 1) // 2])


class TestEachRowReadOnce:
    """The sweep is the decompositions' stochastic check, so each row the
    sweep needs is converted to ints once and no other row is: all m rows
    plain, the top ceil(m/2) centrosymmetric."""

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_rows_converted(self, monkeypatch, m, n):
        rng = random.Random(2400 + 10 * m + n)
        plain, centro = random_stochastic(rng, m, n), random_centro_stochastic(rng, m, n)
        read = []

        def counted(row, real=core_module._row_ints):
            read.append(row)
            return real(row)

        monkeypatch.setattr(core_module, "_row_ints", counted)
        decompose_stochastic(plain)
        assert len(read) == m
        read.clear()
        decompose_centrosymmetric(centro)
        assert len(read) == (m + 1) // 2


class TestPropertiesOnEveryShape:
    # every example draws one matrix of each shape 1..8 x 1..8, so each run
    # covers m = 1, n = 1, and odd and even m
    @settings(max_examples=2, deadline=None)
    @given(st.data())
    def test_stochastic(self, data):
        for m, n in SHAPES:
            a = data.draw(stochastic_rows(m, n).map(Matrix), label=f"{m}x{n}")
            comb = decompose_stochastic(a)
            assert comb.combine() == a
            assert all(is_extreme_stochastic(t) for _, t in comb)
            assert len(comb) <= a.nnz() - m + 1
            # one term per distinct breakpoint: a cumulative sum of some row's
            # positive entries, sorted by (value, column)
            breakpoints = {
                s for row in a.entries for s in accumulate(sorted(x for x in row if x > 0))
            }
            assert len(comb) == len(breakpoints)
            assert list(comb) == list(reference_decompose_stochastic(a))

    @settings(max_examples=2, deadline=None)
    @given(st.data())
    def test_centrosymmetric(self, data):
        for m, n in SHAPES:
            a = data.draw(centro_stochastic(m, n), label=f"{m}x{n}")
            comb = decompose_centrosymmetric(a)
            assert comb.combine() == a
            assert all(is_extreme_centro(t) for _, t in comb)
            assert list(comb) == list(reference_decompose_centrosymmetric(a))


class TestTermsStayVertices:
    """The decompositions hand vertices to ConvexCombination: `len()`,
    `combine()` and iteration build no dense rows, and reading a term's
    `entries` builds its rows once."""

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (3, 3), (4, 5), (5, 4), (6, 6)])
    def test_no_unit_matrix_before_iteration(self, row_builds, centro, m, n):
        rng = random.Random(m * 10 + n)
        a = random_centro_stochastic(rng, m, n) if centro else random_stochastic(rng, m, n)
        comb = decompose_centrosymmetric(a) if centro else decompose_stochastic(a)
        size = len(comb)
        assert comb.combine() == a
        terms = list(comb)
        assert len(terms) == size and all(t is u for t, u in zip(comb, terms))
        assert row_builds == []
        for _, term in terms:
            assert term.entries is term.entries
        assert len(row_builds) == size


def inner_sums(row):
    # a row's breakpoints before 1: cumulative sums of its sorted positive entries
    return list(accumulate(sorted(x for x in row if x > 0)))[:-1]


def float_collisions(a):
    # floats that stand for more than one distinct exact breakpoint
    exact = defaultdict(set)
    for row in a.entries:
        for s in inner_sums(row):
            exact[float(s)].add(s)
    return [f for f, values in exact.items() if len(values) > 1]


def centro_from(top, center=None):
    # top rows, their half-turn below, and for odd m an averaged centre row
    n = len(top[0]) if top else len(center)
    rows = [list(r) for r in top]
    if center is not None:
        rows.append([(center[j] + center[n - 1 - j]) / 2 for j in range(n)])
    rows.extend(r[::-1] for r in reversed(top))
    return Matrix(rows)


def colliding_row(rng, n, eps):
    # two or three positive entries whose smallest sits a few eps from a
    # simple rational (or from 0 when eps underflows), so that breakpoints
    # of different rows are distinct but equal as floats
    if eps < Fraction(1, 2**1074):
        x = rng.randint(1, 4) * eps
    else:
        x = rng.choice((Fraction(1, 3), Fraction(1, 5), Fraction(2, 7))) + rng.randint(-4, 4) * eps
    parts = [x, 1 - x]
    if n > 2 and rng.random() < 0.5:
        y = rng.choice((Fraction(1, 5), Fraction(1, 3))) + rng.randint(-2, 2) * eps
        if x + y < 1:
            parts = [x, y, 1 - x - y]
    row = [Fraction(0)] * n
    for col, part in zip(rng.sample(range(n), len(parts)), parts):
        row[col] = part
    return row


def small_weight_row(rng, n):
    weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    if not any(weights):
        weights = [1] * n
    return [Fraction(w, sum(weights)) for w in weights]


def row_over(rng, n, d):
    # a stochastic row over the denominator d, its support 1..5 columns
    k = rng.randint(1, min(n, 5))
    cuts = sorted(rng.sample(range(1, d), k - 1))
    row = [Fraction(0)] * n
    for col, a, b in zip(rng.sample(range(n), k), [0] + cuts, cuts + [d]):
        row[col] = Fraction(b - a, d)
    return row


def thirty_bit_rows(rng, count, n):
    return [row_over(rng, n, rng.getrandbits(30) | 1 << 29) for _ in range(count)]


class TestEventSweep:
    """The integer event sweep gives the peel loop's terms, in order, where
    floats collide, on ties, on edge shapes and on unrelated row lcms, and
    builds no Fraction."""

    EPSILONS = (Fraction(1, 2**60), Fraction(1, 2**80), Fraction(1, 2**1100))

    def colliding_inputs(self):
        rng = random.Random(1409)
        inputs = []
        for eps in self.EPSILONS:
            for _ in range(12):
                m, n = rng.randint(1, 8), rng.randint(2, 6)
                inputs.append(Matrix([colliding_row(rng, n, eps) for _ in range(m)]))
                top = [colliding_row(rng, n, eps) for _ in range(m // 2)]
                inputs.append(centro_from(top, colliding_row(rng, n, eps) if m % 2 else None))
        return inputs

    def tie_inputs(self):
        rng = random.Random(1410)
        inputs = []
        for m, n in itertools.product(range(1, 7), range(1, 6)):
            inputs.append(Matrix([small_weight_row(rng, n) for _ in range(m)]))
            top = [small_weight_row(rng, n) for _ in range(m // 2)]
            inputs.append(centro_from(top, small_weight_row(rng, n) if m % 2 else None))
        return inputs

    def thirty_bit_inputs(self):
        rng = random.Random(1411)
        return [Matrix(thirty_bit_rows(rng, 30, 30)), centro_from(thirty_bit_rows(rng, 15, 30))]

    def assert_equals_reference(self, a):
        expected = [(c, r.row_to_col) for c, r in reference_greedy_terms(a)]
        terms = decompose_module._greedy_terms(a)
        assert [(Fraction(*c), cols) for c, cols in terms] == expected
        assert list(decompose_stochastic(a)) == list(reference_decompose_stochastic(a))
        if is_centrosymmetric(a):
            assert list(decompose_centrosymmetric(a)) == list(reference_decompose_centrosymmetric(a))

    def test_colliding_floats(self):
        inputs = self.colliding_inputs()
        collisions = [f for a in inputs for f in float_collisions(a)]
        # the inputs do collide, at 0.0 (underflow) and elsewhere
        assert 0.0 in collisions and len(set(collisions)) > 5
        assert sum(is_centrosymmetric(a) and float_collisions(a) != [] for a in inputs) > 5
        for a in inputs:
            self.assert_equals_reference(a)

    def test_small_weights_and_edge_shapes(self):
        # m = 1, n = 1, odd and even m; many equal breakpoints across rows
        for a in self.tie_inputs():
            self.assert_equals_reference(a)

    def test_unrelated_thirty_bit_row_denominators(self):
        for a in self.thirty_bit_inputs():
            self.assert_equals_reference(a)

    def test_exact_sort_only_where_floats_can_hide_values(self, monkeypatch):
        # every event the sweep keys by _EXACT: none below row lcm 2^26, as
        # equal floats there are equal values; some on colliding floats
        exact, keyed = decompose_module._EXACT, []
        monkeypatch.setattr(decompose_module, "_EXACT",
                            lambda event: keyed.append(event) or exact(event))
        for a in self.tie_inputs():
            self.assert_equals_reference(a)
        assert keyed == []
        for a in self.colliding_inputs():
            self.assert_equals_reference(a)
        assert keyed

    def test_no_fraction_per_event(self, monkeypatch):
        # every Fraction built while the sweep runs (through Python 3.11,
        # Fraction arithmetic builds its results through __new__ too): none,
        # as the coefficients are int pairs and colliding floats are ordered
        # by cross-multiplying ints
        new = Fraction.__new__
        built = []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        inputs = self.colliding_inputs() + self.tie_inputs() + self.thirty_bit_inputs()
        for a in inputs:
            built.clear()
            monkeypatch.setattr(Fraction, "__new__", counting)
            terms = decompose_module._greedy_terms(a)
            monkeypatch.undo()
            assert built == [] and terms, a.shape


class TestNoFraction:
    """From SMX text to printed coefficients, a decomposition builds no
    Fraction: the parsed matrix holds ints, the sweep reads them, and the
    coefficients stay reduced int pairs until printed. The terms built
    later, as Fractions, are still the reference's."""

    def inputs(self):
        rng = random.Random(2701)
        plain = [random_stochastic(rng, m, n, rng.choice([2, 9, 10**6]))
                 for m in range(1, 9) for n in (1, 3, 6)]
        centro = [random_centro_stochastic(rng, m, n, rng.choice([2, 9, 10**6]))
                  for m in range(1, 9) for n in (1, 3, 6)]
        return plain, centro

    def test_the_command_builds_none(self, run_cli, monkeypatch):
        new = Fraction.__new__
        built = []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        plain, centro = self.inputs()
        runs = [(a, flags) for a in plain for flags in ([], ["--json"])]
        runs += [(a, ["--centro", *json]) for a in centro for json in ([], ["--json"])]
        for a, flags in runs:
            text = format_matrix(a)
            monkeypatch.setattr(Fraction, "__new__", counting)
            code, out, err = run_cli(["decompose", *flags], text)
            monkeypatch.undo()
            assert (code, err, built) == (0, "", []), (text, flags)
            comb = (decompose_centrosymmetric if "--centro" in flags else decompose_stochastic)(
                parse_matrix(text))
            if "--centro" in flags:
                assert list(comb) == list(reference_decompose_centrosymmetric(a))
            else:
                assert list(comb) == list(reference_decompose_stochastic(a))
            assert all(type(c) is Fraction for c, _ in comb.terms)
