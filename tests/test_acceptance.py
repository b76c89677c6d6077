"""Acceptance suite: one test per acceptance criterion.

Each test prints a single `ACCEPTANCE <name>: PASS` or `FAIL` line (visible
with `pytest -s`) and enforces its runtime budget where one is stated. All
comparisons are exact; no tolerances appear anywhere.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from centrostoch import (
    ConvexCombination,
    FacePattern,
    Matrix,
    RectPermMatrix,
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
    bipartite_of,
    count_face_vertices_centro,
    count_face_vertices_stochastic,
    decompose_centrosymmetric,
    decompose_stochastic,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    enumerate_face_vertices,
    fill,
    has_row_support_centro,
    has_row_support_stochastic,
    is_centrosymmetric,
    is_extreme_centro,
    is_extreme_centro_via_graph,
    is_extreme_oracle,
    is_extreme_stochastic,
    is_extreme_stochastic_via_graph,
    longest_path,
    parse_matrix,
    split_noncentrosymmetric,
    verify_basis,
)
from face_reference import reference_face_vertices
from greedy_reference import (
    reference_decompose_centrosymmetric,
    reference_decompose_stochastic,
)
from matrixgen import (
    pattern_or_rotation,
    random_centro_stochastic,
    random_stochastic,
    random_supported_pattern,
)

HALF = Fraction(1, 2)


@contextmanager
def criterion(name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {name}: FAIL (took {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(
            f"{name} exceeded its runtime budget: {elapsed:.2f}s >= {budget}s"
        )
    suffix = f" ({elapsed:.2f}s, budget {budget}s)" if budget is not None else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def paired(r: RectPermMatrix) -> Matrix:
    return (r.to_matrix() + r.rotate_pi().to_matrix()) * HALF


def test_worked_example_decomposition():
    with criterion("worked-example-decomposition", budget=1.0):
        a = Matrix(
            [
                ["1/2", 0, "1/2", 0],
                ["3/10", 0, 0, "7/10"],
                ["2/5", "1/5", "2/5", 0],
            ]
        )
        # the published certificate recombines to the matrix exactly
        e0 = Matrix([[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        e1 = Matrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]])
        e2 = Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
        e3 = Matrix([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        cert = ConvexCombination(
            [("2/5", e0), ("3/10", e1), ("1/5", e2), ("1/10", e3)]
        )
        assert cert.combine() == a
        # our own decomposition recombines exactly in at most 5 terms
        comb = decompose_stochastic(a)
        assert comb.combine() == a
        assert len(comb) <= 5
        assert all(is_extreme_stochastic(term) for _, term in comb)


def test_random_decomposition_sweep():
    with criterion("random-decomposition-500", budget=30.0):
        rng = random.Random(20260819)
        for _ in range(500):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            a = random_stochastic(rng, m, n)
            comb = decompose_stochastic(a)
            assert list(comb) == list(reference_decompose_stochastic(a))
            assert comb.combine() == a
            assert sum(c for c, _ in comb) == 1
            assert all(is_extreme_stochastic(term) for _, term in comb)
            assert len(comb) <= a.nnz() - m + 1


def test_random_centro_decomposition_sweep():
    with criterion("centro-decomposition-200", budget=60.0):
        rng = random.Random(20260820)
        for _ in range(200):
            m = rng.randint(1, 7)
            n = rng.randint(1, 6)
            a = random_centro_stochastic(rng, m, n)
            comb = decompose_centrosymmetric(a)
            assert list(comb) == list(reference_decompose_centrosymmetric(a))
            assert comb.combine() == a
            for _, term in comb:
                assert is_extreme_centro(term)
                assert is_extreme_oracle(term, centro=True)


def test_split_sweep_and_certificates():
    with criterion("split-sweep-and-certificates"):
        processed = 0
        for r in enumerate_extreme_stochastic(4, 4):
            if r.is_centrosymmetric():
                continue
            q1, q2 = split_noncentrosymmetric(r)
            assert q1 != q2
            assert q1.is_centrosymmetric() and q2.is_centrosymmetric()
            total = r.to_matrix() + r.rotate_pi().to_matrix()
            assert q1.to_matrix() + q2.to_matrix() == total
            assert is_extreme_centro(q1.to_matrix())
            assert is_extreme_centro(q2.to_matrix())
            processed += 1
        assert processed == 4**4 - 4**2
        # the two published split certificates, matched as unordered pairs
        q1, q2 = split_noncentrosymmetric(RectPermMatrix([1, 1, 2, 4], 4))
        assert {q1, q2} == {
            RectPermMatrix([1, 3, 2, 4], 4),
            RectPermMatrix([1, 1, 4, 4], 4),
        }
        q1, q2 = split_noncentrosymmetric(RectPermMatrix([1, 2, 2, 4], 5))
        assert {q1, q2} == {
            RectPermMatrix([1, 2, 4, 5], 5),
            RectPermMatrix([2, 4, 2, 4], 5),
        }


def golden_rect_five_three():
    def pivot(i, j):
        rows = []
        for r in range(1, 6):
            col = j if r == i else j + 1
            rows.append([1 if c == col else 0 for c in (1, 2, 3)])
        return Matrix(rows)

    fam = [pivot(i, j) for j in (1, 2) for i in (1, 2, 3, 4, 5)]
    fam.append(Matrix([[0, 0, 1]] * 5))
    return fam


def golden_centro_odd_five_four():
    c = (0, HALF, HALF, 0)
    return [
        Matrix([[1, 0, 0, 0], [0, 1, 0, 0], c, [0, 0, 1, 0], [0, 0, 0, 1]]),
        Matrix([[0, 1, 0, 0], [1, 0, 0, 0], c, [0, 0, 0, 1], [0, 0, 1, 0]]),
        Matrix([[0, 1, 0, 0], [0, 0, 1, 0], c, [0, 1, 0, 0], [0, 0, 1, 0]]),
        Matrix([[0, 0, 1, 0], [0, 1, 0, 0], c, [0, 0, 1, 0], [0, 1, 0, 0]]),
        Matrix([[0, 0, 1, 0], [0, 0, 0, 1], c, [1, 0, 0, 0], [0, 1, 0, 0]]),
        Matrix([[0, 0, 0, 1], [0, 0, 1, 0], c, [0, 1, 0, 0], [1, 0, 0, 0]]),
        Matrix([[0, 0, 0, 1], [0, 0, 0, 1], c, [1, 0, 0, 0], [1, 0, 0, 0]]),
        Matrix(
            [
                [0, 0, 0, 1],
                [0, 0, 0, 1],
                (HALF, 0, 0, HALF),
                [1, 0, 0, 0],
                [1, 0, 0, 0],
            ]
        ),
    ]


def test_basis_verification_sweep():
    with criterion("basis-verification", budget=30.0):
        for n in range(2, 7):
            assert verify_basis(basis_square(n), n * n - n)
        for m in range(1, 7):
            for n in range(2, 7):
                assert verify_basis(basis_rect(m, n), m * (n - 1))
        for m in (2, 4, 6):
            for n in range(2, 7):
                assert verify_basis(basis_centro_even(m, n), (m // 2) * (n - 1))
        for m in (3, 5):
            for n in range(2, 7):
                half = (m - 1) // 2
                dim = half * (n - 1) + (n + 1) // 2 - 1
                assert verify_basis(basis_centro_odd(m, n), dim)
        # published families, entry for entry
        assert basis_rect(5, 3) == golden_rect_five_three()
        assert basis_centro_odd(5, 4) == golden_centro_odd_five_four()


def test_fill_table():
    with criterion("fill-table"):
        for n in range(2, 7):
            for mat in basis_square(n):
                assert fill(bipartite_of(mat)) == Fraction(1, n)
        for m in range(1, 7):
            for n in range(2, 7):
                for mat in basis_rect(m, n):
                    assert fill(bipartite_of(mat)) == Fraction(1, n)
        for m in (2, 4, 6):
            for n in range(2, 7):
                for mat in basis_centro_even(m, n):
                    assert fill(bipartite_of(mat)) == Fraction(1, n)
        for m in (3, 5):
            for n in range(2, 7):
                fam = basis_centro_odd(m, n)
                stacked_count = ((m - 1) // 2) * (n - 1) + 1
                dense = Fraction(m + 1, m * n)
                for mat in fam[:stacked_count]:
                    expected = dense if n % 2 == 0 else Fraction(1, n)
                    assert fill(bipartite_of(mat)) == expected
                for mat in fam[stacked_count:]:
                    assert fill(bipartite_of(mat)) == dense


def all_support_patterns(m, n):
    row_choices = [p for p in itertools.product((0, 1), repeat=n) if any(p)]
    return itertools.product(row_choices, repeat=m)


def uniform_on(pattern_rows):
    rows = []
    for row in pattern_rows:
        count = sum(row)
        rows.append([Fraction(1, count) if x else Fraction(0) for x in row])
    return Matrix(rows)


def test_graph_characterizations():
    with criterion("graph-characterizations"):
        rng = random.Random(20260821)
        # matrix route and graph route agree on every 3x3 and 3x4 candidate
        for m, n in [(3, 3), (3, 4)]:
            for pattern in all_support_patterns(m, n):
                a = uniform_on(pattern)
                assert is_extreme_stochastic_via_graph(a) == is_extreme_stochastic(a)
            for r in enumerate_extreme_stochastic(m, n):
                a = paired(r)
                assert is_extreme_centro_via_graph(a) == is_extreme_centro(a)
        # agreement on random centrosymmetric matrices of mixed sizes
        for _ in range(100):
            a = random_centro_stochastic(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert is_extreme_centro_via_graph(a) == is_extreme_centro(a)
        # every enumerated extreme passes the graph test with a short path,
        # and the column degrees account for every row (plus one when the
        # center row of an odd-height matrix straddles a mirrored pair)
        for m, n in [(3, 3), (3, 4)]:
            for r in enumerate_extreme_stochastic(m, n):
                mat = r.to_matrix()
                assert is_extreme_stochastic_via_graph(mat)
                graph = bipartite_of(mat)
                assert longest_path(graph) <= 2
                assert sum(graph.col_degree(j) for j in range(1, n + 1)) == m
        for mat in enumerate_extreme_centro(5, 4):
            assert is_extreme_centro_via_graph(mat)
            graph = bipartite_of(mat)
            assert longest_path(graph) <= 4
            degree_total = sum(graph.col_degree(j) for j in range(1, 5))
            assert degree_total == 5 + graph.row_degree(3) - 1


def test_face_counts_against_enumeration():
    with criterion("face-counts"):
        # exhaustive over every pattern of every shape up to 3x3
        for m, n in itertools.product((1, 2, 3), repeat=2):
            for bits in itertools.product((0, 1), repeat=m * n):
                rows = [bits[i * n:(i + 1) * n] for i in range(m)]
                pattern = FacePattern(rows)
                if has_row_support_stochastic(pattern):
                    count = count_face_vertices_stochastic(pattern)
                    vertices = list(enumerate_face_vertices(pattern))
                    assert count == len(vertices)
                    assert vertices == reference_face_vertices(pattern)
                if pattern.is_centrosymmetric() and has_row_support_centro(pattern):
                    count = count_face_vertices_centro(pattern)
                    vertices = list(enumerate_face_vertices(pattern, centro=True))
                    assert count == len(vertices)
                    assert vertices == reference_face_vertices(pattern, centro=True)
        # 200 random larger patterns
        rng = random.Random(20260822)
        sizes = [(4, 3), (4, 4), (5, 3), (3, 5), (5, 4)]
        for k in range(200):
            m, n = sizes[k % len(sizes)]
            raw = random_supported_pattern(rng, m, n)
            count = count_face_vertices_stochastic(raw)
            vertices = list(enumerate_face_vertices(raw))
            assert count == len(vertices)
            assert vertices == reference_face_vertices(raw)
            covered = FacePattern(pattern_or_rotation(raw))
            assert has_row_support_centro(covered)
            count = count_face_vertices_centro(covered)
            vertices = list(enumerate_face_vertices(covered, centro=True))
            assert count == len(vertices)
            assert vertices == reference_face_vertices(covered, centro=True)
        # published worked faces
        three_by_two = FacePattern([[1, 1], [1, 1], [0, 1]])
        assert count_face_vertices_stochastic(three_by_two) == 4
        assert list(enumerate_face_vertices(three_by_two)) == [
            Matrix([[1, 0], [1, 0], [0, 1]]),
            Matrix([[1, 0], [0, 1], [0, 1]]),
            Matrix([[0, 1], [1, 0], [0, 1]]),
            Matrix([[0, 1], [0, 1], [0, 1]]),
        ]
        middle_free = FacePattern([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
        assert count_face_vertices_centro(middle_free) == 3
        assert list(enumerate_face_vertices(middle_free, centro=True)) == [
            Matrix([[1, 0, 0], [HALF, 0, HALF], [0, 0, 1]]),
            Matrix([[0, 1, 0], [HALF, 0, HALF], [0, 1, 0]]),
            Matrix([[0, 0, 1], [HALF, 0, HALF], [1, 0, 0]]),
        ]
        all_ones = FacePattern([[1, 1, 1]] * 3)
        assert count_face_vertices_centro(all_ones) == 6


def test_extreme_counts_against_oracle():
    with criterion("extreme-counts"):
        for m in range(1, 6):
            for n in range(1, 5):
                mats = [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
                assert len(mats) == n**m
                assert len(set(mats)) == len(mats)
                assert all(is_extreme_oracle(mat) for mat in mats)

                enumerated = set(enumerate_extreme_centro(m, n))
                if m % 2 == 0:
                    expected = n ** (m // 2)
                else:
                    expected = ((n + 1) // 2) * n ** ((m - 1) // 2)
                assert len(list(enumerate_extreme_centro(m, n))) == expected
                assert len(enumerated) == expected
                # brute force: oracle-filtered half-sums over all of them
                brute = set()
                for r in enumerate_extreme_stochastic(m, n):
                    candidate = paired(r)
                    if candidate not in brute and is_extreme_oracle(
                        candidate, centro=True
                    ):
                        brute.add(candidate)
                assert enumerated == brute


S_TEXT = "3 4\n1 0 0 0\n0 1/2 1/2 0\n0 0 0 1\n"


def test_cli_golden_transcripts(run_cli):
    with criterion("cli-golden-transcripts"):
        code, out, err = run_cli(["decompose", "--centro", "--json"], S_TEXT)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload == {
            "terms": [
                {
                    "coefficient": "1",
                    "matrix": [
                        ["1", "0", "0", "0"],
                        ["0", "1/2", "1/2", "0"],
                        ["0", "0", "0", "1"],
                    ],
                }
            ]
        }
        # byte-identical across runs
        assert run_cli(["decompose", "--centro", "--json"], S_TEXT)[1] == out

        code, out, err = run_cli(
            ["basis", "--set", "centro-odd", "--m", "5", "--n", "4", "--verify"]
        )
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 9
        assert blocks[-1] == "rank=8 independent=true\n"
        assert blocks[7] == (
            "[8]\n"
            "  0 0 0   1\n"
            "  0 0 0   1\n"
            "1/2 0 0 1/2\n"
            "  1 0 0   0\n"
            "  1 0 0   0"
        )
        assert run_cli(
            ["basis", "--set", "centro-odd", "--m", "5", "--n", "4", "--verify"]
        )[1] == out

        code, out, err = run_cli(
            ["face", "count", "--centro"], "3 3\n1 1 1\n1 1 1\n1 1 1\n"
        )
        assert (code, out) == (0, "6\n")

        # SMX round trip through the normalize command
        code, out, err = run_cli(["normalize", "--centro-and"], S_TEXT)
        assert code == 0
        assert parse_matrix(out) == parse_matrix(S_TEXT)
        assert out == S_TEXT
