"""Command-line interface: golden outputs, exit codes, JSON shapes."""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from itertools import cycle, product, repeat
from pathlib import Path

import pytest

from centrostoch import bases, cli
from centrostoch import (
    CentrostochError,
    Matrix,
    NotStochasticError,
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
    format_matrix,
    has_row_support_centro,
    has_row_support_stochastic,
    is_centrosymmetric,
    is_extreme_centro,
    is_extreme_stochastic,
    is_stochastic,
    parse_matrix,
    rank_of_family,
    rotate_pi,
)
from centrostoch.cli import (
    _COMMANDS,
    _CentreRows,
    _parse_args,
    _parsers,
    _print_json,
    _readers,
    build_parser,
    run_command,
)
from greedy_reference import (
    REFUSALS,
    reference_decompose_centrosymmetric,
    reference_decompose_stochastic,
    refusal,
)
from matrixgen import random_centro_stochastic, random_stochastic

S_TEXT = "3 4\n1 0 0 0\n0 1/2 1/2 0\n0 0 0 1\n"
ALL_ONES_3 = "3 3\n1 1 1\n1 1 1\n1 1 1\n"

DECOMPOSE_CENTRO_GOLDEN = """\
{
  "terms": [
    {
      "coefficient": "1",
      "matrix": [
        [
          "1",
          "0",
          "0",
          "0"
        ],
        [
          "0",
          "1/2",
          "1/2",
          "0"
        ],
        [
          "0",
          "0",
          "0",
          "1"
        ]
      ]
    }
  ]
}
"""

BASIS_CENTRO_ODD_GOLDEN = """\
[1]
1   0   0 0
0   1   0 0
0 1/2 1/2 0
0   0   1 0
0   0   0 1

[2]
0   1   0 0
1   0   0 0
0 1/2 1/2 0
0   0   0 1
0   0   1 0

[3]
0   1   0 0
0   0   1 0
0 1/2 1/2 0
0   1   0 0
0   0   1 0

[4]
0   0   1 0
0   1   0 0
0 1/2 1/2 0
0   0   1 0
0   1   0 0

[5]
0   0   1 0
0   0   0 1
0 1/2 1/2 0
1   0   0 0
0   1   0 0

[6]
0   0   0 1
0   0   1 0
0 1/2 1/2 0
0   1   0 0
1   0   0 0

[7]
0   0   0 1
0   0   0 1
0 1/2 1/2 0
1   0   0 0
1   0   0 0

[8]
  0 0 0   1
  0 0 0   1
1/2 0 0 1/2
  1 0 0   0
  1 0 0   0

rank=8 independent=true
"""


class TestGolden:
    def test_decompose_centro_json(self, run_cli):
        code, out, err = run_cli(["decompose", "--centro", "--json"], S_TEXT)
        assert code == 0
        assert err == ""
        assert out == DECOMPOSE_CENTRO_GOLDEN

    def test_basis_centro_odd_verify(self, run_cli):
        code, out, err = run_cli(
            ["basis", "--set", "centro-odd", "--m", "5", "--n", "4", "--verify"]
        )
        assert code == 0
        assert out == BASIS_CENTRO_ODD_GOLDEN

    def test_face_count_centro(self, run_cli):
        code, out, err = run_cli(["face", "count", "--centro"], ALL_ONES_3)
        assert code == 0
        assert out == "6\n"

    def test_outputs_are_deterministic(self, run_cli):
        first = run_cli(["decompose", "--centro", "--json"], S_TEXT)
        second = run_cli(["decompose", "--centro", "--json"], S_TEXT)
        assert first == second


class TestCheck:
    def test_human(self, run_cli):
        code, out, err = run_cli(["check"], S_TEXT)
        assert code == 0
        assert out == (
            "stochastic=true\n"
            "centrosymmetric=true\n"
            "extreme_stochastic=false\n"
            "extreme_centrosymmetric=true\n"
        )

    def test_json(self, run_cli):
        code, out, err = run_cli(["check", "--json"], "2 2\n1/2 1/2\n1/2 1/2\n")
        assert code == 0
        assert json.loads(out) == {
            "stochastic": True,
            "centrosymmetric": True,
            "extreme_stochastic": False,
            "extreme_centrosymmetric": False,
        }


class TestDecompose:
    def test_human_blocks(self, run_cli):
        code, out, err = run_cli(["decompose"], "1 2\n1/2 1/2\n")
        assert code == 0
        assert out == "[1] coefficient=1/2\n1 0\n\n[2] coefficient=1/2\n0 1\n"

    def test_json_recombines(self, run_cli):
        text = "2 3\n1/6 1/3 1/2\n2/5 2/5 1/5\n"
        code, out, err = run_cli(["decompose", "--json"], text)
        assert code == 0
        payload = json.loads(out)
        total = Matrix.zeros(2, 3)
        for term in payload["terms"]:
            total = total + Matrix(term["matrix"]) * term["coefficient"]
        assert total == parse_matrix(text)

    def test_centro_rejects_asymmetric(self, run_cli):
        code, out, err = run_cli(["decompose", "--centro"], "2 2\n1 0\n1 0\n")
        assert code == 1
        assert "centrosymmetric" in err

    def test_rejects_non_stochastic(self, run_cli):
        code, out, err = run_cli(["decompose"], "1 2\n1 1\n")
        assert code == 1
        assert "stochastic" in err

    @pytest.mark.parametrize("rows", REFUSALS, ids=range(len(REFUSALS)))
    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_refusals_exit_1_with_empty_stdout(self, run_cli, rows, centro):
        reference = reference_decompose_centrosymmetric if centro else reference_decompose_stochastic
        expected = refusal(reference, Matrix(rows))
        text = f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(row) + "\n" for row in rows)
        code, out, err = run_cli(["decompose", "--centro"] if centro else ["decompose"], text)
        if expected is None:
            assert (code, err) == (0, "")
            return
        message = ("decomposition input must be row-stochastic" if expected is NotStochasticError
                   else "input must be centrosymmetric")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
    def test_coefficient_too_long_to_print(self, run_cli, json_flag):
        # the first coefficient, 10^-4300, has a 4301-digit denominator
        text = "1 2\n1e-4300 0." + "9" * 4300 + "\n"
        code, out, err = run_cli(["decompose", *json_flag], text)
        assert code == 1
        assert err == "error: the result has a number too long to print\n"
        assert out == ""

    def test_failure_in_a_later_block_leaves_stdout_empty(self, run_cli):
        # the first term, coefficient 1/4, prints; the second's coefficient
        # has a 4301-digit denominator
        text = "1 3\n0.25 0.25" + "0" * 4297 + "1 0.4" + "9" * 4299 + "\n"
        code, out, err = run_cli(["decompose"], text)
        assert code == 1
        assert err == "error: the result has a number too long to print\n"
        assert out == ""


def reference_cells(mat):
    return [[str(x) for x in row] for row in mat.entries]


def reference_lines(mat):
    # str() of each entry, each column as wide as its widest cell
    cells = reference_cells(mat)
    widths = [max(len(row[j]) for row in cells) for j in range(mat.ncols)]
    return [" ".join(x.rjust(w) for x, w in zip(row, widths)).rstrip() for row in cells]


def reference_blocks(blocks, tail=None):
    # numbered (header suffix, matrix) blocks, then the tail line
    chunks = [
        "\n".join([f"[{k}]{suffix}", *reference_lines(mat)])
        for k, (suffix, mat) in enumerate(blocks, 1)
    ]
    return "\n\n".join(chunks + ([] if tail is None else [tail])) + "\n"


def reference_decompose_output(comb, as_json):
    # every term as its dense matrix, rendered cell by cell
    if as_json:
        terms = [{"coefficient": str(c), "matrix": reference_cells(mat)} for c, mat in comb]
        return json.dumps({"terms": terms}, indent=2) + "\n"
    return reference_blocks((f" coefficient={c}", mat) for c, mat in comb)


def reference_listing_output(mats, as_json, tail=None, fields=None):
    # numbered dense matrices and the tail line, or in JSON their count and
    # cells followed by `fields`
    if as_json:
        payload = {"count": len(mats), "matrices": [reference_cells(mat) for mat in mats]}
        payload.update(fields or {})
        return json.dumps(payload, indent=2) + "\n"
    return reference_blocks((("", mat) for mat in mats), tail)


class TestDecomposeRendering:
    """The printed terms equal a rendering of the terms' dense matrices."""

    SHAPES = [(1, 1), (1, 2), (1, 5), (2, 1), (2, 2), (3, 1), (3, 3), (3, 4), (4, 3),
              (4, 6), (5, 2), (5, 5), (6, 7), (7, 6), (9, 8)]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("centro", [False, True], ids=["stochastic", "centro"])
    def test_equals_the_generic_rendering(self, run_cli, centro, json_flag):
        rng = random.Random(4099)
        for m, n in self.SHAPES:
            for max_weight in (1, 3, 9):
                make = random_centro_stochastic if centro else random_stochastic
                a = make(rng, m, n, max_weight)
                comb = decompose_centrosymmetric(a) if centro else decompose_stochastic(a)
                argv = ["decompose", *(["--centro"] if centro else []), *json_flag]
                code, out, err = run_cli(argv, format_matrix(a))
                assert (code, err) == (0, "")
                assert out == reference_decompose_output(comb, bool(json_flag)), (m, n)


def random_pattern(rng, m, n, centro):
    # a (0,1) pattern with a 1 in every row, centrosymmetric for centro
    rows = []
    for _ in range(m):
        row = [rng.randint(0, 1) for _ in range(n)]
        row[rng.randrange(n)] = 1
        rows.append(row)
    if centro:
        for i in range(m // 2):
            rows[m - 1 - i] = rows[i][::-1]
        if m % 2:
            middle = rows[m // 2]
            rows[m // 2] = [a | b for a, b in zip(middle, middle[::-1])]
    return Matrix(rows)


JSON_FLAGS = pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
CENTRO_FLAGS = pytest.mark.parametrize("centro", [[], ["--centro"]], ids=["stochastic", "centro"])


class TestListingRendering:
    """enumerate, face vertices and basis print the library's dense matrices
    as the reference renders them: str() per cell, columns as wide as their
    widest cell."""

    SHAPES = [(1, 1), (1, 2), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
              (3, 3), (3, 4), (4, 2), (4, 3), (2, 5), (5, 2), (5, 3)]
    # wider shapes for the centre-row text, odd and even m and n; the plain
    # polytope has up to 5^7 points there, so its whole enumeration skips them
    WIDE = [(7, 4), (6, 5), (7, 5)]

    @JSON_FLAGS
    @CENTRO_FLAGS
    def test_enumerate(self, run_cli, centro, json_flag):
        for m, n in self.SHAPES + (self.WIDE if centro else []):
            if centro:
                mats = list(enumerate_extreme_centro(m, n))
            else:
                mats = [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
            argv = ["enumerate", "--extremes", *centro, "--m", str(m), "--n", str(n), *json_flag]
            code, out, err = run_cli(argv)
            assert (code, err) == (0, "")
            expected = reference_listing_output(mats, bool(json_flag), f"count={len(mats)}")
            assert out == expected, (m, n)

    @JSON_FLAGS
    @CENTRO_FLAGS
    def test_face_vertices(self, run_cli, centro, json_flag):
        rng = random.Random(1357)
        for m, n in [*self.SHAPES, (4, 4), *self.WIDE]:
            for _ in range(3):
                pattern = random_pattern(rng, m, n, bool(centro))
                mats = list(enumerate_face_vertices(pattern, centro=bool(centro)))
                argv = ["face", "vertices", *centro, *json_flag]
                code, out, err = run_cli(argv, format_matrix(pattern))
                assert (code, err) == (0, "")
                expected = reference_listing_output(mats, bool(json_flag), f"count={len(mats)}")
                assert out == expected, pattern

    FAMILIES = [
        ("square", basis_square, [(None, n) for n in range(2, 6)]),
        ("rect", basis_rect, [(1, 2), (1, 3), (2, 2), (3, 3), (4, 2), (2, 5)]),
        ("centro-even", basis_centro_even, [(2, 2), (2, 3), (4, 3), (4, 4), (6, 2)]),
        ("centro-odd", basis_centro_odd, [(3, 2), (3, 3), (5, 4), (5, 5), (3, 6), (7, 3)]),
    ]

    @JSON_FLAGS
    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["listed", "verified"])
    @pytest.mark.parametrize("family", FAMILIES, ids=[name for name, _, _ in FAMILIES])
    def test_basis(self, run_cli, family, verify, json_flag):
        name, build, sizes = family
        for m, n in sizes:
            mats = build(n) if m is None else build(m, n)
            tail, fields = None, None
            if verify:
                rank = rank_of_family(mats)
                independent = rank == len(mats)
                tail = f"rank={rank} independent={'true' if independent else 'false'}"
                fields = {"rank": rank, "independent": independent}
            size = ["--n", str(n)] if m is None else ["--m", str(m), "--n", str(n)]
            code, out, err = run_cli(["basis", "--set", name, *size, *verify, *json_flag])
            assert (code, err) == (0, "")
            assert out == reference_listing_output(mats, bool(json_flag), tail, fields), (m, n)

    LISTINGS = [
        (["enumerate", "--extremes", "--m", "3", "--n", "4"], ""),
        (["enumerate", "--extremes", "--centro", "--m", "5", "--n", "3"], ""),
        (["face", "vertices"], "2 2\n1 1\n0 1\n"),
        (["face", "vertices", "--centro"], "3 3\n1 1 0\n1 1 1\n0 1 1\n"),
        (["basis", "--set", "square", "--n", "3"], ""),
        (["basis", "--set", "rect", "--m", "2", "--n", "3"], ""),
        (["basis", "--set", "centro-even", "--m", "4", "--n", "3"], ""),
        (["basis", "--set", "centro-odd", "--m", "5", "--n", "4"], ""),
        (["decompose"], S_TEXT),
        (["decompose", "--centro"], S_TEXT),
    ]

    def test_plain_enumerate_builds_no_dense_matrix(self, run_cli, row_builds):
        # every listing prints its extreme points from their vertices, so no
        # dense row is built, in text or JSON
        for argv, stdin_text in self.LISTINGS:
            for json_flag in ([], ["--json"]):
                code, out, err = run_cli([*argv, *json_flag], stdin_text)
                assert (code, err) == (0, "") and out, argv
        # the rank check reads each member's vector off its vertex too
        for name, size in [("rect", ["--m", "2"]), ("centro-odd", ["--m", "5"]),
                           ("centro-even", ["--m", "4"]), ("square", [])]:
            code, out, err = run_cli(["basis", "--set", name, *size, "--n", "3", "--verify"])
            assert (code, err) == (0, "") and "independent=true" in out, name
        assert row_builds == []
        # the same counter sees a read of one member's entries
        member = basis_rect(1, 2)[0]
        assert member.entries and row_builds == [member._key]


def centre_pattern(rng, m, n, middle):
    # a random centrosymmetric pattern of odd m whose centre row holds the
    # middle column (odd n) or does not, and at least one other column
    # pair when it does not
    pattern = [list(row) for row in random_pattern(rng, m, n, True).entries]
    centre = pattern[m // 2]
    if n % 2:
        centre[n // 2] = int(middle)
    if not any(centre) or (n > 1 and middle and rng.random() < 0.5):
        centre[0] = centre[-1] = 1
    return Matrix(pattern)


class TestCentreRowListings:
    """Odd-m centrosymmetric listings, whose matrices join a centre row onto
    their unit rows: every shape from 1 to 7 rows, a one-row listing (odd n
    mixes centre rows with the middle column's unit row), and faces whose
    centre row holds the middle column or not, in both layouts."""

    @JSON_FLAGS
    def test_enumerate(self, run_cli, json_flag):
        for m in (1, 3, 5, 7):
            for n in range(1, 7):
                mats = list(enumerate_extreme_centro(m, n))
                argv = ["enumerate", "--extremes", "--centro", "--m", str(m), "--n", str(n),
                        *json_flag]
                expected = reference_listing_output(mats, bool(json_flag), f"count={len(mats)}")
                assert run_cli(argv) == (0, expected, ""), (m, n)

    @JSON_FLAGS
    @pytest.mark.parametrize("middle", [True, False], ids=["middle", "no-middle"])
    def test_face_vertices(self, run_cli, middle, json_flag):
        rng = random.Random(2903 + middle)
        for m in (1, 3, 5):
            for n in range(1, 7):
                if middle and n % 2 == 0 or not middle and n == 1:
                    continue
                for _ in range(3):
                    pattern = centre_pattern(rng, m, n, middle)
                    mats = list(enumerate_face_vertices(pattern, centro=True))
                    assert any(a._key.center is None for a in mats) == middle
                    expected = reference_listing_output(mats, bool(json_flag),
                                                        f"count={len(mats)}")
                    argv = ["face", "vertices", "--centro", *json_flag]
                    assert run_cli(argv, format_matrix(pattern)) == (0, expected, ""), pattern


class TestJsonFragments:
    """The JSON listings, written from cached row fragments, at the edges of
    the indent=2 layout."""

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [(["decompose", "--json"], "1 1\n1\n"),
         (["decompose", "--json"], "1 3\n1/2 0 1/2\n"),
         (["decompose", "--centro", "--json"], "3 1\n1\n1\n1\n"),
         (["decompose", "--centro", "--json"], "5 3\n1/3 1/3 1/3\n0 1 0\n1/4 1/2 1/4\n0 1 0\n"
                                               "1/3 1/3 1/3\n")],
        ids=["one-term-1x1", "m=1", "centro-n=1", "centro-centre-row"],
    )
    def test_decompose(self, run_cli, argv, stdin_text):
        a = parse_matrix(stdin_text)
        comb = decompose_centrosymmetric(a) if "--centro" in argv else decompose_stochastic(a)
        code, out, err = run_cli(argv, stdin_text)
        assert (code, err) == (0, "")
        assert out == reference_decompose_output(comb, True)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (4, 1)])
    @pytest.mark.parametrize("centro", [False, True], ids=["stochastic", "centro"])
    def test_enumerate(self, run_cli, centro, m, n):
        if centro:
            mats = list(enumerate_extreme_centro(m, n))
        else:
            mats = [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
        argv = ["enumerate", "--extremes", *(["--centro"] if centro else []),
                "--m", str(m), "--n", str(n), "--json"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == reference_listing_output(mats, True)

    def test_basis_footer_follows_the_matrices(self, run_cli):
        mats = basis_centro_odd(5, 4)
        code, out, err = run_cli(["basis", "--set", "centro-odd", "--m", "5", "--n", "4",
                                  "--verify", "--json"])
        assert (code, err) == (0, "")
        assert out == reference_listing_output(mats, True, fields={"rank": 8, "independent": True})
        assert list(json.loads(out)) == ["count", "matrices", "rank", "independent"]

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [(["decompose", "--json"], "1 3\n0.25 0.25" + "0" * 4297 + "1 0.4" + "9" * 4299 + "\n"),
         (["enumerate", "--extremes", "--m", "3", "--n", "3", "--cap", "26", "--json"], ""),
         (["face", "vertices", "--centro", "--cap", "3", "--json"], "3 3\n1 1 0\n1 1 1\n0 1 1\n")],
        ids=["coefficient-too-long", "enumerate-cap", "face-cap"],
    )
    def test_a_failed_listing_leaves_stdout_empty(self, run_cli, argv, stdin_text):
        code, out, err = run_cli(argv, stdin_text)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [{"count": 0, "matrices": []}, {}],
                             ids=["empty-listing", "empty-document"])
    def test_writer_equals_json_dumps(self, capsys, doc):
        _print_json(doc)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


class CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestStreamedJson:
    """A JSON document that holds matrices is written one item at a time:
    on seeded random inputs it equals json.dumps(indent=2) of the library's
    dense matrices, it is never held whole, and a reader that goes away in
    the middle of it ends the command with one error line."""

    # m = 1, n = 1, odd m (centre rows for --centro) and even m, then random
    SHAPES = [(1, 1), (1, 4), (4, 1), (3, 1), (5, 3), (5, 4), (6, 5)]

    def test_decompose(self, run_cli):
        rng = random.Random(2801)
        shapes = self.SHAPES + [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(30)]
        for m, n in shapes:
            weight = rng.choice([1, 3, 9, 10**6])
            for centro in (False, True):
                a = (random_centro_stochastic if centro else random_stochastic)(rng, m, n, weight)
                comb = decompose_centrosymmetric(a) if centro else decompose_stochastic(a)
                argv = ["decompose", *(["--centro"] if centro else []), "--json"]
                expected = reference_decompose_output(comb, True)
                assert run_cli(argv, format_matrix(a)) == (0, expected, ""), (m, n, centro)

    def test_listings(self, run_cli):
        rng = random.Random(2802)
        for m, n in self.SHAPES + [(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(10)]:
            for centro in ([], ["--centro"]):
                if centro:
                    mats = list(enumerate_extreme_centro(m, n))
                else:
                    mats = [r.to_matrix() for r in enumerate_extreme_stochastic(m, n)]
                argv = ["enumerate", "--extremes", *centro, "--m", str(m), "--n", str(n), "--json"]
                assert run_cli(argv) == (0, reference_listing_output(mats, True), ""), (m, n)
                pattern = random_pattern(rng, m, n, bool(centro))
                mats = list(enumerate_face_vertices(pattern, centro=bool(centro)))
                code, out, err = run_cli(["face", "vertices", *centro, "--json"],
                                         format_matrix(pattern))
                assert (code, out, err) == (0, reference_listing_output(mats, True), ""), pattern

    def test_verified_bases(self, run_cli):
        rng = random.Random(2803)
        for _ in range(12):
            name, build, _ = rng.choice(TestListingRendering.FAMILIES)
            n = rng.randint(2, 5)
            m = {"square": None, "rect": rng.randint(1, 5), "centro-even": 2 * rng.randint(1, 3),
                 "centro-odd": 2 * rng.randint(1, 3) + 1}[name]
            mats = build(n) if m is None else build(m, n)
            rank = rank_of_family(mats)
            fields = {"rank": rank, "independent": rank == len(mats)}
            size = ["--n", str(n)] if m is None else ["--m", str(m), "--n", str(n)]
            code, out, err = run_cli(["basis", "--set", name, *size, "--verify", "--json"])
            assert (code, out, err) == (0, reference_listing_output(mats, True, fields=fields), "")

    def test_the_document_is_not_held(self, monkeypatch):
        # a 40x40 decomposition prints tens of MB of JSON; what is allocated
        # at once stays a small part of it
        text = format_matrix(random_stochastic(random.Random(2804), 40, 40, 10**6))
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode()),
                                                           encoding="utf-8"))
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run_command(["decompose", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 10**7
        assert peak < sink.size / 10, (peak, sink.size)

    def test_a_text_listing_is_not_held_either(self, monkeypatch):
        # the text's blocks are joined and written a chunk at a time, so the
        # text form (4.6 MB) needs little more than the JSON form (45 MB) does
        peaks, sizes = [], []
        for layout in ([], ["--json"]):
            sink = CountingSink()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = run_command(["enumerate", "--extremes", "--m", "16", "--n", "2", *layout])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            sizes.append(sink.size)
        assert peaks[0] <= peaks[1] + sizes[0] / 4, (peaks, sizes)

    @pytest.mark.parametrize("layout", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("shape", [["--m", "16"], ["--centro", "--m", "32"]],
                             ids=["plain", "centro"])
    def test_an_enumerated_listing_holds_no_point(self, monkeypatch, shape, layout):
        # 2^16 points: neither the points nor their texts are held, so what
        # is allocated at once is a small part of the output
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run_command(["enumerate", "--extremes", *shape, "--n", "2", *layout])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 4 * 10**6
        assert peak < sink.size / 20, (peak, sink.size)

    def test_a_reader_that_closes_mid_document(self, tmp_path):
        # the listing (about 2 MB) is far larger than a pipe's buffer, so
        # the command is still writing when its reader closes the pipe
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["enumerate", "--extremes", "--m", "6", "--n", "4", "--json"]
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "centrostoch", *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env={**os.environ, "PYTHONPATH": str(src)})
            head = proc.stdout.read(16)
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err.seek(0)
            message = err.read().decode()
        assert head.startswith(b'{\n  "count"')
        assert (code, message) == (2, "error: [Errno 32] Broken pipe\n")


class TestRowsOnFirstUse:
    def test_only_the_rows_a_listing_uses_are_rendered(self, run_cli, monkeypatch):
        rendered = []
        real = _CentreRows.__missing__
        monkeypatch.setattr(_CentreRows, "__missing__",
                            lambda rows, column: rendered.append(column) or real(rows, column))
        n = 100000
        text = f"1 {n}\n" + "0 " * (n - 1) + "1\n"
        for flags in ([], ["--json"]):
            code, out, err = run_cli(["decompose", *flags], text)
            assert (code, err) == (0, "")
        assert rendered == [n, n]


class TestSmallJsonDocuments:
    """`check`, `graph`, `face count`, `face support` and `normalize` print
    small flat documents; their --json output is byte for byte
    json.dumps(..., indent=2) of the document built from the library."""

    @pytest.mark.parametrize("text", [S_TEXT, "2 2\n1/2 1/2\n1/2 1/2\n", "1 2\n-1 2\n"])
    def test_check(self, run_cli, text):
        a = parse_matrix(text)
        doc = {
            "stochastic": is_stochastic(a),
            "centrosymmetric": is_centrosymmetric(a),
            "extreme_stochastic": is_extreme_stochastic(a),
            "extreme_centrosymmetric": is_extreme_centro(a),
        }
        assert run_cli(["check", "--json"], text) == (0, json.dumps(doc, indent=2) + "\n", "")

    @pytest.mark.parametrize("flags", [[], ["--fill"], ["--fill", "--dot"]],
                             ids=["edges", "fill", "fill-dot"])
    @pytest.mark.parametrize("text", [S_TEXT, "2 3\n0 0 0\n0 0 0\n"], ids=["s", "no-edges"])
    def test_graph(self, run_cli, flags, text):
        graph = bipartite_of(parse_matrix(text))
        doc = {"rows": graph.row_count, "cols": graph.col_count,
               "edges": [[i, j] for i, j in graph.sorted_edges()]}
        if "--fill" in flags:
            doc["fill"] = str(fill(graph))
        if "--dot" in flags:
            code, dot, err = run_cli(["graph", "--dot"], text)
            doc["dot"] = dot.removesuffix("\n")
        assert run_cli(["graph", "--json", *flags], text) == (0, json.dumps(doc, indent=2) + "\n", "")

    @pytest.mark.parametrize("centro", [False, True], ids=["stochastic", "centro"])
    def test_face(self, run_cli, centro):
        text = "3 3\n1 1 0\n1 0 1\n0 1 1\n"
        pattern = parse_matrix(text)
        counter = count_face_vertices_centro if centro else count_face_vertices_stochastic
        supported = has_row_support_centro if centro else has_row_support_stochastic
        flag = ["--centro"] if centro else []
        for action, doc in [("count", {"count": counter(pattern)}),
                            ("support", {"row_support": supported(pattern)})]:
            expected = json.dumps(doc, indent=2) + "\n"
            assert run_cli(["face", action, *flag, "--json"], text) == (0, expected, "")

    @pytest.mark.parametrize("text", ["2 2\n1 1\n1 0\n", "1 1\n7/3\n", "2 3\n1 -1/2 0\n3 1 1\n"])
    def test_normalize(self, run_cli, text):
        a = parse_matrix(text)
        doc = {"matrix": [[str(x) for x in row] for row in a.entrywise_min(rotate_pi(a)).entries]}
        expected = json.dumps(doc, indent=2) + "\n"
        assert run_cli(["normalize", "--centro-and", "--json"], text) == (0, expected, "")


def fresh_process(argv, stdin_text=""):
    # (exit code, stdout, stderr) of the command as the first call of a new
    # interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "centrostoch", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """run_command builds its parser once per process and carries no state
    from one call to the next."""

    CALLS = [
        (["decompose", "--centro", "--json"], S_TEXT),
        (["decompose"], S_TEXT),
        (["enumerate", "--extremes", "--m", "2", "--n", "2"], ""),
    ]

    def test_calls_in_one_process_equal_fresh_processes(self, run_cli):
        expected = [fresh_process(*call) for call in self.CALLS]
        assert all(code == 0 for code, _, _ in expected)
        for _ in range(2):
            assert [run_cli(*call) for call in self.CALLS] == expected

    def test_usage_errors_between_successes(self, run_cli):
        success = (["enumerate", "--extremes", "--m", "1", "--n", "2"], "")
        failure = (["enumerate", "--m", "1", "--n", "2"], "")
        expected_success, expected_failure = fresh_process(*success), fresh_process(*failure)
        assert expected_failure[0] == 2 and expected_failure[1] == ""
        assert "error: the following arguments are required: --extremes" in expected_failure[2]
        assert run_cli(*success) == expected_success
        assert run_cli(*failure) == expected_failure
        assert run_cli(*success) == expected_success
        assert run_cli(*failure) == expected_failure

    def test_help_is_the_same_each_time(self, run_cli, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["decompose", "--help"])
        assert info.value.code == 0
        reference = capsys.readouterr().out
        assert "--centro" in reference
        assert run_cli(["decompose", "--help"]) == (0, reference, "")
        assert run_cli(["decompose", "--help"]) == (0, reference, "")


def parse_outcome(parse, argv, capsys):
    # (exit code or None, stdout, stderr, the namespace's vars or None)
    try:
        ns = parse(argv)
    except SystemExit as exc:
        code, ns = exc.code, None
    else:
        code = None
    out, err = capsys.readouterr()
    return code, out, err, None if ns is None else vars(ns)


class TestParseOnce:
    """run_command's parse hands argv[1:] straight to the command's parser
    and equals the top-level parser's parse_args on every argv: exit code,
    stdout, stderr and namespace."""

    CORPUS = [
        # help at both levels, abbreviated too
        [], ["-h"], ["--help"], ["--he"], ["decompose", "--help"], ["face", "-h"],
        ["enumerate", "--he"], ["basis", "--set", "square", "--n", "2", "-h"],
        # abbreviations, --opt=value, --, repeated flags
        ["decompose", "--cen", "--js"], ["enumerate", "--ext", "--m", "2", "--n", "3"],
        ["enumerate", "--extremes", "--c", "--m", "1", "--n", "1"],
        ["check", "--inp", "F"], ["check", "--input=F"], ["decompose", "--input=F", "--json"],
        ["graph", "--input=", "--dot"], ["decompose", "--", "--json"], ["face", "--", "count"],
        ["face", "count", "--"], ["--", "check"], ["decompose", "--json", "--json"],
        ["enumerate", "--extremes", "--m", "1", "--m", "2", "--n", "1"],
        ["check", "--input", "a", "--input", "b"], ["face", "vertices", "--cap", "3", "--centro"],
        ["basis", "--set", "rect", "--m", "2", "--n", "3", "--verify", "--json"],
        ["normalize", "--centro-and"], ["check", "--input", "-"],
        # an unknown command, unknown flags and extra arguments after one
        ["frobnicate"], ["Check"], ["decompose", "--bogus"], ["decompose", "--json", "extra"],
        ["face", "count", "extra"], ["check", "--bogus", "--help"], ["check", "--help", "--bogus"],
        # missing required flags and values, bad ints and choices
        ["enumerate", "--m", "1", "--n", "2"], ["basis"], ["normalize"], ["face"],
        ["check", "--input"], ["enumerate", "--extremes", "--m", "x", "--n", "1"],
        ["enumerate", "--extremes", "--m", "-1", "--n", "1"], ["face", "count", "--cap", "1.5"],
        ["face", "frob"], ["basis", "--set", "nope", "--n", "1"],
        # an option before the command
        ["--json", "check"], ["-h", "check"], ["--input", "F", "check"],
        # a positional after an option, one positional too many, values int() strips
        ["face", "--json", "count"], ["face", "count", "vertices"],
        ["enumerate", "--extremes", "--m", " 2", "--n", "1_0"],
    ]

    @pytest.mark.parametrize("argv", CORPUS, ids=repr)
    def test_equals_the_top_level_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected = parse_outcome(build_parser().parse_args, argv, capsys)
        assert parse_outcome(_parse_args, argv, capsys) == expected

    def test_unknown_flag_after_a_command_has_the_top_level_usage(self, run_cli):
        code, out, err = run_cli(["decompose", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: centrostoch [-h]")
        assert err.endswith("centrostoch: error: unrecognized arguments: --bogus\n")

    # one clean line per command, with every option it declares but help
    CLEAN = [
        ["check", "--input", "F", "--json"],
        ["decompose", "--json", "--input", "F", "--centro"],
        ["enumerate", "--extremes", "--centro", "--m", "2", "--n", "3", "--json", "--cap", "5"],
        ["basis", "--set", "rect", "--m", "2", "--n", "3", "--verify", "--json"],
        ["graph", "--input", "F", "--json", "--dot", "--fill"],
        ["face", "--centro", "vertices", "--input", "F", "--json", "--cap", "4"],
        ["normalize", "--input", "", "--json", "--centro-and"],
    ]

    def test_the_clean_lines_cover_every_command_and_option(self):
        assert sorted(line[0] for line in self.CLEAN) == sorted(_COMMANDS)
        for name, *args in self.CLEAN:
            for strings, choices, *_ in table_options(name)[1:]:
                assert set(strings or choices) & set(args), (name, strings)

    @pytest.mark.parametrize("argv", CLEAN)
    def test_a_clean_command_line_skips_the_top_level_parser(self, monkeypatch, capsys, argv):
        def refuse():
            raise AssertionError("an argparse parser was built or read")

        # a clean line neither builds nor reads argparse's parsers
        monkeypatch.setattr(cli, "_parsers", refuse)
        ns = _parse_args(argv)
        monkeypatch.undo()
        assert ns.command == argv[0]
        assert vars(ns) == parse_outcome(build_parser().parse_args, argv, capsys)[3]

    @pytest.mark.parametrize("argv", [
        ["check", "--input=F"], ["check", "--inp", "F"], ["decompose", "-h"],
        ["face", "--", "count"], ["enumerate", "--extremes", "--m", "-1", "--n", "1"],
    ], ids=repr)
    def test_other_lines_reach_the_top_level_parser(self, monkeypatch, capsys, argv):
        parser, _ = _parsers()
        reached = []

        def record(argv):
            reached.append(argv)
            return parse_args(argv)

        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", record)
        outcome = parse_outcome(_parse_args, argv, capsys)
        assert reached == [argv]
        monkeypatch.undo()
        assert outcome == parse_outcome(build_parser().parse_args, argv, capsys)

    def test_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["centrostoch", "decompose", "--centro"])
        assert vars(_parse_args(None)) == vars(build_parser().parse_args(None))


def table_options(name):
    """(option strings, choices, type, nargs, required) of each option of
    command `name` in cli._COMMANDS, after -h/--help, which argparse adds
    first to every command; a positional has no option strings and a flag
    takes no value."""
    rows = [(["-h", "--help"], None, None, 0, False)]
    for option, keywords in _COMMANDS[name][2]:
        positional = not option.startswith("-")
        rows.append(([] if positional else [option], keywords.get("choices"),
                     keywords.get("type"), 0 if keywords.get("action") == "store_true" else None,
                     positional or keywords.get("required", False)))
    return rows


def differential_lines(rng, count):
    """`count` random command lines: mostly a command name and up to seven
    tokens drawn from its option strings, the values and choices it takes,
    and awkward tokens; some are a clean line with one token changed."""
    awkward = ["", "-", "--", "-1", "+3", " 2", "1_0", "x", "--m=2", "--inp", "-h", "--bogus"]
    names = sorted(_COMMANDS)
    for _ in range(count):
        name = rng.choice(names + ["frobnicate", "--json"]) if rng.random() < 0.05 \
            else rng.choice(names)
        options = table_options(name) if name in _COMMANDS else []
        words = []
        for strings, choices, kind, nargs, _ in options:
            if choices is not None:
                values = list(choices)
            elif kind is int:
                values = ["0", "1", "2", "3", "7", " 2", "1_0", "+3"]
            else:
                values = ["F", "", "a b", "x=1"]
            words.append((strings, values, nargs))
        line = [name]
        # a clean line: every required option, then a few others, shuffled
        if words and rng.random() < 0.5:
            pieces = []
            for (*_, required), (strings, values, nargs) in zip(options, words):
                if "-h" in strings or not (required or rng.random() < 0.5):
                    continue
                piece = [rng.choice(strings)] if strings else []
                if nargs != 0:
                    piece.append(rng.choice(values))
                pieces.append(piece)
            rng.shuffle(pieces)
            line += [token for piece in pieces for token in piece]
            if rng.random() < 0.4 and len(line) > 1:
                line[rng.randrange(1, len(line))] = rng.choice(awkward)
        else:
            for _ in range(rng.randint(0, 7)):
                kind = rng.random()
                if words and kind < 0.55:
                    strings, values, nargs = rng.choice(words)
                    line.append(rng.choice(strings) if strings else rng.choice(values))
                    if strings and nargs != 0 and rng.random() < 0.85:
                        line.append(rng.choice(values))
                elif words and kind < 0.7:
                    line.append(rng.choice(rng.choice(words)[1]))
                else:
                    line.append(rng.choice(awkward))
        yield line


class TestExactRead:
    """_parse_args reads a clean line from the command's own option table
    and hands every other line to the top-level parser; on seeded random
    lines both routes equal build_parser().parse_args."""

    def test_random_lines_equal_the_top_level_parser(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        reference = build_parser()
        read = {True: 0, False: 0}

        def outcome(parse, argv):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    ns = parse(argv)
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue(), None
            return None, out.getvalue(), err.getvalue(), vars(ns)

        for argv in differential_lines(random.Random(3001), 3000):
            expected = outcome(reference.parse_args, argv)
            assert outcome(_parse_args, argv) == expected, argv
            clean = argv[0] in _COMMANDS and _readers()[argv[0]](argv[1:]) is not None
            read[clean] += 1
            assert not clean or expected[0] is None, argv
        # both routes are exercised
        assert min(read.values()) > 600, read


class TestEnumerate:
    def test_human_count(self, run_cli):
        code, out, err = run_cli(
            ["enumerate", "--extremes", "--m", "1", "--n", "2"]
        )
        assert code == 0
        assert out == "[1]\n1 0\n\n[2]\n0 1\n\ncount=2\n"

    def test_json_centro(self, run_cli):
        code, out, err = run_cli(
            ["enumerate", "--extremes", "--centro", "--m", "3", "--n", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["matrices"][0] == [["1", "0"], ["1/2", "1/2"], ["0", "1"]]

    def test_cap_exceeded(self, run_cli):
        code, out, err = run_cli(
            ["enumerate", "--extremes", "--m", "8", "--n", "8", "--cap", "100"]
        )
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("centro", [[], ["--centro"]], ids=["plain", "centro"])
    def test_cap_exceeded_by_a_count_too_long_to_print(self, run_cli, centro):
        # 3^20000 and 2 * 3^10000 both have more decimal digits than Python
        # will convert to a string
        code, out, err = run_cli(
            ["enumerate", "--extremes", *centro, "--m", "20000", "--n", "3", "--cap", "10"]
        )
        assert code == 1
        assert "cap" in err
        assert out == ""

    @pytest.mark.parametrize("centro", [[], ["--centro"]], ids=["plain", "centro"])
    def test_rows_past_the_cap_refused_before_the_walk(self, run_cli, centro):
        # with one column the count stays 1, so only the row bound refuses;
        # walking these rows would exhaust memory
        code, out, err = run_cli(["enumerate", "--extremes", *centro, "--m", "99999999999", "--n", "1"])
        assert (code, out) == (1, "")
        assert "cap" in err

    @pytest.mark.parametrize("centro", [[], ["--centro"]], ids=["plain", "centro"])
    def test_one_column_within_the_cap(self, run_cli, centro):
        code, out, err = run_cli(["enumerate", "--extremes", *centro, "--m", "5", "--n", "1"])
        assert (code, err) == (0, "")
        assert out == "[1]\n1\n1\n1\n1\n1\n\ncount=1\n"

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_refusals_are_the_public_enumerators(self, run_cli, centro):
        # sizes below 1, free rows past the cap and counts past the cap: the
        # command's exit code and error line are those of the public
        # enumerator's exception, with nothing on stdout
        enumerator = enumerate_extreme_centro if centro else enumerate_extreme_stochastic
        refused = 0
        for m, n, cap in product([-1, 0, 1, 2, 3, 4, 7], [-2, 0, 1, 2, 3, 5],
                                 [-1, 0, 1, 2, 3, 8, 100]):
            argv = ["enumerate", "--extremes", *(["--centro"] if centro else []),
                    "--m", str(m), "--n", str(n), "--cap", str(cap)]
            try:
                size = len(list(enumerator(m, n, cap=cap)))
            except CentrostochError as exc:
                refused += 1
                assert run_cli(argv) == (1, "", f"error: {exc}\n"), argv
            else:
                code, out, err = run_cli(argv)
                assert (code, err) == (0, "") and out.endswith(f"\n\ncount={size}\n"), argv
        assert refused > 200

    def test_extremes_flag_required(self, run_cli, capsys):
        code, out, err = run_cli(["enumerate", "--m", "1", "--n", "2"])
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self, run_cli):
        argv = ["enumerate", "--extremes", "--m", "2", "--n", "2"]
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "centrostoch", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        code, out, err = run_cli(argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_console_script_command_lines(self):
        # through the installed `centrostoch` script when there is one
        script = shutil.which("centrostoch")
        command = [script] if script else [sys.executable, "-m", "centrostoch"]
        env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
        if not script:
            env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

        def run(*argv, stdin=b""):
            proc = subprocess.run([*command, *argv], input=stdin, capture_output=True, env=env,
                                  timeout=60)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode().splitlines()

        code, out, _ = run("enumerate", "--extremes", "--m", "2", "--n", "2")
        assert code == 0 and out.startswith("[1]\n")
        # undecodable stdin is a usage error: exit 2, not a traceback
        assert run("check", stdin=b"1 1\n\xff\n")[0] == 2
        # a bad bottom row on a matrix that is not centrosymmetric is refused
        # as not stochastic: exit 1, nothing on stdout
        code, out, err = run("decompose", "--centro", stdin=b"2 2\n1 0\n2 -1\n")
        assert (code, out) == (1, "")
        assert "error: decomposition input must be row-stochastic" in err
        # an unknown flag after a command gets the top-level usage: exit 2
        code, _, err = run("decompose", "--bogus")
        assert code == 2 and err[0].startswith("usage: centrostoch [-h]")
        assert run("decompose", "--help")[0] == 0
        # an empty --input path names no file: exit 2, nothing on stdout
        code, out, err = run("check", "--input", "", stdin=b"1 1\n1\n")
        assert (code, out) == (2, "")
        assert "error: [Errno 2] No such file or directory: ''" in err


class TestBasis:
    def test_json_verify(self, run_cli):
        code, out, err = run_cli(
            ["basis", "--set", "rect", "--m", "5", "--n", "3", "--verify", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 11
        assert payload["rank"] == 11
        assert payload["independent"] is True

    @pytest.mark.parametrize("name, m", [("centro-odd", "999"), ("centro-even", "998")])
    def test_verify_ranks_a_long_centrosymmetric_family_on_its_top_rows(self, run_cli, name, m):
        # 500 members of 999 or 998 rows, ranked from their vertices on the
        # top 500 or 499 rows
        start = time.perf_counter()
        code, out, err = run_cli(["basis", "--set", name, "--m", m, "--n", "2", "--verify"])
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out.endswith("\nrank=500 independent=true\n")

    def test_square_needs_no_m(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "square", "--n", "2"])
        assert code == 0
        assert out.startswith("[1]\n0 1\n1 0\n")

    def test_square_rejects_m(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "square", "--m", "2", "--n", "2"])
        assert code == 2
        assert "--m" in err

    def test_missing_m_for_rect(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "rect", "--n", "3"])
        assert code == 2
        assert "--m" in err

    def test_domain_error_exit(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "square", "--n", "1"])
        assert code == 1

    def test_centro_even_one_column_names_its_family(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "centro-even", "--m", "2", "--n", "1"])
        assert (code, out) == (1, "")
        assert err == "error: the even centrosymmetric family needs n >= 2\n"

    @pytest.mark.parametrize("size", [["--set", "rect", "--m", "100000", "--n", "100000"],
                                      ["--set", "square", "--n", "1001"],
                                      ["--set", "rect", "--m", "1000000", "--n", "2"],
                                      ["--set", "centro-even", "--m", "2000000", "--n", "2"],
                                      ["--set", "centro-odd", "--m", "2000001", "--n", "2"]],
                             ids=repr)
    def test_a_family_over_the_cap_is_refused_before_any_member(self, run_cli, monkeypatch,
                                                                size):
        # each family has just over DEFAULT_ENUMERATION_CAP members, or far more
        def refuse(*args):
            raise AssertionError("a basis member was built")

        monkeypatch.setattr(bases, "_unit_matrix", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(["basis", *size, "--verify"])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == "error: the number of basis members exceeds the cap of 1000000\n"

    @pytest.mark.parametrize("size", [["--set", "rect", "--m", "4000", "--n", "2"],
                                      ["--set", "rect", "--m", "2236", "--n", "2"],
                                      ["--set", "square", "--n", "57"],
                                      ["--set", "centro-odd", "--m", "45", "--n", "100"]],
                             ids=repr)
    def test_a_family_over_the_cell_cap_is_refused_before_any_member(self, run_cli, monkeypatch,
                                                                     size):
        # each family is under the member cap, and its members x m x n cells
        # are just over 10^7, or (rect 4000 x 2, 32 million) far over
        def refuse(*args):
            raise AssertionError("a basis member was built")

        monkeypatch.setattr(bases, "_unit_matrix", refuse)
        code, out, err = run_cli(["basis", *size, "--json"])
        assert (code, out) == (1, "")
        assert err == ("error: the number of basis cells (members x m x n) exceeds the cap"
                       " of 10000000\n")

    @pytest.mark.parametrize("family, size", [
        ("basis_rect", ["--set", "rect", "--m", "2235", "--n", "2"]),
        ("basis_square", ["--set", "square", "--n", "56"]),
        ("basis_centro_odd", ["--set", "centro-odd", "--m", "43", "--n", "100"]),
        # --verify shares the cap: at most 10^7 cells
        ("basis_centro_even", ["--set", "centro-even", "--m", "3160", "--n", "2", "--verify"]),
        ("basis_square", ["--set", "square", "--n", "56", "--verify"]),
        ("basis_rect", ["--set", "rect", "--m", "2235", "--n", "2", "--verify"]),
        ("basis_centro_odd", ["--set", "centro-odd", "--m", "3161", "--n", "2", "--verify"]),
    ], ids=repr)
    def test_a_family_at_most_the_cell_cap_is_built(self, run_cli, monkeypatch, family, size):
        def built(*args):
            raise CentrostochError("built")

        monkeypatch.setattr(cli, family, built)
        assert run_cli(["basis", *size]) == (1, "", "error: built\n")

    @pytest.mark.parametrize("size", [["--set", "centro-even", "--m", "128", "--n", "128"],
                                      ["--set", "centro-even", "--m", "68", "--n", "68"],
                                      ["--set", "square", "--n", "57"],
                                      ["--set", "rect", "--m", "2236", "--n", "2"],
                                      ["--set", "centro-odd", "--m", "3163", "--n", "2"]],
                             ids=repr)
    def test_verify_over_its_cell_cap_is_refused_before_any_member(self, run_cli, monkeypatch,
                                                                  size):
        # --verify's cap is the listing's: under the member cap, but over 10^7
        # cells, 133 million for centro-even 128 x 128 and just over 10^7 for
        # the others
        def refuse(*args):
            raise AssertionError("a basis member was built")

        monkeypatch.setattr(bases, "_unit_matrix", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(["basis", *size, "--verify"])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == ("error: the number of basis cells (members x m x n) exceeds the cap"
                       " of 10000000\n")

    def test_a_huge_shape_the_family_does_not_take_keeps_its_error(self, run_cli):
        code, out, err = run_cli(["basis", "--set", "centro-even", "--m", "100001",
                                  "--n", "100000"])
        assert (code, out) == (1, "")
        assert err == "error: the even centrosymmetric family needs even m >= 2\n"


class TestGraph:
    def test_edges_and_fill(self, run_cli):
        code, out, err = run_cli(["graph", "--fill"], S_TEXT)
        assert code == 0
        assert out == (
            "rows=3 cols=4 edges=4\n"
            "r1 -- s1\n"
            "r2 -- s2\n"
            "r2 -- s3\n"
            "r3 -- s4\n"
            "fill=1/3\n"
        )

    def test_dot(self, run_cli):
        code, out, err = run_cli(["graph", "--dot"], "2 2\n1 0\n0 1\n")
        assert code == 0
        assert out == (
            "graph zero_pattern {\n"
            "  rankdir=LR;\n"
            "  { rank=same; r1; r2; }\n"
            "  { rank=same; s1; s2; }\n"
            "  r1 -- s1;\n"
            "  r2 -- s2;\n"
            "}\n"
        )

    def test_dot_with_fill(self, run_cli):
        code, out, err = run_cli(["graph", "--dot", "--fill"], "2 2\n1 0\n0 1\n")
        assert code == 0
        assert out.startswith("graph zero_pattern {\n")
        assert out.endswith("}\nfill=1/2\n")

    def test_json(self, run_cli):
        code, out, err = run_cli(["graph", "--json", "--fill"], "2 2\n1 0\n0 1\n")
        payload = json.loads(out)
        assert payload == {
            "rows": 2,
            "cols": 2,
            "edges": [[1, 1], [2, 2]],
            "fill": "1/2",
        }


class TestFace:
    def test_support(self, run_cli):
        code, out, err = run_cli(["face", "support"], "2 2\n1 0\n0 0\n")
        assert code == 0
        assert out == "row_support=false\n"

    def test_vertices(self, run_cli):
        code, out, err = run_cli(
            ["face", "vertices", "--json"], "3 2\n1 1\n1 1\n0 1\n"
        )
        payload = json.loads(out)
        assert payload["count"] == 4

    def test_vertices_of_a_small_face_in_a_large_polytope(self, run_cli):
        # the identity face has one vertex; the 9 x 9 polytope has 9^9
        identity = "9 9\n" + "".join(
            " ".join("1" if j == i else "0" for j in range(9)) + "\n" for i in range(9)
        )
        code, out, err = run_cli(["face", "vertices"], identity)
        assert code == 0
        assert out.count("[") == 1
        assert out.startswith("[1]\n1 0 0 0 0 0 0 0 0\n")
        assert out.endswith("\n\ncount=1\n")

    @pytest.mark.parametrize(
        "centro, count", [([], 12), (["--centro"], 4)], ids=["plain", "centro"]
    )
    def test_vertices_cap_bounds_the_face(self, run_cli, centro, count):
        # this face has 12 vertices, 4 of them centrosymmetric; the whole
        # 3 x 3 polytope has 27, 6 of them centrosymmetric
        pattern = "3 3\n1 1 0\n1 1 1\n0 1 1\n"
        argv = ["face", "vertices", *centro, "--cap"]
        code, out, err = run_cli([*argv, str(count - 1)], pattern)
        assert code == 1
        assert "cap" in err
        assert out == ""
        code, out, err = run_cli([*argv, str(count)], pattern)
        assert code == 0
        assert out.endswith(f"\n\ncount={count}\n")

    def test_count_needs_support(self, run_cli):
        code, out, err = run_cli(["face", "count"], "2 2\n1 0\n0 0\n")
        assert code == 1

    def test_pattern_required(self, run_cli):
        code, out, err = run_cli(["face", "count"], "1 2\n1/2 1/2\n")
        assert code == 1

    def test_centro_count_on_asymmetric_pattern(self, run_cli):
        code, out, err = run_cli(["face", "count", "--centro"], "2 2\n1 1\n1 0\n")
        assert code == 1

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
    def test_count_too_long_to_print(self, run_cli, tmp_path, json_flag):
        # 2^15000 has more decimal digits than Python will convert to a string
        path = tmp_path / "ones.smx"
        path.write_text("15000 2\n" + "1 1\n" * 15000)
        code, out, err = run_cli(["face", "count", "--input", str(path), *json_flag])
        assert code == 1
        assert "too long to print" in err
        assert out == ""

    @pytest.fixture
    def counted(self, monkeypatch):
        # records the patterns whose vertices the CLI counts
        calls = []
        for name in ("count_face_vertices_stochastic", "count_face_vertices_centro"):
            counter = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda p, counter=counter: calls.append(p) or counter(p))
        return calls

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("centro", [False, True], ids=["stochastic", "centro"])
    def test_huge_count_refused_before_it_is_built(self, run_cli, counted, tmp_path, centro,
                                                   json_flag):
        # 4^15001, or 4^7500 * 2 for centro: counted once, as a few powers,
        # and refused by str() before any digit of it is converted
        path = tmp_path / "tall.smx"
        path.write_text("15001 4\n" + "1 1 1 1\n" * 15001)
        argv = ["face", "count", *(["--centro"] if centro else []), "--input", str(path)]
        code, out, err = run_cli([*argv, *json_flag])
        assert (code, out, err) == (1, "", "error: the result has a number too long to print\n")
        assert len(counted) == 1

    @pytest.mark.parametrize("rows, printed", [(9000, True), (9100, False)])
    def test_count_near_the_limit_is_built_then_judged(self, run_cli, counted, tmp_path, rows,
                                                       printed):
        # 3^9000 has 4295 digits and prints; 3^9100 has 4342 and is refused
        path = tmp_path / "ones.smx"
        path.write_text(f"{rows} 3\n" + "1 1 1\n" * rows)
        code, out, err = run_cli(["face", "count", "--input", str(path)])
        assert len(counted) == 1
        if printed:
            assert (code, out, err) == (0, f"{3**rows}\n", "")
        else:
            assert (code, out, err) == (1, "", "error: the result has a number too long to print\n")


class TestNormalize:
    def test_emits_smx(self, run_cli):
        code, out, err = run_cli(["normalize", "--centro-and"], "2 2\n1 1\n1 0\n")
        assert code == 0
        assert out == "2 2\n0 1\n1 0\n"

    def test_output_feeds_back_in(self, run_cli):
        code, out, err = run_cli(["normalize", "--centro-and"], ALL_ONES_3)
        assert parse_matrix(out) == Matrix([[1, 1, 1]] * 3)

    def test_entry_too_long_to_print(self, run_cli):
        # the smallest accepted exponent gives a 4301-digit denominator
        code, out, err = run_cli(["normalize", "--centro-and"], "1 1\n1e-4300\n")
        assert code == 1
        assert err == "error: the result has a number too long to print\n"
        assert out == ""


class TestErrors:
    def test_bad_smx_is_usage_error(self, run_cli):
        code, out, err = run_cli(["check"], "garbage\n")
        assert code == 2
        assert "error" in err

    def test_exponent_out_of_range_is_usage_error(self, run_cli):
        code, out, err = run_cli(["check"], "1 1\n1e-5000\n")
        assert code == 2
        assert "exponent" in err
        assert out == ""

    def test_unknown_command(self, run_cli):
        code, out, err = run_cli(["frobnicate"])
        assert code == 2

    def test_missing_input_file(self, run_cli):
        code, out, err = run_cli(["check", "--input", "/nonexistent/matrix.smx"])
        assert code == 2

    def test_input_file_not_utf8(self, run_cli, tmp_path):
        path = tmp_path / "bad.smx"
        path.write_bytes(b"1 1\n\xff\n")
        code, out, err = run_cli(["check", "--input", str(path)])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    # each subcommand that reads a matrix, as it is called
    READERS = [["check"], ["decompose"], ["decompose", "--centro"], ["graph"], ["face", "count"],
               ["face", "vertices"], ["face", "support"], ["normalize", "--centro-and"]]

    @pytest.mark.parametrize("source", ["stdin", "file"])
    @pytest.mark.parametrize("argv", READERS, ids=" ".join)
    def test_undecodable_input_is_usage_error(self, monkeypatch, capsys, tmp_path, argv, source):
        # stdin that decodes strictly, as under a UTF-8 locale; a file is
        # always read as UTF-8
        data = b"1 1\n\xff\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        else:
            path = tmp_path / "bad.smx"
            path.write_bytes(data)
            argv = [*argv, "--input", str(path)]
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: the input is not utf-8 text: invalid start byte\n"

    def test_undecodable_stdin_in_a_fresh_process(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "centrostoch", "check"],
            input=b"1 1\n\xff\n",
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr

    def test_empty_input_path_is_a_missing_file(self, run_cli):
        # not stdin: an empty path names no file
        code, out, err = run_cli(["check", "--input", ""], "1 1\n1\n")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_input_file(self, run_cli, tmp_path):
        path = tmp_path / "s.smx"
        path.write_text(S_TEXT)
        code, out, err = run_cli(["check", "--input", str(path)])
        assert code == 0
        assert "centrosymmetric=true" in out


class TestInputLineBreaks:
    """An --input file is read as bytes and decoded once; its line breaks
    read as they do from stdin."""

    READERS = [["check"], ["decompose"], ["decompose", "--centro", "--json"]]
    # (SMX text, exit code): a line's number shows in the bad token's error
    TEXTS = [(S_TEXT, 0), ("# a comment\n\n2 2\n1/2 1/2\n  1/2 1/2\n", 0), ("2 2\n1 0\nx 1\n", 2)]

    def stdin_run(self, monkeypatch, capsys, argv, data):
        # stdin as the interpreter opens it under a UTF-8 locale
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = run_command(argv)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\f", "mixed"])
    @pytest.mark.parametrize("text, code", TEXTS, ids=["centro", "comment", "bad token"])
    @pytest.mark.parametrize("argv", READERS, ids=" ".join)
    def test_same_output_as_lf(self, run_cli, monkeypatch, capsys, tmp_path, argv, text, code,
                               newline):
        lines = text.split("\n")
        breaks = cycle(["\r\n", "\r", "\n", "\f"]) if newline == "mixed" else repeat(newline)
        data = lines[0] + "".join(brk + line for brk, line in zip(breaks, lines[1:]))
        lf_path, path = tmp_path / "lf.smx", tmp_path / "other.smx"
        lf_path.write_bytes(text.encode())
        path.write_bytes(data.encode())
        expected = run_cli([*argv, "--input", str(lf_path)])
        assert expected[0] == code
        assert run_cli([*argv, "--input", str(path)]) == expected
        assert self.stdin_run(monkeypatch, capsys, argv, data.encode()) == expected
        assert self.stdin_run(monkeypatch, capsys, argv, text.encode()) == expected

    @pytest.mark.parametrize("data, reason", [
        (b"1 1\r\n\xff\r\n", "invalid start byte"),
        (b"1 1\r1\r\xe2\x82", "unexpected end of data"),
        (b"1 1\n1 \xc3\x28\n", "invalid continuation byte"),
    ])
    @pytest.mark.parametrize("argv", READERS, ids=" ".join)
    def test_undecodable_file(self, run_cli, tmp_path, argv, data, reason):
        path = tmp_path / "bad.smx"
        path.write_bytes(data)
        assert run_cli([*argv, "--input", str(path)]) == (
            2, "", f"error: the input is not utf-8 text: {reason}\n")


class TestStdinDecodesAsAFile:
    """Stdin is read as bytes and decoded as UTF-8, as a file is, whatever
    the locale: in a fresh process the same bytes give the same exit code,
    stdout and stderr from stdin and from --input."""

    # LC_ALL, or None for PYTHONIOENCODING=utf-8; under the C and C.UTF-8
    # locales the interpreter's own stdin decodes with surrogateescape
    ENVIRONMENTS = ["C", "C.UTF-8", None]
    BAD = "error: the input is not utf-8 text: invalid start byte\n"
    # (bytes, exit code, stderr): a bad byte in a comment line and in a data
    # line, then a comment that is UTF-8
    INPUTS = [(b"# \xff\n1 1\n1\n", 2, BAD), (b"1 1\n\xff\n", 2, BAD),
              ("# café\n1 1\n1\n".encode(), 0, "")]

    @staticmethod
    def run(argv, data, locale):
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONIOENCODING", "LC_ALL")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if locale is None:
            env["PYTHONIOENCODING"] = "utf-8"
        else:
            env["LC_ALL"] = locale
        proc = subprocess.run([sys.executable, "-m", "centrostoch", *argv], input=data,
                              capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    @pytest.mark.parametrize("data, code, err", INPUTS, ids=["comment", "data", "utf-8"])
    @pytest.mark.parametrize("locale", ENVIRONMENTS, ids=str)
    def test_stdin_and_a_file_read_alike(self, tmp_path, locale, data, code, err):
        path = tmp_path / "input.smx"
        path.write_bytes(data)
        from_stdin = self.run(["check"], data, locale)
        assert from_stdin == self.run(["check", "--input", str(path)], b"", locale)
        assert from_stdin[0] == code and from_stdin[2] == err
        if code:
            assert from_stdin[1] == ""
