"""Command-line interface: golden outputs, exit codes, JSON shapes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from centrostoch import (
    Matrix,
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
    parse_matrix,
    rank_of_family,
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

    @JSON_FLAGS
    @CENTRO_FLAGS
    def test_enumerate(self, run_cli, centro, json_flag):
        for m, n in self.SHAPES:
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
        for m, n in [*self.SHAPES, (4, 4)]:
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

    def test_plain_enumerate_builds_no_dense_matrix(self, run_cli, monkeypatch):
        from centrostoch.core import RectPermMatrix, _unit_matrix

        units, dense = [], []

        def counting(*args):
            units.append(args)
            return _unit_matrix(*args)

        # every module that binds the builder, so an import of it counts too
        for name, module in list(sys.modules.items()):
            if name.startswith("centrostoch") and getattr(module, "_unit_matrix", None) is _unit_matrix:
                monkeypatch.setattr(module, "_unit_matrix", counting)
        to_matrix = RectPermMatrix.to_matrix
        monkeypatch.setattr(RectPermMatrix, "to_matrix", lambda r: dense.append(r) or to_matrix(r))
        for json_flag in ([], ["--json"]):
            code, out, err = run_cli(["enumerate", "--extremes", "--m", "3", "--n", "4", *json_flag])
            assert (code, err) == (0, "")
        assert (units, dense) == ([], [])
        # the same counters see the plain face enumerator build its two vertices
        code, out, err = run_cli(["face", "vertices"], "2 2\n1 1\n0 1\n")
        assert code == 0 and len(units) == len(dense) == 2


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
        import centrostoch.cli as cli

        calls = []
        for name in ("count_face_vertices_stochastic", "count_face_vertices_centro"):
            counter = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda p, counter=counter: calls.append(p) or counter(p))
        return calls

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("centro", [False, True], ids=["stochastic", "centro"])
    def test_huge_count_refused_before_it_is_built(self, run_cli, counted, tmp_path, centro,
                                                   json_flag):
        # 4^15001, or 4^7500 * 2 for centro: the factors' bit lengths alone
        # prove more than 4300 digits, so the count is never multiplied out
        path = tmp_path / "tall.smx"
        path.write_text("15001 4\n" + "1 1 1 1\n" * 15001)
        argv = ["face", "count", *(["--centro"] if centro else []), "--input", str(path)]
        code, out, err = run_cli([*argv, *json_flag])
        assert (code, out, err) == (1, "", "error: the result has a number too long to print\n")
        assert counted == []

    @pytest.mark.parametrize("rows, printed", [(9000, True), (9100, False)])
    def test_count_near_the_limit_is_built_then_judged(self, run_cli, counted, tmp_path, rows,
                                                       printed):
        # 3^9000 has 4295 digits and prints; 3^9100 has 4342 and is refused,
        # though the bit-length bound proves only 2740 for it
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

    def test_input_file(self, run_cli, tmp_path):
        path = tmp_path / "s.smx"
        path.write_text(S_TEXT)
        code, out, err = run_cli(["check", "--input", str(path)])
        assert code == 0
        assert "centrosymmetric=true" in out
