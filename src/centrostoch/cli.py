"""Command-line interface.

Matrix-reading commands take SMX text from --input FILE or stdin and print
exact rational results; --json swaps the human layout for a JSON document.
Exit codes: 0 success, 1 domain error (bad matrix for the requested
operation), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from centrostoch.bases import (
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
)
from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    CentrostochError,
    Matrix,
    is_centrosymmetric,
    is_stochastic,
    rank_of_family,
    rotate_pi,
)
from centrostoch.decompose import decompose_centrosymmetric, decompose_stochastic
from centrostoch.extremes import (
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    is_extreme_centro,
    is_extreme_stochastic,
)
from centrostoch.faces import (
    FacePattern,
    _choice_sizes,
    count_face_vertices_centro,
    count_face_vertices_stochastic,
    enumerate_face_vertices,
    has_row_support_centro,
    has_row_support_stochastic,
)
from centrostoch.graphs import BipartiteGraph, bipartite_of, fill
from centrostoch.smx import SmxError, format_matrix, parse_matrix

__all__ = ["build_parser", "run_command", "main"]


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


_TOO_LONG = "the result has a number too long to print"


def _text(value, render=str):
    """render(value): the printed text of a number or of a matrix's entries.

    Every number the CLI prints goes through here. str() refuses an int with
    more digits than the interpreter's int-to-str limit with ValueError;
    that becomes CentrostochError, so the command exits 1 with one error
    line instead of a traceback.
    """
    try:
        return render(value)
    except ValueError:
        raise CentrostochError(_TOO_LONG) from None


def _refuse_long_product(factors: list[int]) -> None:
    """Refuse as `_text` would, before multiplying, a product of positive
    ints that provably has more digits than str() converts.

    Each factor f is at least 2^(bit length - 1), and 2^L has at least
    floor(L * 0.30102) + 1 decimal digits. Products this bound cannot place
    beyond the limit are left to be built and given to `_text`, so exactly
    the same products are refused, the huge ones without a quadratic-time
    multiplication.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = sum(f.bit_length() - 1 for f in factors)
    if limit and bits * 30102 // 100000 + 1 > limit:
        raise CentrostochError(_TOO_LONG)


def _matrix_lines(mat: Matrix) -> list[str]:
    # the JSON layout's cells, column-aligned; lines carry no trailing blanks
    cells = _matrix_json(mat)
    widths = [max(len(row[c]) for row in cells) for c in range(mat.ncols)]
    return [
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]


def _matrix_json(mat: Matrix) -> list[list[str]]:
    return _text(mat.entries, lambda rows: [[str(x) for x in row] for row in rows])


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


class _UnitRows(dict):
    """column -> the rendered unit row of length n with its 1 there (JSON
    cells, or a text line), built on first use. Every cell of a matrix of
    unit rows is "0" or "1", so its columns are all one character wide and
    each row renders the same whatever rows surround it."""

    def __init__(self, n: int, as_json: bool) -> None:
        super().__init__()
        self.n, self.as_json = n, as_json

    def __missing__(self, c: int):
        cells = ["0"] * self.n
        cells[c - 1] = "1"
        row = self[c] = cells if self.as_json else " ".join(cells)
        return row


def _print_blocks(blocks, tail: str | None = None) -> None:
    # blocks are (matrix lines, header suffix): "[k]<suffix>" and the lines,
    # with a blank line between consecutive blocks and before the tail line;
    # all of it is rendered before any is written, so a failure leaves
    # stdout empty
    chunks = ["\n".join([f"[{k}]{suffix}", *lines])
              for k, (lines, suffix) in enumerate(blocks, 1)]
    if tail is not None:
        chunks.append(tail)
    print("\n\n".join(chunks))


def _print_report(report: dict, as_json: bool) -> int:
    # one key=true|false line per predicate, or the JSON object
    if as_json:
        _print_json(report)
    else:
        for key, value in report.items():
            print(f"{key}={_bool_word(value)}")
    return 0


def _print_listing(mats: list[Matrix], as_json: bool) -> int:
    # numbered matrices followed by their count, or the JSON equivalent
    if as_json:
        _print_json({"count": len(mats), "matrices": [_matrix_json(m) for m in mats]})
    else:
        _print_blocks(((_matrix_lines(mat), "") for mat in mats), f"count={len(mats)}")
    return 0


def _read_matrix(ns) -> Matrix:
    if ns.input:
        with open(ns.input, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise SmxError(f"the input file is not UTF-8 text: {exc.reason}") from None
    else:
        text = sys.stdin.read()
    return parse_matrix(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_check(ns) -> int:
    mat = _read_matrix(ns)
    report = {
        "stochastic": is_stochastic(mat),
        "centrosymmetric": is_centrosymmetric(mat),
        "extreme_stochastic": is_extreme_stochastic(mat),
        "extreme_centrosymmetric": is_extreme_centro(mat),
    }
    return _print_report(report, ns.json)


def _cmd_decompose(ns) -> int:
    mat = _read_matrix(ns)
    comb = decompose_centrosymmetric(mat) if ns.centro else decompose_stochastic(mat)
    # a term of unit rows comes as its column tuple and is rendered from
    # cached rows; a centre row's 1/2 cells widen their columns, so a term
    # with one comes as a Matrix and takes the generic path
    units = _UnitRows(mat.ncols, ns.json)
    generic = _matrix_json if ns.json else _matrix_lines

    def render(term) -> list:
        return generic(term) if isinstance(term, Matrix) else [units[c] for c in term]

    terms = comb._unit_terms()
    if ns.json:
        _print_json(
            {"terms": [{"coefficient": _text(c), "matrix": render(term)} for c, term in terms]}
        )
        return 0
    _print_blocks((render(term), f" coefficient={_text(c)}") for c, term in terms)
    return 0


def _cmd_enumerate(ns) -> int:
    if ns.centro:
        mats = list(enumerate_extreme_centro(ns.m, ns.n, cap=ns.cap))
    else:
        mats = [r.to_matrix() for r in enumerate_extreme_stochastic(ns.m, ns.n, cap=ns.cap)]
    return _print_listing(mats, ns.json)


def _cmd_basis(ns) -> int:
    if ns.set == "square":
        if ns.m is not None:
            return _usage_error("--m does not apply to the square family")
        family = basis_square(ns.n)
    else:
        if ns.m is None:
            return _usage_error(f"--m is required for the {ns.set} family")
        builder = {
            "rect": basis_rect,
            "centro-even": basis_centro_even,
            "centro-odd": basis_centro_odd,
        }[ns.set]
        family = builder(ns.m, ns.n)
    rank = independent = None
    if ns.verify:
        rank = rank_of_family(family)
        independent = rank == len(family)
    if ns.json:
        payload = {
            "count": len(family),
            "matrices": [_matrix_json(m) for m in family],
        }
        if ns.verify:
            payload["rank"] = rank
            payload["independent"] = independent
        _print_json(payload)
        return 0
    tail = f"rank={rank} independent={_bool_word(independent)}" if ns.verify else None
    _print_blocks(((_matrix_lines(mat), "") for mat in family), tail)
    return 0


def _dot_document(graph: BipartiteGraph) -> str:
    lines = ["graph zero_pattern {", "  rankdir=LR;"]
    row_names = "; ".join(f"r{i}" for i in range(1, graph.row_count + 1))
    col_names = "; ".join(f"s{j}" for j in range(1, graph.col_count + 1))
    lines.append(f"  {{ rank=same; {row_names}; }}")
    lines.append(f"  {{ rank=same; {col_names}; }}")
    for i, j in graph.sorted_edges():
        lines.append(f"  r{i} -- s{j};")
    lines.append("}")
    return "\n".join(lines)


def _cmd_graph(ns) -> int:
    mat = _read_matrix(ns)
    graph = bipartite_of(mat)
    if ns.json:
        payload = {
            "rows": graph.row_count,
            "cols": graph.col_count,
            "edges": [[i, j] for i, j in graph.sorted_edges()],
        }
        if ns.fill:
            payload["fill"] = str(fill(graph))
        if ns.dot:
            payload["dot"] = _dot_document(graph)
        _print_json(payload)
        return 0
    if ns.dot:
        lines = [_dot_document(graph)]
    else:
        lines = [f"rows={graph.row_count} cols={graph.col_count} edges={len(graph.edges)}"]
        lines += [f"r{i} -- s{j}" for i, j in graph.sorted_edges()]
    if ns.fill:
        lines.append(f"fill={fill(graph)}")
    print("\n".join(lines))
    return 0


def _cmd_face(ns) -> int:
    pattern = FacePattern(_read_matrix(ns))
    if ns.centro:
        counter, supported = count_face_vertices_centro, has_row_support_centro
    else:
        counter, supported = count_face_vertices_stochastic, has_row_support_stochastic
    if ns.action == "support":
        return _print_report({"row_support": supported(pattern)}, ns.json)
    if ns.action == "count":
        _refuse_long_product(_choice_sizes(pattern, ns.centro))
        count = counter(pattern)
        text = _text(count)
        if ns.json:
            _print_json({"count": count})
        else:
            print(text)
        return 0
    mats = list(enumerate_face_vertices(pattern, centro=ns.centro, cap=ns.cap))
    return _print_listing(mats, ns.json)


def _cmd_normalize(ns) -> int:
    mat = _read_matrix(ns)
    result = mat.entrywise_min(rotate_pi(mat))
    if ns.json:
        _print_json({"matrix": _matrix_json(result)})
    else:
        print(_text(result, format_matrix), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centrostoch",
        description="Exact computations in the stochastic and centrosymmetric "
        "stochastic matrix polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p):
        p.add_argument("--input", metavar="FILE", help="read SMX text from FILE instead of stdin")
        p.add_argument("--json", action="store_true", help="emit JSON")

    def with_cap(p):
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_ENUMERATION_CAP,
            metavar="N",
            help="refuse enumerations longer than N",
        )

    p_check = sub.add_parser("check", help="report the structural predicates of a matrix")
    with_io(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_dec = sub.add_parser("decompose", help="decompose into extreme points")
    with_io(p_dec)
    p_dec.add_argument("--centro", action="store_true", help="decompose in the centrosymmetric polytope")
    p_dec.set_defaults(handler=_cmd_decompose)

    p_enum = sub.add_parser("enumerate", help="enumerate extreme points")
    p_enum.add_argument("--extremes", action="store_true", required=True, help="enumerate extreme points")
    p_enum.add_argument("--centro", action="store_true", help="use the centrosymmetric polytope")
    p_enum.add_argument("--m", type=int, required=True, help="row count")
    p_enum.add_argument("--n", type=int, required=True, help="column count")
    p_enum.add_argument("--json", action="store_true", help="emit JSON")
    with_cap(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_basis = sub.add_parser("basis", help="emit a basis family")
    p_basis.add_argument(
        "--set",
        required=True,
        choices=["square", "rect", "centro-even", "centro-odd"],
        help="which family to build",
    )
    p_basis.add_argument("--m", type=int, help="row count (not used by square)")
    p_basis.add_argument("--n", type=int, required=True, help="column count")
    p_basis.add_argument("--verify", action="store_true", help="append an exact rank check")
    p_basis.add_argument("--json", action="store_true", help="emit JSON")
    p_basis.set_defaults(handler=_cmd_basis)

    p_graph = sub.add_parser("graph", help="bipartite graph of the zero pattern")
    with_io(p_graph)
    p_graph.add_argument("--dot", action="store_true", help="emit a DOT document")
    p_graph.add_argument("--fill", action="store_true", help="include the fill ratio")
    p_graph.set_defaults(handler=_cmd_graph)

    p_face = sub.add_parser("face", help="faces cut out by a (0,1) pattern")
    p_face.add_argument("action", choices=["count", "vertices", "support"])
    with_io(p_face)
    p_face.add_argument("--centro", action="store_true", help="use the centrosymmetric polytope")
    with_cap(p_face)
    p_face.set_defaults(handler=_cmd_face)

    p_norm = sub.add_parser("normalize", help="normalize a pattern")
    with_io(p_norm)
    p_norm.add_argument(
        "--centro-and",
        dest="centro_and",
        action="store_true",
        required=True,
        help="entrywise minimum with the half-turn rotation",
    )
    p_norm.set_defaults(handler=_cmd_normalize)

    return parser


def run_command(argv) -> int:
    """Parse argv (no program name) and run the command; returns the exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return ns.handler(ns)
    except (SmxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CentrostochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
