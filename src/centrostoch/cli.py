"""Command-line interface.

Matrix-reading commands take SMX text from --input FILE or stdin and print
exact rational results; --json swaps the human layout for a JSON document.
Exit codes: 0 success, 1 domain error (bad matrix for the requested
operation), 2 usage or parse error.

Every matrix that `decompose`, `enumerate`, `face vertices` and `basis` list
is an extreme point, so it is printed from its vertex (`core._Vertex`): each
row is rendered once per command and shared by every matrix that has it.
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
    _vertex,
    _vertex_of,
    _Vertex,
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


def _word(value) -> str:
    # a printed value, with JSON's spelling of a bool
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


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


def _matrix_json(mat: Matrix) -> list[list[str]]:
    return _text(mat.entries, lambda rows: [[str(x) for x in row] for row in rows])


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


class _Rows(dict):
    """(column, centre) -> a rendered row of a listed n-column extreme point
    (JSON cells, or a text line), built on first use.

    A vertex's matrix has a unit row with its 1 in `column` per entry of
    its column tuple and, when its `centre` is not None, the centre row
    (`column` None) with 1/2 in columns centre and n+1-centre. In text those
    two columns are three characters wide in every row of the matrix and
    the others one, so a row renders the same whatever rows surround it.
    """

    def __init__(self, n: int, as_json: bool) -> None:
        super().__init__()
        self.n, self.as_json = n, as_json

    def __missing__(self, key: tuple[int | None, int | None]):
        column, centre = key
        cells = ["0"] * self.n
        if column is None:
            cells[centre - 1] = cells[self.n - centre] = "1/2"
        else:
            cells[column - 1] = "1"
        if not self.as_json:
            if centre is not None:
                for k in (centre - 1, self.n - centre):
                    cells[k] = cells[k].rjust(3)
            cells = " ".join(cells)
        self[key] = cells
        return cells

    def matrix(self, vertex: _Vertex) -> list:
        rows = [self[c, vertex.center] for c in vertex.cols]
        if vertex.center is not None:
            rows.insert(len(rows) // 2, self[None, vertex.center])
        return rows


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
            print(f"{key}={_word(value)}")
    return 0


def _print_listing(vertices: list[_Vertex], n: int, as_json: bool, footer: dict) -> int:
    # numbered matrices, then the footer's key=value pairs on one line when
    # there are any; in JSON the count and the matrices, then the footer (a
    # count there is the same count and keeps its place)
    rows = _Rows(n, as_json)
    mats = [rows.matrix(v) for v in vertices]
    if as_json:
        _print_json({"count": len(mats), "matrices": mats, **footer})
    else:
        tail = " ".join(f"{key}={_word(value)}" for key, value in footer.items())
        _print_blocks(((mat, "") for mat in mats), tail or None)
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
    rows = _Rows(mat.ncols, ns.json)
    terms = [(_text(c), rows.matrix(v)) for c, v in comb._vertex_terms()]
    if ns.json:
        _print_json({"terms": [{"coefficient": c, "matrix": mat} for c, mat in terms]})
    else:
        _print_blocks((mat, f" coefficient={c}") for c, mat in terms)
    return 0


def _cmd_enumerate(ns) -> int:
    if ns.centro:
        vertices = list(map(_vertex_of, enumerate_extreme_centro(ns.m, ns.n, cap=ns.cap)))
    else:
        plain = enumerate_extreme_stochastic(ns.m, ns.n, cap=ns.cap)
        vertices = [_vertex(r.row_to_col, ns.n) for r in plain]
    return _print_listing(vertices, ns.n, ns.json, {"count": len(vertices)})


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
    footer = {}
    if ns.verify:
        rank = rank_of_family(family)
        footer = {"rank": rank, "independent": rank == len(family)}
    return _print_listing(list(map(_vertex_of, family)), ns.n, ns.json, footer)


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
    mats = enumerate_face_vertices(pattern, centro=ns.centro, cap=ns.cap)
    vertices = list(map(_vertex_of, mats))
    return _print_listing(vertices, pattern.ncols, ns.json, {"count": len(vertices)})


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
