"""Command-line interface.

Matrix-reading commands take SMX text from --input FILE or stdin and print
exact rational results; --json swaps the human layout for a JSON document.
A file or stdin is read as bytes (`sys.stdin.buffer`, whatever the locale)
and decoded once as UTF-8, with no text wrapper: `parse_matrix` splits
lines with `str.splitlines`, which takes \r\n, \r and \n alike. An empty
path is a file name like any other, not stdin.
Exit codes: 0 success, 1 domain error (bad matrix for the requested
operation), 2 usage or parse error, input that does not decode included.

Every matrix that `decompose`, `enumerate`, `face vertices` and `basis` list
is an extreme point, so it is printed from its rows: each row is rendered
once per command (`_CentreRows`) and shared among every matrix that has
it, and a matrix's text is one join of its cached rows in C. In JSON a
rendered row is its finished `json.dumps(indent=2)` text at the nesting
the command puts it. `decompose`, `face vertices` and `basis` hold their
points' vertices (`core._Vertex`), and `_texts` renders those, a centre row
joined onto the row above it. `enumerate` builds no point: a listing of a
whole polytope is the product of each free row's column choices (the
paper's Birkhoff theorem), which `extremes._choices` gives after every
check and refusal of the public enumerators, so `_product_texts` joins the
tuples of `itertools.product` over the rows' rendered rows, and the count
is the product of the choices' sizes. No listing holds its texts.

Two writers put those texts on stdout, with write policies that differ on
purpose, as measured. `_print_blocks` numbers the matrices of a text
listing and joins 256 blocks per write (a write per item cost census about
2.6% `op_p90_ms`). `_print_items` writes a JSON document as a fixed head,
one `str.format` per item (a decomposition term or a listed matrix) and a
tail, one item per write, so the document is never held whole (joining
4-6 KB items into 64 KB writes cost 16x16 and 20x20 `decompose --json`
about 10%). `check`, `graph`, `face count`, `face support` and
`normalize` print small flat documents through `json.dumps`
(`_print_json`). Every printed number goes through `_text`, the one place
that refuses a number too long to print, and every refusal comes before
the first write, so a refused command leaves stdout empty. A
decomposition's coefficients are int pairs (`core._Ratio`) that print as
their Fractions, so `decompose` builds none.

The table `_COMMANDS` is the grammar: each command's options, stated once.
A command line is read by one of two routes, both giving what
`build_parser().parse_args` gives: a clean line (a command name, then only
exact flags, exact one-value options with values that do not start with
"-", and positionals, every value valid) in one pass over the table; every
other line (help, an abbreviation, `--opt=value`, `--`, a value that starts
with "-", a bad value, a missing or extra argument) by an argparse parser
built from the table on first need, so help, usage errors and exit codes
stay argparse's. Only that route imports argparse, and only `_print_json`
json, so a clean line loads neither. See `_parse_args`.

`basis` refuses a family of more than DEFAULT_ENUMERATION_CAP members or
_BASIS_CELL_CAP cells, with or without --verify, from its closed-form size
(`bases._family_size`), before any member is built.
"""

from __future__ import annotations

import functools
import sys
from itertools import chain, count, islice, product, repeat
from math import prod
from operator import add, attrgetter, itemgetter
from types import SimpleNamespace

from centrostoch.bases import (
    _family_size,
    basis_centro_even,
    basis_centro_odd,
    basis_rect,
    basis_square,
)
from centrostoch.core import (
    DEFAULT_ENUMERATION_CAP,
    CentrostochError,
    EnumerationCapError,
    Matrix,
    is_centrosymmetric,
    is_stochastic,
    rank_of_family,
    rotate_pi,
)
from centrostoch.decompose import decompose_centrosymmetric, decompose_stochastic
from centrostoch.extremes import (
    _choices,
    enumerate_extreme_centro,
    enumerate_extreme_stochastic,
    is_extreme_centro,
    is_extreme_stochastic,
)
from centrostoch.faces import (
    FacePattern,
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


def _text(value, render=str):
    """render(value): the printed text of a number or of a matrix's entries.

    Every number the CLI prints goes through here. str() refuses an int with
    more digits than the interpreter's int-to-str limit with ValueError,
    before converting it; that becomes CentrostochError, so the command
    exits 1 with one error line instead of a traceback.
    """
    try:
        return render(value)
    except ValueError:
        raise CentrostochError("the result has a number too long to print") from None


def _matrix_json(mat: Matrix) -> list[list[str]]:
    return _text(mat.entries, lambda rows: [[str(x) for x in row] for row in rows])


def _texts(vertices, n: int, pad: str | None = None, sep: str = "\n"):
    """The text of each n-column vertex's matrix, its rows joined by `sep`
    in C, lazily: a unit row per entry of its column tuple and, when its
    centre is not None, the centre row in the middle. With `pad` (a newline
    and a row's indent) a row is its JSON text in the indent=2 layout, from
    that newline to its closing bracket; without, it is a text line.

    Each centre (None for none) has one `_CentreRows` and a layout, a row
    dict per place of the column tuple; the one at the last top-half place
    appends `sep` and the centre row. A one-row matrix is its one row.
    """
    plain = _CentreRows(n, pad, None)
    cols = map(attrgetter("cols"), vertices)
    if not any(map(attrgetter("center"), vertices)):
        return map(sep.join, map(map, repeat(plain.__getitem__), cols))
    centres = list(map(attrgetter("center"), vertices))
    rows = {c: _CentreRows(n, pad, c) for c in set(centres) - {None}}
    m = vertices[0].shape[0]
    if m == 1:
        return [rows[v.center][None] if v.center else plain[v.cols[0]] for v in vertices]
    half, layouts = m // 2, {None: (plain,) * m}
    for c, centre_rows in rows.items():
        joined = _CentreRows(n, pad, c, centre_rows, sep)
        layouts[c] = (centre_rows,) * (half - 1) + (joined,) + (centre_rows,) * half
    return map(sep.join, map(map, repeat(dict.__getitem__), map(layouts.get, centres), cols))


_REVERSED = itemgetter(slice(None, None, -1))  # a tuple, reversed in C


def _product_texts(kept, m: int, n: int, centro: bool, pad: str | None = None, sep: str = "\n"):
    """The texts, as `_texts` gives them, of the extreme points whose free
    rows choose their columns from `kept` (as `extremes._choices` gives
    it), in the public enumerators' order, lazily and with no point built:
    each is `sep` joined over one tuple of `itertools.product` over the
    free rows' rendered rows.

    Under the half turn the bottom half is the reversed tuple of a product
    of the mirrored rows n + 1 - c, run in lockstep with the top half's.
    For odd m each centre choice has its own stream, with its `_CentreRows`
    (a middle-column centre is a plain unit row), and `zip` interleaves the
    streams so that the centre cycles fastest.
    """
    plain = _CentreRows(n, pad, None)
    if not centro:
        return map(sep.join, product(*[map(plain.__getitem__, row) for row in kept]))
    half = m // 2

    def stream(rows, *centre):
        # the points whose rows render as `rows`, `centre` their centre row
        tops = product(*[map(rows.__getitem__, row) for row in kept[:half]], *centre)
        bottoms = product(*[[rows[n + 1 - c] for c in row] for row in kept[:half]])
        return map(sep.join, map(add, tops, map(_REVERSED, bottoms)))

    if m % 2 == 0:
        return stream(plain)
    streams = []
    for c in kept[half]:
        if 2 * c == n + 1:
            streams.append(stream(plain, [plain[c]]))
        else:
            rows = _CentreRows(n, pad, c)
            streams.append(stream(rows, [rows[None]]))
    return chain.from_iterable(zip(*streams))


class _CentreRows(dict):
    """column -> the rendered unit row with its 1 in `column`, and None ->
    the centre row, 1/2 in columns centre and n+1-centre, of the matrices
    whose centre is `centre`; each is built on first use. With `above`,
    a column's row is instead `above`'s, `sep` and `above`'s centre row.

    In text the two centre columns are three characters wide in every row
    of such a matrix and the others one, so a row renders the same whatever
    rows surround it.
    """

    def __init__(self, n: int, pad: str | None, centre: int | None, above=None, sep="") -> None:
        self.n, self.pad, self.centre, self.above, self.sep = n, pad, centre, above, sep

    def __missing__(self, column: int | None) -> str:
        if self.above is not None:
            text = self[column] = self.above[column] + self.sep + self.above[None]
            return text
        # the cells as JSON strings, or as text
        zero, one, half = ('"0"', '"1"', '"1/2"') if self.pad is not None else ("0", "1", "1/2")
        cells = [zero] * self.n
        if column is None:
            cells[self.centre - 1] = cells[self.n - self.centre] = half
        else:
            cells[column - 1] = one
        if self.pad is not None:
            inner = self.pad + "  "
            text = f"{self.pad}[{inner}{(',' + inner).join(cells)}{self.pad}]"
        else:
            if self.centre is not None:
                for k in (self.centre - 1, self.n - self.centre):
                    cells[k] = cells[k].rjust(3)
            text = " ".join(cells)
        self[column] = text
        return text


def _print_json(doc: dict) -> None:
    # a small flat document: check, graph, face count or support, normalize
    import json

    print(json.dumps(doc, indent=2))


def _print_items(head: str, item: str, tail: str, *fields) -> None:
    """Write head, then item.format(sep, *values) for each values of
    zip(*fields), then tail and a newline, to stdout one item at a time.

    sep is a comma before every item but the first. This is a JSON document
    in the indent=2 layout when head, item and tail are its fragments around
    the list of items; the items are never held together.
    """
    out = sys.stdout
    out.write(head)
    out.writelines(map(item.format, chain([""], repeat(",")), *fields))
    out.write(tail + "\n")


def _print_blocks(bodies, suffixes=repeat(""), tail: str | None = None) -> None:
    # each body (a matrix's text) under its header "[k]<suffix>", with a
    # blank line between consecutive blocks and before the tail line, joined
    # and written 256 blocks at a time; every refusal comes before the first
    # write, so a failure leaves stdout empty
    out, blocks = sys.stdout, map("[{}]{}\n{}".format, count(1), suffixes, bodies)
    out.write("\n\n".join(islice(blocks, 256)))
    for chunk in iter(lambda: "\n\n".join(islice(blocks, 256)), ""):
        out.write("\n\n" + chunk)
    out.write("\n" if tail is None else f"\n\n{tail}\n")


def _print_report(report: dict, as_json: bool) -> int:
    # one key=true|false line per predicate, or the JSON object
    if as_json:
        _print_json(report)
    else:
        for key, value in report.items():
            print(f"{key}={_word(value)}")
    return 0


_KEY = attrgetter("_key")  # a listed extreme point's vertex, read in C


def _print_listing(texts, size: int, as_json: bool, footer: dict) -> int:
    # the `size` matrices that texts(pad, sep) renders as `_texts` does,
    # numbered, then the footer's key=value pairs on one line when there are
    # any; in JSON the count and the matrices, then the footer's other
    # pairs. A listing is never empty: every row has a column to choose
    if as_json:
        rest = "".join(f',\n  "{key}": {_word(value)}' for key, value in footer.items()
                       if key != "count")
        _print_items(f'{{\n  "count": {size},\n  "matrices": [', "{}\n    [{}\n    ]",
                     f"\n  ]{rest}\n}}", texts("\n      ", ","))
    else:
        tail = " ".join(f"{key}={_word(value)}" for key, value in footer.items())
        _print_blocks(texts(), tail=tail or None)
    return 0


def _read_matrix(ns) -> Matrix:
    if ns.input is None:
        data = sys.stdin.buffer.read()
    else:
        with open(ns.input, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SmxError(f"the input is not utf-8 text: {exc.reason}") from None
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


# a decomposition term in JSON: the separator, the coefficient, its rows
_TERM = '{}\n    {{\n      "coefficient": "{}",\n      "matrix": [{}\n      ]\n    }}'


def _cmd_decompose(ns) -> int:
    mat = _read_matrix(ns)
    comb = decompose_centrosymmetric(mat) if ns.centro else decompose_stochastic(mat)
    coeffs, vertices = zip(*[(_text(c), v) for c, v in comb._vertex_terms()])
    if ns.json:
        texts = _texts(vertices, mat.ncols, "\n        ", ",")
        _print_items('{\n  "terms": [', _TERM, "\n  ]\n}", coeffs, texts)
    else:
        _print_blocks(_texts(vertices, mat.ncols), map(" coefficient={}".format, coeffs))
    return 0


def _cmd_enumerate(ns) -> int:
    # the public enumerators' checks and refusals, with no point built
    m, n, kept = _choices(ns.m, ns.n, ns.cap, None, ns.centro)
    size = prod(map(len, kept))
    texts = functools.partial(_product_texts, kept, m, n, ns.centro)
    return _print_listing(texts, size, ns.json, {"count": size})


_BASIS_CELL_CAP = 10**7  # the most cells (members x m x n) of a listed or verified basis family


def _cmd_basis(ns) -> int:
    if ns.set == "square":
        if ns.m is not None:
            return _usage_error("--m does not apply to the square family")
    elif ns.m is None:
        return _usage_error(f"--m is required for the {ns.set} family")
    # the closed-form size is checked before any member is built
    size = _family_size(ns.set, ns.m, ns.n)
    if size > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"the number of basis members exceeds the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    cells = size * (ns.m or ns.n) * ns.n
    if cells > _BASIS_CELL_CAP:
        raise EnumerationCapError(
            f"the number of basis cells (members x m x n) exceeds the cap of {_BASIS_CELL_CAP}"
        )
    if ns.set == "square":
        family = basis_square(ns.n)
    else:
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
    texts = functools.partial(_texts, list(map(_KEY, family)), ns.n)
    return _print_listing(texts, len(family), ns.json, footer)


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
        count = counter(pattern)
        text = _text(count)
        if ns.json:
            _print_json({"count": count})
        else:
            print(text)
        return 0
    mats = enumerate_face_vertices(pattern, centro=ns.centro, cap=ns.cap)
    vertices = list(map(_KEY, mats))
    texts = functools.partial(_texts, vertices, pattern.ncols)
    return _print_listing(texts, len(vertices), ns.json, {"count": len(vertices)})


def _cmd_normalize(ns) -> int:
    mat = _read_matrix(ns)
    result = mat.entrywise_min(rotate_pi(mat))
    if ns.json:
        _print_json({"matrix": _matrix_json(result)})
    else:
        print(_text(result, format_matrix), end="")
    return 0


# The grammar: command name -> (help, handler, options). An option is its
# option string (a positional's is its dest) and its add_argument keywords;
# it is a flag (action "store_true") or takes one value. `_exact_reader`
# reads clean lines from it, and `_build_parsers` builds argparse's parsers.
_INPUT = ("--input", dict(metavar="FILE", help="read SMX text from FILE instead of stdin"))
_JSON = ("--json", dict(action="store_true", help="emit JSON"))
_CENTRO = ("--centro", dict(action="store_true", help="use the centrosymmetric polytope"))
_CAP = dict(type=int, default=DEFAULT_ENUMERATION_CAP, metavar="N",
            help="refuse enumerations longer than N")
_COMMANDS = {
    "check": ("report the structural predicates of a matrix", _cmd_check, [_INPUT, _JSON]),
    "decompose": ("decompose into extreme points", _cmd_decompose, [
        _INPUT, _JSON,
        ("--centro", dict(action="store_true", help="decompose in the centrosymmetric polytope")),
    ]),
    "enumerate": ("enumerate extreme points", _cmd_enumerate, [
        ("--extremes", dict(action="store_true", required=True, help="enumerate extreme points")),
        _CENTRO,
        ("--m", dict(type=int, required=True, help="row count")),
        ("--n", dict(type=int, required=True, help="column count")),
        _JSON,
        ("--cap", dict(_CAP, help=_CAP["help"] + ", or over more than N free rows "
                       "(m, or ceil(m/2) with --centro)")),
    ]),
    "basis": ("emit a basis family", _cmd_basis, [
        ("--set", dict(required=True, choices=["square", "rect", "centro-even", "centro-odd"],
                       help="which family to build")),
        ("--m", dict(type=int, help="row count (not used by square)")),
        ("--n", dict(type=int, required=True, help="column count")),
        ("--verify", dict(action="store_true", help="append an exact rank check")),
        _JSON,
    ]),
    "graph": ("bipartite graph of the zero pattern", _cmd_graph, [
        _INPUT, _JSON,
        ("--dot", dict(action="store_true", help="emit a DOT document")),
        ("--fill", dict(action="store_true", help="include the fill ratio")),
    ]),
    "face": ("faces cut out by a (0,1) pattern", _cmd_face, [
        ("action", dict(choices=["count", "vertices", "support"])),
        _INPUT, _JSON, _CENTRO, ("--cap", _CAP),
    ]),
    "normalize": ("normalize a pattern", _cmd_normalize, [
        _INPUT, _JSON,
        ("--centro-and", dict(action="store_true", required=True,
                              help="entrywise minimum with the half-turn rotation")),
    ]),
}


def build_parser():
    """The top-level argparse parser, with one subparser per command."""
    return _build_parsers()[0]


def _build_parsers():
    # the top-level parser and its command name -> subparser map, built from
    # _COMMANDS; only help and errors need them, so only they import argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="centrostoch",
        description="Exact computations in the stochastic and centrosymmetric "
        "stochastic matrix polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for option, keywords in options:
            command.add_argument(option, **keywords)
        command.set_defaults(handler=handler)
    return parser, sub.choices


# built on the first line that needs them; argparse keeps no state between
# parse_args calls (each makes a new Namespace, and errors and help look up
# sys.stderr and sys.stdout when they are written)
_parsers = functools.cache(_build_parsers)


def _exact_reader(handler, options):
    """A function of the arguments after a command's name: a namespace with
    the attributes argparse would set, `command` aside, when they are a
    clean line (see `_parse_args`), and None otherwise. `handler` and
    `options` are the command's entries in _COMMANDS; each option's dest,
    default and required are argparse's.
    """
    named, positionals, defaults, required = {}, [], {"handler": handler}, set()
    for option, keywords in options:
        flag = keywords.get("action") == "store_true"
        dest = option.lstrip("-").replace("-", "_")
        spec = (dest, flag, keywords.get("type"), keywords.get("choices"))
        if option.startswith("-"):
            named[option] = spec
        else:
            positionals.append(spec)
        defaults[dest] = keywords.get("default", False if flag else None)
        if keywords.get("required") or not option.startswith("-"):
            required.add(dest)

    def read(args):
        values, seen, tokens, places = dict(defaults), set(), iter(args), iter(positionals)
        for token in tokens:
            spec = named.get(token)
            if spec is None:
                spec = None if token.startswith("-") else next(places, None)
                if spec is None:
                    return None
            elif spec[1]:  # a flag
                values[spec[0]] = True
                seen.add(spec[0])
                continue
            else:
                token = next(tokens, "-")
                if token.startswith("-"):
                    return None
            dest, _, kind, choices = spec
            try:
                value = token if kind is None else kind(token)
            except (TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
            seen.add(dest)
        return SimpleNamespace(**values) if required <= seen else None

    return read


@functools.cache
def _readers() -> dict:
    # command name -> its _exact_reader
    return {name: _exact_reader(handler, options)
            for name, (_, handler, options) in _COMMANDS.items()}


def _parse_args(argv):
    """build_parser().parse_args(argv), or for a clean line a namespace
    with the same attributes, read in one pass.

    A line is clean when it starts with a command name and every later token
    is the exact option string of one of that command's flags, the exact
    option string of a one-value option followed by a value that does not
    start with "-", or fills the command's next positional; every value
    converts with its option's `type` and is in its `choices`, and every
    required option is seen. The command's `_exact_reader` reads such a line
    from _COMMANDS, with no argparse, and `command` is set, as the top-level
    parser's subparsers action would. Every other line goes to the top-level
    parser, so help, abbreviations, `--opt=value`, `--`, a value that starts
    with "-", a bad int or choice, and a missing or extra argument get its
    own output and exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    read = _readers().get(argv[0]) if argv else None
    ns = None if read is None else read(argv[1:])
    if ns is None:
        return _parsers()[0].parse_args(argv)
    ns.command = argv[0]
    return ns


def run_command(argv) -> int:
    """Parse argv (no program name) and run the command; returns the exit code."""
    try:
        ns = _parse_args(argv)
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
