"""Seeded inputs and op lists for the three workloads.

A workload is a fixed list of CLI ops. `build` makes the inputs from the
seed alone, writes the matrix inputs as SMX files, and pairs each op with
the exact check of its output. The shapes and sizes are fixed; the seed
chooses the entries, supports and patterns.

Row supports are drawn from a fixed multiset of sizes spread over 1..n, and
face patterns have fixed row sums, so the amount of work per op barely moves
from seed to seed while the inputs themselves change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from pathlib import Path
from typing import Callable

import checks
from centrostoch import Matrix

SMALL_WEIGHT = 9
LARGE_WEIGHT = 10**6

# decompose ops as (m, n, weight cap, JSON layout). Small shapes run in both
# layouts, with small and with large weights. Above them sits a class of six
# ops of about the same cost and then the two largest shapes, so that p90
# falls inside one class of ops and not on the edge between two.
def _both(shapes):
    return [(m, n, cap, as_json) for m, n in shapes
            for cap, as_json in ((SMALL_WEIGHT, False), (LARGE_WEIGHT, True))]


STOCH_SMALL = _both([(1, 1), (1, 6), (2, 2), (2, 7), (3, 3), (3, 8), (4, 2), (4, 5),
                     (5, 5), (5, 8), (6, 3), (6, 6), (7, 4), (7, 7), (8, 1), (8, 8)])
STOCH_LARGE = [(10, 10, SMALL_WEIGHT, False), (12, 12, LARGE_WEIGHT, True)] + _both(
    [(16, 16), (14, 18), (18, 14)]) + _both([(20, 20)])
# even m; odd m with odd n; odd m with even n
CENTRO_SMALL = _both([(1, 4), (1, 5), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (4, 7),
                      (5, 5), (5, 6), (6, 3), (6, 6), (7, 7), (7, 8), (8, 5), (8, 8)])
CENTRO_LARGE = [(11, 11, SMALL_WEIGHT, False), (12, 9, LARGE_WEIGHT, True)] + _both(
    [(15, 15), (15, 14), (16, 14)]) + [(20, 20, LARGE_WEIGHT, True), (21, 20, SMALL_WEIGHT, False)]

# census: (m, n, extra flags) for enumerate; (m, n, ones per row) for plain
# face patterns; (m, n, ones per top-half row, ones in the centre row) for
# centrosymmetric face patterns
ENUM_PLAIN = [(5, 4, ()), (4, 5, ()), (3, 7, ()), (6, 4, ()), (4, 4, ("--json",))]
ENUM_CENTRO = [(8, 5, ()), (9, 6, ()), (7, 7, ()), (10, 4, ()), (6, 6, ("--json",))]
FACE_PLAIN = [(6, 6, 3), (5, 6, 3), (5, 6, 4), (5, 6, 3), (5, 6, 4), (5, 6, 3)]
FACE_CENTRO = [(6, 6, 3, 0), (6, 6, 4, 0), (7, 6, 4, 4), (7, 6, 3, 2), (9, 6, 4, 6)]
BASES = [("square", None, 5), ("square", None, 6), ("square", None, 8), ("rect", 4, 6),
         ("rect", 6, 8), ("centro-even", 6, 6), ("centro-even", 8, 7),
         ("centro-odd", 7, 6), ("centro-odd", 9, 7)]
CHECK_SHAPES = [(6, 6), (7, 7), (8, 6), (5, 8)]
GRAPH_SHAPES = [(6, 6), (7, 5), (5, 8), (8, 8)]
CAP_CRASH = ("enumerate", "--extremes", "--m", "10000", "--n", "3", "--cap", "10")


@dataclass(frozen=True)
class Op:
    """One `run_command` call, its expected exit code and its output check."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], int]
    expect_rc: int = 0


class Inputs:
    """Writes the SMX inputs of one workload into a directory."""

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.files = 0
        self.bytes = 0

    def write(self, text: str) -> str:
        self.files += 1
        path = self.directory / f"in{self.files:03d}.smx"
        path.write_text(text, encoding="ascii")
        self.bytes += len(text)
        return str(path)


def smx_text(rows) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _support_sizes(rng: random.Random, count: int, n: int) -> list[int]:
    # a fixed multiset spread over 1..n, in seeded order
    sizes = [1 + (i * n) // count for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _stochastic_row(rng: random.Random, n: int, support: int, cap: int) -> list[Fraction]:
    cols = rng.sample(range(n), support)
    weights = [rng.randint(1, cap) for _ in cols]
    total = sum(weights)
    row = [Fraction(0)] * n
    for col, weight in zip(cols, weights):
        row[col] = Fraction(weight, total)
    return row


def stochastic(rng: random.Random, m: int, n: int, cap: int) -> list[list[Fraction]]:
    return [_stochastic_row(rng, n, k, cap) for k in _support_sizes(rng, m, n)]


def centrosymmetric(rng: random.Random, m: int, n: int, cap: int) -> list[list[Fraction]]:
    top = [_stochastic_row(rng, n, k, cap) for k in _support_sizes(rng, m // 2, n)]
    rows = list(top)
    if m % 2:
        raw = _stochastic_row(rng, n, (n + 1) // 2, cap)
        rows.append([(raw[j] + raw[n - 1 - j]) / 2 for j in range(n)])
    rows.extend(row[::-1] for row in reversed(top))
    return rows


def _pattern_row(rng: random.Random, n: int, ones: int) -> list[int]:
    cols = set(rng.sample(range(n), ones))
    return [1 if j in cols else 0 for j in range(n)]


def _centro_pattern(rng: random.Random, m: int, n: int, ones: int, centre: int):
    top = [_pattern_row(rng, n, ones) for _ in range(m // 2)]
    rows = list(top)
    if m % 2:
        # `centre` ones placed in mirrored pairs (plus the middle column
        # when `centre` is odd, which needs odd n)
        pairs = rng.sample(range(n // 2), centre // 2)
        row = [0] * n
        for j in pairs:
            row[j] = row[n - 1 - j] = 1
        if centre % 2:
            row[n // 2] = 1
        rows.append(row)
    rows.extend(row[::-1] for row in reversed(top))
    return rows


def _decompose_workload(rng, inputs, specs, centro):
    make = centrosymmetric if centro else stochastic
    flag = ("--centro",) if centro else ()
    ops = []
    for m, n, cap, as_json in specs:
        rows = make(rng, m, n, cap)
        path = inputs.write(smx_text(rows))
        layout = ("--json",) if as_json else ()
        ops.append(Op(f"decompose{' --centro' if centro else ''} {m}x{n} w<={cap}"
                      f"{' json' if as_json else ''}",
                      ("decompose", *flag, *layout, "--input", path),
                      partial(checks.decomposition, a=Matrix(rows), centro=centro,
                              as_json=as_json)))
    summary = {"ops": [f"{m}x{n} w<={cap}{' json' if as_json else ''}"
                       for m, n, cap, as_json in specs]}
    return ops, summary


def _extreme_count(m: int, n: int, centro: bool) -> int:
    if not centro:
        return n**m
    return n ** (m // 2) * ((n + 1) // 2 if m % 2 else 1)


def _face_count(pattern, centro: bool) -> int:
    sums = [sum(row) for row in pattern]
    if not centro:
        return prod(sums)
    m = len(pattern)
    top = prod(sums[: m // 2])
    return top * ((sums[m // 2] + 1) // 2) if m % 2 else top


def _basis_size(family: str, m, n: int) -> int:
    if family == "square":
        return n * n - n + 1
    if family == "rect":
        return m * (n - 1) + 1
    if family == "centro-even":
        return (m // 2) * (n - 1) + 1
    return ((m - 1) // 2) * (n - 1) + 1 + (n + 1) // 2 - 1


def _check_matrices(rng, m, n):
    """Matrices whose `check` report is known by construction, as
    (rows, stochastic, centrosymmetric, extreme_stochastic, extreme_centro)."""
    # centrosymmetric but not extreme: a top row with two nonzeros
    mixed = centrosymmetric(rng, m, n, SMALL_WEIGHT)
    mixed[0] = _stochastic_row(rng, n, 2, SMALL_WEIGHT)
    mixed[-1] = mixed[0][::-1]
    yield mixed, True, True, False, False
    if m % 2 == 0:
        # centrosymmetric permutation pattern
        cols = [rng.randrange(n) for _ in range(m // 2)]
        cols += [n - 1 - c for c in reversed(cols)]
        yield [[int(j == c) for j in range(n)] for c in cols], True, True, True, True
    # permutation pattern whose last row is off the mirror of the first
    cols = [rng.randrange(n) for _ in range(m)]
    cols[-1] = (n - cols[0] + rng.randrange(n - 1)) % n
    yield [[int(j == c) for j in range(n)] for c in cols], True, False, True, False
    # first row two nonzeros, last row one: never centrosymmetric
    rows = stochastic(rng, m, n, SMALL_WEIGHT)
    rows[0] = _stochastic_row(rng, n, 2, SMALL_WEIGHT)
    rows[-1] = _stochastic_row(rng, n, 1, SMALL_WEIGHT)
    yield rows, True, False, False, False


def _check_ops(rng, inputs):
    keys = ("stochastic", "centrosymmetric", "extreme_stochastic", "extreme_centrosymmetric")
    ops = []
    for m, n in CHECK_SHAPES:
        for rows, *report in _check_matrices(rng, m, n):
            expected = "".join(f"{k}={str(v).lower()}\n" for k, v in zip(keys, report))
            ops.append(Op(f"check {m}x{n}", ("check", "--input", inputs.write(smx_text(rows))),
                          partial(checks.exact_text, expected=expected)))
    return ops


def _graph_ops(rng, inputs):
    ops = []
    for m, n in GRAPH_SHAPES:
        rows = stochastic(rng, m, n, SMALL_WEIGHT)
        ops.append(Op(f"graph {m}x{n}",
                      ("graph", "--dot", "--fill", "--input", inputs.write(smx_text(rows))),
                      partial(checks.dot_graph, a=Matrix(rows))))
    return ops


def _basis_ops(bases):
    ops = []
    for family, m, n in bases:
        dims = () if m is None else ("--m", str(m))
        ops.append(Op(f"basis {family} {m or n}x{n}",
                      ("basis", "--set", family, *dims, "--n", str(n), "--verify"),
                      partial(checks.basis, m=m or n, n=n, size=_basis_size(family, m, n),
                              centro=family.startswith("centro"))))
    return ops


def _enumerate_ops(specs, centro):
    flag = ("--centro",) if centro else ()
    ops = []
    for m, n, extra in specs:
        ops.append(Op(f"enumerate{' --centro' if centro else ''} {m}x{n}{' json' if extra else ''}",
                      ("enumerate", "--extremes", *flag, "--m", str(m), "--n", str(n), *extra),
                      partial(checks.listing, shape=(m, n), count=_extreme_count(m, n, centro),
                              centro=centro, as_json=bool(extra))))
    return ops


def _face_ops(inputs, patterns):
    ops = []
    for centro, pattern in patterns:
        m, n = len(pattern), len(pattern[0])
        path = inputs.write(smx_text(pattern))
        flag = ("--centro",) if centro else ()
        tag = f"{' --centro' if centro else ''} {m}x{n}"
        count = _face_count(pattern, centro)
        ops.append(Op(f"face vertices{tag}", ("face", "vertices", *flag, "--input", path),
                      partial(checks.listing, shape=(m, n), count=count, centro=centro,
                              as_json=False, pattern=pattern)))
        ops.append(Op(f"face count{tag}", ("face", "count", *flag, "--input", path),
                      partial(checks.exact_text, expected=f"{count}\n")))
    return ops


def _refusal_ops(rng, inputs):
    """Inputs the CLI must refuse, each with its documented exit code."""
    ops = []
    bad = stochastic(rng, 6, 6, SMALL_WEIGHT)
    bad[rng.randrange(6)] = [2 * x for x in bad[0]]
    for flag in ((), ("--centro",)):
        ops.append(Op(f"refuse decompose{' --centro' if flag else ''} non-stochastic",
                      ("decompose", *flag, "--input", inputs.write(smx_text(bad))),
                      checks.empty, expect_rc=1))
    text = smx_text(stochastic(rng, 4, 4, SMALL_WEIGHT)).split("\n")
    broken = text[2].split()
    broken[rng.randrange(4)] = "1/0"
    malformed = {
        "bad rational": "\n".join(text[:2] + [" ".join(broken)] + text[3:]),
        "missing row": "\n".join(text[:-2]) + "\n",
    }
    for what, body in malformed.items():
        ops.append(Op(f"refuse malformed SMX ({what})",
                      ("decompose", "--input", inputs.write(body)), checks.empty, expect_rc=2))
    # n**m is past the int-to-str digit limit: the refusal's message
    # currently escapes as ValueError, which is recorded as a failed op
    ops.append(Op("refuse enumerate --m 10000 --cap 10", CAP_CRASH, checks.empty, expect_rc=1))
    return ops


def _census(rng, inputs, small):
    enum_plain = ENUM_PLAIN[:2] if small else ENUM_PLAIN
    enum_centro = ENUM_CENTRO[:2] if small else ENUM_CENTRO
    bases = BASES[:4] if small else BASES
    patterns = [(False, [_pattern_row(rng, n, k) for _ in range(m)])
                for m, n, k in (FACE_PLAIN[1:] if small else FACE_PLAIN)]
    patterns += [(True, _centro_pattern(rng, m, n, k, c))
                 for m, n, k, c in (FACE_CENTRO[:2] if small else FACE_CENTRO)]
    # cheap ops first: the warm-up runs the head of the list
    ops = (_check_ops(rng, inputs) + _graph_ops(rng, inputs) + _basis_ops(bases)
           + _enumerate_ops(enum_plain, False) + _enumerate_ops(enum_centro, True)
           + _face_ops(inputs, patterns) + _refusal_ops(rng, inputs))
    summary = {
        "check": [f"{m}x{n}" for m, n in CHECK_SHAPES],
        "graph": [f"{m}x{n}" for m, n in GRAPH_SHAPES],
        "basis": [f"{f} {m or n}x{n}" for f, m, n in bases],
        "enumerate": [f"{m}x{n}" for m, n, _ in enum_plain],
        "enumerate_centro": [f"{m}x{n}" for m, n, _ in enum_centro],
        "face_patterns": [f"{'centro ' if c else ''}{len(p)}x{len(p[0])}" for c, p in patterns],
        "refusals": 5,
    }
    return ops, summary


def build(workload: str, seed: int, directory: Path, small: bool = False):
    """Make the workload's inputs from `seed`, write them under `directory`
    and return (ops, summary). The same seed gives the same ops and files."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = Inputs(directory)
    if workload == "stoch-decompose":
        specs = STOCH_SMALL if small else STOCH_SMALL + STOCH_LARGE
        ops, summary = _decompose_workload(rng, inputs, specs, False)
    elif workload == "centro-decompose":
        specs = CENTRO_SMALL if small else CENTRO_SMALL + CENTRO_LARGE
        ops, summary = _decompose_workload(rng, inputs, specs, True)
    elif workload == "census":
        ops, summary = _census(rng, inputs, small)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    summary.update(op_count=len(ops), smx_files=inputs.files, smx_bytes=inputs.bytes)
    return ops, summary
