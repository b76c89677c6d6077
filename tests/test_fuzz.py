"""Seeded fuzz of the command line, in process.

Every subcommand runs through `run_command` on generated SMX text (bad
tokens, ragged rows, wrong dimension lines, huge exponents, 0/0) and
generated argv (sizes up to 4, small caps, missing and unknown options).
Whatever the input, the exit code is 0, 1 or 2, no exception escapes, and
a command that fails writes nothing to stdout.
"""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from centrostoch import Matrix, format_matrix, rotate_pi
from centrostoch.cli import run_command
from matrixgen import random_centro_stochastic, random_pattern, random_stochastic

TOKENS = ["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "0.5", "0.25", "-1", "-1/2", "2",
          "1e4301", "1e-4301", "1e-3", "0/0", "5/0", "1//2", "/2", "abc", "½", "١",
          "+1", "1_0/20", "nan", "inf", "0x1", "#", "1/2/3", "7" * 50]


def _noise(rng: random.Random) -> str:
    # SMX-shaped text: a dimension line that may be wrong, then rows of
    # tokens that may be ragged or malformed
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    head = rng.choice([f"{m} {n}", f"{m} {n}", f"{m + 1} {n}", f"{m} {n - 1}", f"{m}",
                       f"{m} {n} 1", "x 2", "0 3", "-1 2", "1e400 2", ""])
    lines = [head]
    for _ in range(m + rng.choice([0, 0, 0, -1, 1])):
        width = n + rng.choice([0, 0, 0, 0, -1, 1])
        lines.append(" ".join(rng.choice(TOKENS) for _ in range(max(width, 0))))
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# comment", "", "   "]))
    return "\n".join(lines) + rng.choice(["\n", ""])


def _valid(rng: random.Random) -> str:
    # a matrix the commands accept, sometimes with one token spoilt
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:
        a = random_stochastic(rng, m, n, max_weight=rng.choice([2, 9]))
    elif kind == 1:
        a = random_centro_stochastic(rng, m, n, max_weight=rng.choice([2, 9]))
    elif kind == 2:
        a = random_pattern(rng, m, n)
        if rng.random() < 0.5:
            a = a.entrywise_min(rotate_pi(a))
    else:
        a = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(m)])
    lines = format_matrix(a).splitlines()
    if rng.random() < 0.3:
        k = rng.randrange(1, len(lines))
        tokens = lines[k].split()
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _size(rng: random.Random) -> str:
    return str(rng.choice([1, 1, 2, 2, 3, 3, 4, 4, 0, -1]))


def _argv(rng: random.Random, missing: str) -> list[str]:
    command = rng.choice(["check", "decompose", "enumerate", "basis", "graph", "face",
                          "normalize"])
    if command == "check":
        argv = ["check"]
    elif command == "decompose":
        argv = ["decompose"] + ["--centro"] * rng.randint(0, 1)
    elif command == "enumerate":
        argv = ["enumerate", "--extremes", "--m", _size(rng), "--n", _size(rng)]
        argv += ["--centro"] * rng.randint(0, 1)
        if rng.random() < 0.5:
            argv += ["--cap", str(rng.randint(-1, 40))]
    elif command == "basis":
        argv = ["basis", "--set", rng.choice(["square", "rect", "centro-even", "centro-odd"])]
        if rng.random() < 0.7:
            argv += ["--m", _size(rng)]
        argv += ["--n", _size(rng)] + ["--verify"] * rng.randint(0, 1)
    elif command == "graph":
        argv = ["graph"] + ["--dot"] * rng.randint(0, 1) + ["--fill"] * rng.randint(0, 1)
    elif command == "face":
        argv = ["face", rng.choice(["count", "vertices", "support"])]
        argv += ["--centro"] * rng.randint(0, 1)
        if rng.random() < 0.5:
            argv += ["--cap", str(rng.randint(-1, 40))]
    else:
        argv = ["normalize", "--centro-and"]
    argv += ["--json"] * rng.randint(0, 1)
    spoil = rng.random()
    if spoil < 0.05:
        argv.pop(rng.randrange(len(argv)))
    elif spoil < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "--m", "x", "--cap"]))
    elif spoil < 0.12 and command not in ("enumerate", "basis"):
        argv += ["--input", missing]
    return argv


@pytest.mark.parametrize("seed", [20260819, 4099])
def test_every_command_exits_0_1_or_2_and_fails_silently(seed, monkeypatch, tmp_path):
    rng = random.Random(seed)
    missing = str(tmp_path / "missing.smx")
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(4000):
        argv = _argv(rng, missing)
        text = _valid(rng) if rng.random() < 0.5 else _noise(rng)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run_command(argv)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} escaped run_command({argv!r}) on {text!r}")
        assert code in codes, (argv, text, code)
        codes[code] += 1
        if code != 0:
            assert out.getvalue() == "", (argv, text, code)
            assert err.getvalue(), (argv, text, code)
    # the inputs reach success, domain errors and usage errors alike
    assert all(codes.values()), codes
