"""The package surface is the union of the modules' __all__ lists, the
package imports nothing outside the standard library and no name it never
reads, importing the CLI builds no argument parser, and every name the
benchmark's tracer wraps still exists."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import centrostoch
from centrostoch import bases, cli, core, decompose, extremes, faces, graphs, smx

MODULES = [core, decompose, extremes, bases, graphs, faces, smx]


def test_no_name_in_two_modules():
    # a star re-export would let the later module silently shadow the earlier
    counts = Counter(name for mod in MODULES for name in mod.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_names_defined_in_own_module(mod):
    for name in mod.__all__:
        assert name in vars(mod), name
        # a name taken from outside the package would be fine; a re-export
        # of another centrostoch module's name is not
        origin = getattr(vars(mod)[name], "__module__", mod.__name__)
        assert origin == mod.__name__ or not origin.startswith("centrostoch"), name


def test_star_import_yields_all():
    namespace = {}
    exec("from centrostoch import *", namespace)
    del namespace["__builtins__"]
    assert len(set(centrostoch.__all__)) == len(centrostoch.__all__)
    assert sorted(namespace) == sorted(centrostoch.__all__)
    assert all(namespace[name] is getattr(centrostoch, name) for name in namespace)


@pytest.mark.parametrize(
    "path",
    sorted(Path(centrostoch.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_imports_only_the_standard_library(path):
    # the package has no dependencies outside the standard library
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    tops = {name.partition(".")[0] for name in imported}
    assert tops <= sys.stdlib_module_names | {"centrostoch"}


def unused_imports(source: str) -> set[str]:
    """The names `source` binds by an import (`__future__` aside) and never
    reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# the one import kept only so the benchmark's tracer can wrap it under that
# module's name; it goes, and leaves this list, once the library counts its
# own calls
UNUSED_IMPORTS_ALLOWED = {("decompose", "is_extreme_centro")}


@pytest.mark.parametrize(
    "path",
    sorted(Path(centrostoch.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_unused_imports(path):
    unused = {(path.stem, name) for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == {entry for entry in UNUSED_IMPORTS_ALLOWED if entry[0] == path.stem}


def test_unused_imports_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "from fractions import Fraction as F\n"
        "from math import *\n"
        "import os.path\n"
        "import json\n"
        "def f(x: F) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == {"json"}


# counts the ArgumentParser objects made by importing the CLI, by one
# build_parser(), and by each of two run_command calls
PARSER_COUNT_SCRIPT = """
import argparse, contextlib, io, json
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import centrostoch.cli as cli
counts = [len(made)]
cli.build_parser()
counts.append(len(made))
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_command(["enumerate", "--extremes", "--m", "1", "--n", "2"]) == 0
    counts.append(len(made))
print(json.dumps(counts))
"""


def test_cli_builds_its_parser_on_first_use_only():
    # importing the CLI builds no parser, so a child interpreter's import
    # does no argparse work; the first run_command builds one parser (the
    # program's and its subcommands') and later calls reuse it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, built, first, second = json.loads(proc.stdout)
    assert imported == 0 and built > 1
    assert first == second == 2 * built


def test_build_parser_returns_a_new_parser():
    first, second = cli.build_parser(), cli.build_parser()
    assert isinstance(first, argparse.ArgumentParser)
    assert first is not second


def test_benchmark_trace_sites_exist(monkeypatch):
    # perfbench/spans.py wraps functions by the module attribute each caller
    # reads them through (cli.fill, decompose.is_stochastic, ...); a renamed
    # or dropped attribute would otherwise show only in perfbench's own suite
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    sys.modules.pop("spans", None)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    sites = [site for sites in spans.CALLS.values() for site in sites]
    sites += [(owner, attr) for sites in spans.LAZY.values() for owner, attr, _ in sites]
    originals = [getattr(owner, attr) for owner, attr in sites]
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(sites, originals))
    finally:
        recorder.uninstall()
    assert [getattr(owner, attr) for owner, attr in sites] == originals


def counted(monkeypatch, owner, attr, calls, lazy=False):
    # replace owner.attr by a wrapper that appends each call's arguments to
    # `calls`, and for a lazy enumerator each item it yields as well
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        if not lazy:
            return fn(*args, **kwargs)
        return (calls.append(item) or item for item in fn(*args, **kwargs))

    monkeypatch.setattr(owner, attr, wrapper)


class TestBenchmarkTraceRoute:
    """The census commands reach the library through the names the
    benchmark's tracer counts at: a route that bypassed them would read
    `faces.candidates` or `extremes.enumerated` as 0, and `core.rank.cells`
    reads the size and shape of the list of matrices `rank_of_family` is
    given."""

    PATTERN = "3 3\n1 1 0\n1 1 1\n0 1 1\n"

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_face_vertices_consumes_the_faces_enumerator(self, run_cli, monkeypatch, centro):
        calls = []
        name = "enumerate_extreme_centro" if centro else "enumerate_extreme_stochastic"
        counted(monkeypatch, faces, name, calls, lazy=True)
        argv = ["face", "vertices", "--json", *(["--centro"] if centro else [])]
        code, out, err = run_cli(argv, self.PATTERN)
        assert (code, err) == (0, "")
        count = json.loads(out)["count"]
        assert count == (4 if centro else 12)
        assert len(calls) == 1 + count

    @pytest.mark.parametrize("centro", [False, True], ids=["plain", "centro"])
    def test_enumerate_calls_the_cli_enumerator(self, run_cli, monkeypatch, centro):
        calls = []
        name = "enumerate_extreme_centro" if centro else "enumerate_extreme_stochastic"
        counted(monkeypatch, cli, name, calls, lazy=True)
        argv = ["enumerate", "--extremes", "--m", "3", "--n", "3", "--json"]
        code, out, err = run_cli(argv + (["--centro"] if centro else []), "")
        assert (code, err) == (0, "")
        count = json.loads(out)["count"]
        assert count == (6 if centro else 27)
        assert len(calls) == 1 + count

    @pytest.mark.parametrize(
        "family, argv, size",
        [("basis_square", ["--set", "square", "--n", "3"], 7),
         ("basis_rect", ["--set", "rect", "--m", "2", "--n", "3"], 5),
         ("basis_centro_even", ["--set", "centro-even", "--m", "4", "--n", "3"], 5),
         ("basis_centro_odd", ["--set", "centro-odd", "--m", "3", "--n", "3"], 4)],
    )
    def test_basis_verify_ranks_a_list_of_matrices(self, run_cli, monkeypatch, family, argv, size):
        built, ranked = [], []
        counted(monkeypatch, cli, family, built)
        counted(monkeypatch, cli, "rank_of_family", ranked)
        code, out, err = run_cli(["basis", *argv, "--verify"], "")
        assert (code, err) == (0, "")
        assert out.endswith(f"rank={size} independent=true\n")
        assert len(built) == len(ranked) == 1
        (members,) = ranked[0]
        assert type(members) is list and len(members) == size
        assert all(isinstance(a, core.Matrix) for a in members)
