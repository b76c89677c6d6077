import io
import sys

import pytest


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """Run the command line entry point with captured streams.

    Returns (exit_code, stdout, stderr); `stdin_text` feeds the command's
    standard input.
    """
    from centrostoch.cli import run_command

    def run(argv, stdin_text=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run_command(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def row_builds(monkeypatch):
    """The vertices whose dense rows get built while the test runs, in order.

    An extreme point's Matrix holds only its vertex until `entries` is first
    read; that read is the one call of `Matrix.__getattr__` for `entries`,
    and each such call is recorded here.
    """
    from centrostoch.core import Matrix

    builds = []
    build = Matrix.__getattr__

    def counting(self, name):
        if name == "entries":
            builds.append(self._key)
        return build(self, name)

    monkeypatch.setattr(Matrix, "__getattr__", counting)
    return builds
