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
    read; that read is the one call of `_VertexMatrix.__getattr__` for
    `entries`, and each such call is recorded here.
    """
    from centrostoch.core import _VertexMatrix

    builds = []
    build = _VertexMatrix.__getattr__

    def counting(self, name):
        if name == "entries":
            builds.append(self._key)
        return build(self, name)

    monkeypatch.setattr(_VertexMatrix, "__getattr__", counting)
    return builds
