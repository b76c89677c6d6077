"""Drive the command line interface in-process, showing a typical session."""

import io
import sys
from contextlib import redirect_stdout

from centrostoch.cli import run_command

S_TEXT = "3 4\n1 0 0 0\n0 1/2 1/2 0\n0 0 0 1\n"


def run(argv, stdin_text=None):
    print(f"$ centrostoch {' '.join(argv)}")
    saved = sys.stdin
    if stdin_text is not None:
        # bytes behind a text wrapper, as the interpreter's own stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = run_command(argv)
    finally:
        sys.stdin = saved
    for line in buffer.getvalue().splitlines():
        print(f"  {line}")
    print(f"  (exit {code})\n")


def main():
    print("Input matrix in SMX format:")
    for line in S_TEXT.splitlines():
        print(f"  {line}")
    print()

    run(["check"], S_TEXT)
    run(["decompose", "--centro", "--json"], S_TEXT)
    run(["graph", "--dot", "--fill"], S_TEXT)
    run(["face", "count", "--centro"], "3 3\n1 1 1\n1 1 1\n1 1 1\n")
    run(["enumerate", "--extremes", "--centro", "--m", "3", "--n", "2"])
    run(["basis", "--set", "centro-odd", "--m", "5", "--n", "4", "--verify"])
    run(["normalize", "--centro-and"], "2 2\n1 1\n1 0\n")


if __name__ == "__main__":
    main()
