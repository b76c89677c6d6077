"""Entry point for ``python -m centrostoch``, the same as the console script."""

from centrostoch.cli import main

if __name__ == "__main__":
    main()
