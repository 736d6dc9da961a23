"""Entry point for ``python -m almgren_lab``: the same commands as ``almgren-lab``."""

from .cli import main

if __name__ == "__main__":
    main()
