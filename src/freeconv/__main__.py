"""``python -m freeconv``: the command-line interface of ``freeconv.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
