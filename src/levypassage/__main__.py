"""``python -m levypassage``: the ``levy-passage`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
