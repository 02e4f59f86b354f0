"""``python -m rskrylov``: the ``rskrylov`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
