"""``python -m rfdestab``: the command-line front end of :mod:`rfdestab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
