"""``python -m imvc``: the ``imvc`` command line, also from a checkout
without an install (``PYTHONPATH=src python -m imvc --help``)."""

import sys

from .cli import main

# spawned sweep workers import this module as __mp_main__ and must not
# run the command line again
if __name__ == "__main__":
    sys.exit(main())
