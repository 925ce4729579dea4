"""``python -m yukawa_atom``: the same command line as ``yukawa-atom``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
