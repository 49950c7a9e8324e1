"""``python -m sourcescope``: the same command line as the ``sourcescope`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
