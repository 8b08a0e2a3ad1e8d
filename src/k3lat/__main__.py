"""``python -m k3lat``: the ``k3lat`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
