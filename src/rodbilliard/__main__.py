"""``python -m rodbilliard``: the command-line interface of ``cli_io``."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
