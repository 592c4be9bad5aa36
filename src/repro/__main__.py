"""``python -m repro`` — the ``repro`` command line."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
