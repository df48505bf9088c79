"""`python -m qident ...` runs the `qident` command line."""

import sys

from .cli import main

sys.exit(main())
