"""Entry point for `python -m asymshap`, the same command line as `asymshap`."""

import sys

from .cli import main

sys.exit(main())
