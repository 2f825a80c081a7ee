"""``python -m unihop``: the same entry point as the ``unihop`` console script."""

import sys

from .cli import main

sys.exit(main())
