"""``python3 -m bench`` — see ``bench/cli.py``."""

import sys

from .cli import main

sys.exit(main())
