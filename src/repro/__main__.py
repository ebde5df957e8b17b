"""``python -m repro`` entry point."""

import sys

from repro.cli import console_main

sys.exit(console_main())
