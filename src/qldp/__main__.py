"""``python -m qldp SUBCOMMAND ...`` runs the command-line harness."""

import sys

from .cli import main

sys.exit(main())
