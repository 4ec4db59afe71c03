"""Run the command-line interface: python -m mapforge <verb> ..."""

import sys

from .cli import main

sys.exit(main())
