"""``python -m gtpush``: the command line front end of ``gtpush.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
