"""``python -m acpoisson``: the same command line as the ``acpoisson`` script."""

import sys

from .cli import main

# importing the module (as a package walk does) must not run the command line
if __name__ == "__main__":
    sys.exit(main())
