"""``python -m repro`` entry point (see :mod:`repro.cli`)."""

import os
import sys

from .cli import main

try:
    code = main()
    # Flush inside the try, so a reader that closed the pipe early
    # (``| head``, ``| grep -q``) is seen here and not at shutdown.
    sys.stdout.flush()
except BrokenPipeError:
    # The stdlib recipe (signal module docs): point stdout at devnull so
    # the interpreter's own flush at exit cannot raise again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
sys.exit(code)
