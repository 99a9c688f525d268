"""Traced ``repro serve``: wrap the layers, then run the ordinary CLI.

``python3 launcher.py SPANS_PATH serve --state-dir ...`` installs the
timing wrappers in this process and calls ``repro.cli.main`` with the
remaining arguments.  When the server drains after SIGTERM, the span
summary is written to ``SPANS_PATH`` as JSON and the raw spans to
``SPANS_PATH`` with a ``.jsonl`` suffix.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out_path = sys.argv[1]
    start = time.perf_counter()
    from repro import cli

    import_s = time.perf_counter() - start
    from layers import SEARCH_TARGETS, SERVE_TARGETS, LayerTracer

    tracer = LayerTracer()
    tracer.phase = "serve"
    tracer.install(SEARCH_TARGETS + SERVE_TARGETS)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
        tracer.dump(out_path + ".jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
