"""Run ``repro serve`` in this process, optionally traced.

Usage::

    python3 -u perfbench/serve_launcher.py [--trace-out SPANS] SERVE_ARGS...

The benchmark starts the server through this script so that, with
``--trace-out``, the layer wrappers of :mod:`tracer` are installed in
the server process before ``repro.cli.main`` runs.  The spans are kept
in memory and written once, as JSON lines, when the server stops
(SIGINT).  The first line on stdout is ``perfbench-launcher-ready
<perf_counter_ns>``, stamped after the interpreter and ``repro`` have
been imported, so set-up time excludes interpreter start-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import List


def main(argv: List[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro.cli as cli
    import tracer as tr

    print(f"perfbench-launcher-ready {time.perf_counter_ns()}", flush=True)
    if trace_out is None:
        return cli.main(["serve", *argv])
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        return cli.main(["serve", *argv])
    finally:
        tracer.write_spans(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
