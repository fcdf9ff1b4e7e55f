"""Run ``repro worker`` with the benchmark's span tracer installed.

    python3 perfbench/fleet_worker.py TRACE_DIR -- <repro worker arguments>

Traced fleet rounds start their workers through this launcher instead of
``python -m repro worker``; the worker writes ``TRACE_DIR/spans-<pid>.json``
when it exits.
"""

from __future__ import annotations

import sys

import spantrace


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = spantrace.install(argv[0])
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
