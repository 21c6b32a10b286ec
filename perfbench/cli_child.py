"""Traced stand-in for ``python -m magprop`` in the traced cli_cold run.

Usage: python perfbench/cli_child.py FD ARGS...

Imports magprop cold (timed), installs the tracer, runs ``magprop.cli.run``
with ARGS and exits with its code, exactly as ``python -m magprop ARGS``
does; an exception escaping ``run`` still prints its traceback and exits
1. The import time and the span accumulators are written as JSON to the
inherited file descriptor FD, also when ``run`` raises.
"""

import json
import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import magprop.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return magprop.cli.run(argv)
    finally:
        with os.fdopen(fd, "w") as fh:
            json.dump({"import_s": import_s, "acc": tracer.acc}, fh)


if __name__ == "__main__":
    sys.exit(main())
