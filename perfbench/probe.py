"""Program-side set-up time in a fresh interpreter: import the medgraph
modules a workload uses and make one warm-up call through the CLI.

Usage: probe.py MODULES ARGV_JSON   (MODULES comma-separated)
Prints the seconds taken.  Imports nothing of the benchmark's own, so
only medgraph's set-up is timed.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main(modules, argv):
    for module in modules.split(","):
        __import__(f"medgraph.{module}")
    from medgraph import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(json.loads(argv))
    if rc != 0:
        return rc
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
