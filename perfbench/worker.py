"""One workload run in its own process: set medgraph up, then repeat the
operation until the run time is used, checking every operation's outputs.
Prints one JSON line of results.

Peak memory is read when the first operation ends, before the benchmark
computes the expected outputs, so it holds medgraph's set-up and one
operation, as one CLI invocation would.

Usage: worker.py WORKLOAD SEED SECONDS TRACE WORKDIR SPANFILE
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def main(argv):
    name, seed, seconds, trace, workdir, span_file = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    work = WORKLOADS[name](seed, workdir)
    work.load()
    for module in work.modules:
        __import__(f"medgraph.{module}")
    run_cli(work.warmup_argv())

    tracer = spans.Tracer() if trace else None
    wall, cpu, rates, traced_wall = [], [], [], []
    attempted = failed = 0
    wrong = False
    start = time.perf_counter()
    while attempted < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and attempted % 2 == 1
        if traced:
            tracer.op = attempted
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            items = work.op()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        attempted += 1
        sys.stderr.write(f"operation {attempted}{' traced' if traced else ''}: "
                         f"{t1 - t0:.4f} s\n")
        if attempted == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            work.prepare()
        (traced_wall if traced else wall).append(t1 - t0)
        if not traced:
            cpu.append(c1 - c0)
        if error is None:
            problems = work.check()
            if problems:
                wrong = True
                error = "; ".join(problems)
            elif not traced:
                rates.append(items / (t1 - t0))
        if error is not None:
            failed += 1
            sys.stderr.write(f"operation {attempted} failed: {error}\n")

    if trace:
        tracer.write(span_file)
        totals = spans.per_op_totals(span_file)
        metrics = {}
        for metric, unit in spans.per_layer_names().items():
            values = [totals.get(op, {}).get(metric, 0) for op in
                      range(1, attempted, 2)]
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
        metrics["process.cpu_s"]["value"] = statistics.median(cpu)
        metrics["trace.overhead_s"]["value"] = \
            statistics.median(traced_wall) - statistics.median(wall)
    else:
        metrics = {
            "op_s": {"value": statistics.median(wall), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "items_per_s": {"value": statistics.median(rates) if rates else 0.0,
                            "unit": "1/s"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
