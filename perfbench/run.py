"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Draws the workload's inputs from
the seed into .perfbench_work/, times medgraph's set-up in fresh
interpreters (untraced runs only), runs the workload in its own process,
and prints the result as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 7
DEADLINE = 170.0

# Workload processes run with a fixed hash seed, because the walk order over
# frozensets changes the work a separation query does, and with one BLAS
# thread, so that wall time is not bought with extra cores.
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(args, timeout):
    env = dict(os.environ, **ENV)
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{os.path.basename(args[0])} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "medgraph")):
        sys.exit("no medgraph sources under src/; run from a source checkout")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    begin = time.monotonic()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        work.write_inputs()
        setup = []
        if not args.trace:
            probe = [os.path.join(HERE, "probe.py"), ",".join(work.modules),
                     json.dumps(work.warmup_argv())]
            setup = [float(child(probe, 60)) for _ in range(SETUP_SAMPLES)]
        span_file = os.path.join(WORK, f"spans-{args.workload}.jsonl")
        line = child([os.path.join(HERE, "worker.py"), args.workload,
                      str(args.seed), str(args.seconds), str(args.trace),
                      workdir, span_file],
                     DEADLINE - (time.monotonic() - begin))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(line)
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
