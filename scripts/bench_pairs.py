"""Run the benchmark on two source checkouts in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload estimate_boot --seeds 1-10 --seconds 20 --out BENCH.json

For each workload and seed, ``perfbench/run.py`` runs once in each checkout
(each in its own directory, with its own copy of the benchmark), the parent
first on even pair numbers and the change first on odd ones.  For every
metric the result holds each side's median and quartiles over the seeds
and, for the end-to-end metrics of ``BENCHMARK.json``, how many pairs the
change won (ties count for neither side), whether that is a gain (at least
nine tenths of the pairs won and the medians further apart than the
parent's quartile spread), whether the change's median is worse than the
parent's by more than the metric's bound, and whether the metric is
unresolved: the parent's quartile spread is wider than the bound relative
to its median, so a median within the bound does not show it unchanged,
unless every change run reads better than every parent run.  Every run is
kept in the file.
An existing output file is updated: the workloads run now replace their
earlier entries and the others stay, so one record can hold workloads run
with different seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(root):
    """The checkout's HEAD commit, with ``-dirty`` appended when it has
    uncommitted edits (what ran is then not that commit), or None outside
    a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_once(root, workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    begin = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - begin
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
                "wall_s": wall}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "wall_s": wall,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "values": values}


def summarize(pairs, end_to_end):
    ok = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    names = sorted(set().union(*(p["parent"]["metrics"] for p in ok))) if ok else []
    out = {}
    for name in names:
        both = [p for p in ok if name in p["parent"]["metrics"]
                and name in p["change"]["metrics"]]
        parent = [p["parent"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        entry = {"pairs": len(both), "parent": spread(parent),
                 "change": spread(change)}
        spec = end_to_end.get(name)
        if spec is not None:
            sign = 1.0 if spec["better"] == "lower" else -1.0
            wins = sum(bool(sign * (c - p) < 0) for p, c in zip(parent, change))
            pm, cm = entry["parent"]["median"], entry["change"]["median"]
            iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
            worse = sign * (cm - pm) / abs(pm) if pm else 0.0
            # every change run better than every parent run
            apart = max(sign * c for c in change) < min(sign * p for p in parent)
            entry.update({
                "better": spec["better"], "bound": spec["bound"],
                "change_wins": wins,
                "gain": wins >= 0.9 * len(both) and sign * (pm - cm) > iqr,
                "relative_worsening": worse,
                "regression": worse > spec["bound"],
                "unresolved": iqr > spec["bound"] * abs(pm) and not apart})
        out[name] = entry
    return out


def outcomes(pairs, side):
    runs = [p[side] for p in pairs]
    return {"runs": len(runs),
            "runs_in_error": sum("error" in r for r in runs),
            "runs_incorrect": sum(not r.get("correct", False) for r in runs),
            "attempted": sum(r.get("attempted", 0) for r in runs),
            "failed": sum(r.get("failed", 0) for r in runs)}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent source checkout")
    p.add_argument("--change", required=True, help="changed source checkout")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11-13")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args()

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    settings = {"seconds": seconds, "seeds": seeds, "trace": args.trace,
                **{f"{side}_commit": commit_of(root)
                   for side, root in roots.items()}}
    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["machine"] = {"platform": platform.platform(),
                         "python": platform.python_version(),
                         "numpy": np.__version__, "cpus": os.cpu_count()}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, seconds,
                                      args.trace)
            pairs.append(pair)
            op = {s: pair[s].get("metrics", {}).get("op_s") for s in order}
            print(f"{workload} seed {seed}: op_s parent {op['parent']} "
                  f"change {op['change']}", file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "settings": settings,
            "outcomes": {side: outcomes(pairs, side) for side in roots},
            "metrics": summarize(pairs, end_to_end), "runs": pairs}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
