"""Spans recorded from the benchmark's side of the boundary.

The tracer wraps public functions of medgraph's modules, including the
names other medgraph modules imported from them, so that calls between
modules are seen too.  A span records its name, start, end and parent;
spans are kept in memory and written out as JSON lines when the run ends.
Counts are read from the wrapped calls' return values or from the warnings
they raise.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings

# (layer, attribute path) of every wrapped function
SPANNED = (
    ("cli", "cmd_estimate"), ("cli", "cmd_hawkes"),
    ("survival", "ingest_csv"), ("survival", "SurvivalDataset.build"),
    ("survival", "mediator_summary"), ("survival", "SurvivalDataset.summary"),
    ("survival", "kaplan_meier"), ("survival", "breslow_baseline"),
    ("survival", "effect_curves"), ("survival", "fit_cox_td"),
    ("survival", "estimate_rho"), ("survival", "resample_subjects"),
    ("survival", "SurvivalDataset.restrict"), ("survival", "bootstrap"),
    ("hawkes", "simulate"), ("hawkes", "simulate_clusters"),
    ("hawkes", "integrated_cov_empirical"), ("hawkes", "identify"),
    ("hawkes", "expected_cluster_matrix"), ("hawkes", "validate"),
    ("graphs", "parse_lig"), ("transform", "unroll"), ("transform", "roll"),
    ("separation", "d_separated"), ("separation", "delta_separated"),
    ("separation", "delta_connecting_path"), ("separation", "d_connecting_path"),
    ("separation", "granger_noncausal_graphical"),
    ("mediation", "check_assumptions"),
    ("scm", "joint"), ("scm", "mediational_g_formula"),
    ("scm", "interventional_survival"), ("scm", "granger_noncausal_exact"),
    ("scm", "verify_assumptions_exact"),
)

# counted but not timed: a span here would hide the caller's own work
COUNTED = (("scm", "conditionally_independent"),)

# count name -> (span name, reader of the return value)
RESULT_COUNTS = {
    "survival.cox_iterations": ("survival.fit_cox_td", lambda r: r.iterations),
    "survival.bootstrap.dropped": ("survival.bootstrap", lambda r: r.n_dropped),
    "hawkes.simulate.events": ("hawkes.simulate", len),
    "hawkes.simulate.max_generation":
        ("hawkes.simulate", lambda r: int(r.generations.max()) if len(r) else 0),
    "hawkes.simulate_clusters.events":
        ("hawkes.simulate_clusters", lambda r: int(r.sum())),
    "scm.joint.cells": ("scm.joint", lambda r: int(r.probs.size)),
}
CALL_COUNTS = ("survival.fit_cox_td", "hawkes.expected_cluster_matrix",
               "separation.d_separated", "separation.delta_separated",
               "separation.delta_connecting_path",
               "scm.conditionally_independent")
WARNING_COUNTS = {"survival.estimate_rho.warnings": "survival.estimate_rho"}


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {f"{layer}.{path}.self_s": "s" for layer, path in SPANNED}
    names.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    names.update({name: "count" for name in RESULT_COUNTS})
    names.update({name: "count" for name in WARNING_COUNTS})
    names["process.cpu_s"] = "s"
    names["trace.overhead_s"] = "s"
    return names


class Tracer:
    def __init__(self):
        self.records = []     # (op, id, parent, name, start, end)
        self.counts = []      # (op, name, value)
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------------

    def _span(self, name, fn, reader_names, warn_name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.records) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                if warn_name is None:
                    result = fn(*args, **kwargs)
                else:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.counts.append((tracer.op, warn_name, len(caught)))
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category,
                                               w.filename, w.lineno)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.records.append((tracer.op, sid, parent, name, start, end))
            for count_name, reader in reader_names:
                tracer.counts.append((tracer.op, count_name, reader(result)))
            return result
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts.append((tracer.op, name + ".calls", 1))
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every listed function in every medgraph module that holds
        it, and the listed methods on their classes."""
        for layer, path in SPANNED + COUNTED:
            name = f"{layer}.{path}"
            module = importlib.import_module(f"medgraph.{layer}")
            readers = [(k, r) for k, (span, r) in RESULT_COUNTS.items()
                       if span == name]
            warn = next((k for k, span in WARNING_COUNTS.items() if span == name),
                        None)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self._span(name, fn, readers, warn)
                self._patch(cls, attr, raw,
                            classmethod(new) if isinstance(raw, classmethod) else new)
                continue
            orig = getattr(module, path)
            new = (self._counter(name, orig) if (layer, path) in COUNTED
                   else self._span(name, orig, readers, warn))
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name.split(".")[0] == "medgraph" and \
                        getattr(mod, path, None) is orig:
                    self._patch(mod, path, orig, new)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.records:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"op": op, "count": name,
                                     "value": value}) + "\n")


def per_op_totals(path):
    """Self time per span name and count totals, for each traced op, from
    a written span file.  Self time is a span's duration minus the
    durations of its direct children."""
    spans, counts = [], []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            (counts if "count" in rec else spans).append(rec)
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["op"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get((s["op"], s["id"]), 0.0)
        per_op = totals.setdefault(s["op"], {})
        per_op[s["name"] + ".self_s"] = per_op.get(s["name"] + ".self_s", 0.0) + own
        calls = s["name"] + ".calls"
        per_op[calls] = per_op.get(calls, 0) + 1
    for c in counts:
        per_op = totals.setdefault(c["op"], {})
        per_op[c["count"]] = per_op.get(c["count"], 0) + c["value"]
    return totals
