"""Command-line entry point.

Subcommands: check (mediation assumptions on a graph file), sep (separation
queries), unroll, simulate (exact discrete-model queries), estimate
(survival pipeline), hawkes (simulation + identification), selftest.

Exit codes: 0 success, 1 domain error, 2 usage error.  All JSON outputs
embed the tool version, the seed and sha256 digests of the input files, and
are byte-for-byte deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigurationError, MedgraphError
from .graphs import _split_lagged, format_unrolled_lig, parse_lig
from .mediation import MediationGraph, check_assumptions
from .separation import (d_connecting_path, delta_connecting_path,
                         format_path, granger_noncausal_graphical)
from .transform import unroll

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# rows of output CSV text formatted by one % operation
WRITE_CHUNK_ROWS = 1 << 16


# -- deterministic JSON and CSV with full-precision floats --------------------


def _fmt17(x):
    return format(float(x), ".17g")


def _json_value(obj):
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}"
                          for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt17(obj)
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    return json.dumps(str(obj))


def dumps(obj):
    return _json_value(obj) + "\n"


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _envelope(seed, inputs):
    return {
        "tool": "medgraph",
        "version": __version__,
        "seed": seed,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
    }


class UsageError(Exception):
    """Bad invocation found after argument parsing; exits like a parse
    error."""


def _resolve_seed(args):
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("MEDGRAPH_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise UsageError(f"MEDGRAPH_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise UsageError(f"seed {seed} is negative")
    return seed


def _load_json(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return obj


def _load_graph(path):
    with open(path) as fh:
        return parse_lig(fh.read())


def _write(path, text, force):
    """Write ``text``, a string or an iterable of strings, to ``path``."""
    if os.path.exists(path) and not force:
        raise MedgraphError(f"refusing to overwrite {path}; pass --force")
    with open(path, "w") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


# -- subcommands ---------------------------------------------------------------


def cmd_check(args):
    spec = _load_graph(args.graph)
    mg = MediationGraph.from_spec_file(spec, randomized_treatment=not args.no_a0)
    report = check_assumptions(mg)
    out = _envelope(_resolve_seed(args), [args.graph])
    out["report"] = report.as_dict()
    sys.stdout.write(dumps(out))
    return EXIT_OK


def cmd_sep(args):
    spec = _load_graph(args.graph)
    a = set(args.source.split(","))
    b = set(args.target.split(","))
    c = set(args.given.split(",")) if args.given else set()
    out = _envelope(_resolve_seed(args), [args.graph])
    out["query"] = {"flavor": args.flavor, "from": sorted(a),
                    "target": sorted(b), "given": sorted(c)}
    if args.flavor == "delta":
        path = delta_connecting_path(spec.graph, a, b, c)
        out["separated"] = path is None
    elif args.flavor == "granger":
        res = granger_noncausal_graphical(spec.graph, a, b, c)
        out["status"] = res.status
        out["reason"] = res.reason
        path = res.witness
        out["separated"] = res.status == "holds"
    else:
        a, b, c = ({_split_lagged(t) for t in s} for s in (a, b, c))
        path = d_connecting_path(unroll(spec.graph, args.lags), a, b, c)
        out["separated"] = path is None
    if path is not None:
        out["witness_path"] = format_path(path)
    sys.stdout.write(dumps(out))
    return EXIT_OK


def cmd_unroll(args):
    spec = _load_graph(args.graph)
    text = format_unrolled_lig(unroll(spec.graph, args.lags))
    if args.out:
        _write(args.out, text, args.force)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args):
    from . import scm as scm_mod
    seed = _resolve_seed(args)
    model = scm_mod.scm_from_dict(_load_json(args.scm))
    out = _envelope(seed, [args.scm])
    out["query"] = {"kind": args.query, "a": args.a, "astar": args.astar,
                    "t": args.t}
    obs = scm_mod.to_observational(model) \
        if isinstance(model, scm_mod.SeparatedScm) else model
    if args.query == "gformula":
        out["value"] = scm_mod.mediational_g_formula(
            obs, args.a, args.astar, args.t)
    elif args.query == "gcomp":
        out["value"] = scm_mod.g_computation(obs, args.a, args.t)
    elif args.query == "interventional":
        if not isinstance(model, scm_mod.SeparatedScm):
            raise MedgraphError("interventional query needs a separated model")
        out["value"] = scm_mod.interventional_survival(
            model, args.a, args.astar, args.t)
    else:
        if not isinstance(model, scm_mod.SeparatedScm):
            raise MedgraphError("assumption checks need a separated model")
        rep = scm_mod.verify_assumptions_exact(model)
        out["report"] = {"A1": rep.a1, "A2_discrete": rep.a2_discrete,
                         "A3": rep.a3, "strata_skipped": rep.strata_skipped}
    out["diagnostics"] = {"grid": model.grid, "cells": model.n_cells}
    sys.stdout.write(dumps(out))
    return EXIT_OK


def cmd_estimate(args):
    from . import survival as sv
    seed = _resolve_seed(args)
    columns = {"id": args.id_col, "start": args.start_col,
               "stop": args.stop_col, "event": args.event_col,
               "treatment": args.treatment_col,
               "covariates": [args.mediator_col]}
    ds = sv.ingest_csv(args.data, columns)
    if args.summary:
        ds = sv.mediator_summary(ds, args.mediator_col, args.summary,
                                 decay=args.decay, split=args.split)
        keep = [n for n in ds.covariate_names if n != args.mediator_col]
        cols = np.stack([ds.column(n) for n in keep], axis=1)
        ds = dataclasses.replace(ds, covariates=cols,
                                 covariate_names=tuple(keep))
    result = sv.estimate_effects(ds)

    os.makedirs(args.out, exist_ok=True)
    fit_out = _envelope(seed, [args.data])
    fit_out["gamma"] = list(result.fit.coef)
    fit_out["covariates"] = list(ds.covariate_names)
    fit_out["loglik"] = result.fit.loglik
    fit_out["iterations"] = result.fit.iterations
    fit_out["grad_norm"] = result.fit.grad_norm
    fit_out["data_summary"] = ds.summary()
    _write(os.path.join(args.out, "fit.json"), dumps(fit_out), args.force)

    rho = result.rho_hat
    _write(os.path.join(args.out, "rho.csv"),
           _float_csv("t,rho_hat", [rho.times, rho.values]), args.force)

    cv = result.curves
    header = "t,SDE,SIE,total"
    cols = [cv.times, cv.sde, cv.sie, cv.total]
    if args.boot:
        bands = sv.bootstrap(
            ds, lambda d: sv.estimate_rho(d, sv.fit_cox_td(d.group(0))),
            args.boot, seed, grid=cv.times)
        header += ",rho_lower,rho_upper"
        cols += [bands.lower, bands.upper]
    _write(os.path.join(args.out, "effects.csv"), _float_csv(header, cols),
           args.force)
    sys.stdout.write(dumps({"out": args.out,
                            "subjects": ds.n_subjects,
                            "events": ds.n_events}))
    return EXIT_OK


def _float_csv(header, columns):
    """CSV text of float columns under ``header``, every value formatted
    as ``_fmt17`` does, with one ``%`` format per chunk of rows."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    parts = [header + "\n"]
    for lo in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
        rows = np.column_stack([c[lo:lo + WRITE_CHUNK_ROWS] for c in columns])
        parts.append(line * len(rows) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def _event_lines(stream, names):
    """The ``events.csv`` text in chunks of rows, so the whole file is never
    held as strings at once; times are formatted as ``_fmt17`` does.  Each
    chunk is one ``%`` format of its times interleaved with their process
    names, which are arguments, so a ``%`` in a name is written as is."""
    chunk = WRITE_CHUNK_ROWS
    yield "time,process\n"
    for lo in range(0, len(stream), chunk):
        times = stream.times[lo:lo + chunk].tolist()
        cells = [None] * (2 * len(times))
        cells[::2] = times
        cells[1::2] = [names[p] for p in stream.procs[lo:lo + chunk].tolist()]
        yield "%.17g,%s\n" * len(times) % tuple(cells)


def cmd_hawkes(args):
    from . import hawkes as hk
    seed = _resolve_seed(args)
    model = hk.model_from_dict(_load_json(args.model))
    os.makedirs(args.out, exist_ok=True)
    artifacts = {}
    stream = None
    if args.simulate:
        stream = hk.simulate(model, args.simulate, seed)
        _write(os.path.join(args.out, "events.csv"),
               _event_lines(stream, model.names), args.force)
        artifacts["events"] = len(stream)
    if args.identify:
        if stream is not None:
            lag = hk.default_max_lag(model, args.bin_width)
            cov = hk.integrated_cov_empirical(stream, args.bin_width, lag)
            obs = list(model.observed)
            cov = hk.CovMatrix(cov.matrix[np.ix_(obs, obs)],
                               tuple(model.names[i] for i in obs))
            rtol = 0.5  # sampling noise: structure check loosened
        else:
            cov = hk.integrated_cov_exact(model)
            rtol = 1e-6
        res = hk.identify(cov, structure_rtol=rtol)
        out = _envelope(seed, [args.model])
        out["source"] = "empirical" if stream is not None else "exact"
        out["identified"] = res.as_dict()
        _write(os.path.join(args.out, "identify.json"), dumps(out), args.force)
        artifacts["identify"] = res.as_dict()
    sys.stdout.write(dumps({"out": args.out, **artifacts}))
    return EXIT_OK


def cmd_selftest(args):
    from . import scm as scm_mod
    from . import hawkes as hk
    from . import survival as sv
    from .randomgen import random_dag, random_dag_query, random_query, \
        random_rolled_graph
    from .separation import (d_separated, d_separated_oracle, delta_separated,
                             delta_separated_oracle)
    from .transform import roll
    seed = _resolve_seed(args)
    results = []

    def run(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # report, do not abort the table
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def t_separation():
        rng = np.random.default_rng([seed, 1])
        for k in range(40):
            dag = random_dag(rng, 6)
            for _ in range(20):
                a, b, c = random_dag_query(rng, dag)
                assert d_separated(dag, a, b, c) == d_separated_oracle(dag, a, b, c)
            g = random_rolled_graph(rng)
            for _ in range(20):
                a, b, c = random_query(rng, g.nodes,
                                       target_pool=g.process_nodes)
                assert delta_separated(g, a, b, c) == \
                    delta_separated_oracle(g, a, b, c)

    def t_roundtrip():
        rng = np.random.default_rng([seed, 2])
        for k in range(25):
            g = random_rolled_graph(rng, tailed_acyclic=True)
            assert roll(unroll(g, 3)) == g

    def t_identification():
        rng = np.random.default_rng([seed, 3])
        sep = scm_mod.random_separated_scm(2, rng)
        obs = scm_mod.to_observational(sep)
        for a in (0, 1):
            for astar in (0, 1):
                lhs = scm_mod.interventional_survival(sep, a, astar, 2)
                rhs = scm_mod.mediational_g_formula(obs, a, astar, 2)
                assert abs(lhs - rhs) <= 1e-12
        bad = scm_mod.random_separated_scm(2, rng, violation="direct_to_mediator")
        assert not scm_mod.verify_assumptions_exact(bad).a1

    def t_cox_gradient():
        cfg = sv.SimulationConfig(n_subjects=400, rho=0.0, gamma=0.4,
                                  visit_times=(1.0,), horizon=2.5)
        ds = sv.simulate_dataset(cfg, [seed, 4])
        g0 = np.array([0.2])
        eps = 1e-5
        fd = (sv.log_partial_likelihood(ds, g0 + eps)
              - sv.log_partial_likelihood(ds, g0 - eps)) / (2 * eps)
        fit = sv.fit_cox_td(ds)
        assert fit.grad_norm <= 1e-8
        ll = sv.log_partial_likelihood(ds, g0)
        assert np.isfinite(ll) and np.isfinite(fd)

    def t_hawkes():
        model = hk.random_fig7_model([seed, 5])
        res = hk.identify(hk.integrated_cov_exact(model))
        g = model.branching
        assert abs(res.g_ma - g[1, 0]) <= 1e-8
        assert abs(res.g_da - g[2, 0]) <= 1e-8
        assert abs(res.g_dm - g[2, 1]) <= 1e-8

    run("separation_oracles_agree", t_separation)
    run("roll_unroll_round_trip", t_roundtrip)
    run("gformula_identification", t_identification)
    run("cox_partial_likelihood", t_cox_gradient)
    run("hawkes_identification", t_hawkes)

    width = max(len(n) for n, _, _ in results)
    for name, ok, msg in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}"
        if msg:
            line += f"  {msg}"
        sys.stdout.write(line + "\n")
    sys.stdout.write(dumps({"tool": "medgraph", "version": __version__,
                            "seed": seed,
                            "passed": sum(ok for _, ok, _ in results),
                            "failed": sum(not ok for _, ok, _ in results)}))
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_DOMAIN


# -- argument parsing ---------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="medgraph",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (fallback: MEDGRAPH_SEED, then 0)")
        sp.add_argument("--force", action="store_true",
                        help="allow overwriting existing output files")

    sp = sub.add_parser("check", help="verify mediation assumptions on a graph")
    sp.add_argument("graph")
    sp.add_argument("--no-a0", action="store_true",
                    help="do not assert randomized treatment")
    common(sp)

    sp = sub.add_parser("sep", help="separation query on a graph file")
    sp.add_argument("graph")
    sp.add_argument("--flavor", choices=("delta", "d", "granger"),
                    default="delta")
    sp.add_argument("--from", dest="source", required=True,
                    help="comma-separated source nodes")
    sp.add_argument("--target", required=True)
    sp.add_argument("--given", default="")
    sp.add_argument("--lags", type=int, default=2,
                    help="unrolling depth for the d flavor")
    common(sp)

    sp = sub.add_parser("unroll", help="unroll a rolled graph file")
    sp.add_argument("graph")
    sp.add_argument("--lags", type=int, required=True)
    sp.add_argument("--out", default=None)
    common(sp)

    sp = sub.add_parser("simulate", help="exact queries on a discrete model")
    sp.add_argument("--scm", required=True, help="model specification (JSON)")
    sp.add_argument("--query", required=True,
                    choices=("gformula", "gcomp", "interventional",
                             "assumptions"))
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--astar", type=int, default=0)
    sp.add_argument("--t", type=int, default=1)
    common(sp)

    sp = sub.add_parser("estimate", help="survival effect estimation")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--id-col", default="id")
    sp.add_argument("--start-col", default="start")
    sp.add_argument("--stop-col", default="stop")
    sp.add_argument("--event-col", default="event")
    sp.add_argument("--treatment-col", default="treatment")
    sp.add_argument("--mediator-col", default="m")
    sp.add_argument("--summary", default=None,
                    choices=("last", "mean_all", "weighted", "two_part"))
    sp.add_argument("--decay", type=float, default=None)
    sp.add_argument("--split", type=float, default=None)
    sp.add_argument("--boot", type=int, default=0)
    common(sp)

    sp = sub.add_parser("hawkes", help="Hawkes simulation and identification")
    sp.add_argument("--model", required=True)
    sp.add_argument("--simulate", type=float, default=None, metavar="T_END")
    sp.add_argument("--identify", action="store_true")
    sp.add_argument("--bin-width", type=float, default=0.2)
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser("selftest", help="run the seeded property suites")
    common(sp)
    return p


@functools.cache
def _parser():
    """The parser, built on the first call and kept for the life of the
    process: ``parse_args`` reads it and changes nothing in it, and no
    argument has a mutable default."""
    return build_parser()


def _error(code, exc, status):
    sys.stderr.write(dumps({"error": {"code": code, "message": str(exc)}}))
    return status


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # What the subcommand writes to stderr (warnings, say) is held back: a
    # failed run's stderr is its one JSON error, any other run shows it.
    held = io.StringIO()
    try:
        with contextlib.redirect_stderr(held):
            # looked up now, not when the parser was built
            status = globals()["cmd_" + args.command](args)
    except (FileNotFoundError, UsageError) as exc:
        return _error("usage", exc, EXIT_USAGE)
    except MedgraphError as exc:
        return _error(type(exc).__name__, exc, EXIT_DOMAIN)
    except BaseException:
        sys.stderr.write(held.getvalue())
        raise
    sys.stderr.write(held.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
