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
from .errors import ConfigurationError, MedgraphError, ParseError
from .graphs import _split_lagged, format_unrolled_lig, parse_lig
from .mediation import MediationGraph, check_assumptions
from .separation import (d_connecting_path, delta_connecting_path,
                         format_path, granger_noncausal_graphical)
from .transform import unroll

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# rows of output CSV text built as one byte matrix; at 1 << 16 rows the
# chunk's temporaries (megabytes each) left the heap laid out so that the
# peak RSS of `hawkes --simulate 1e5 --identify` swung between 96 and 106 MB
# with the length of the output path
WRITE_CHUNK_ROWS = 1 << 14


# -- deterministic JSON and CSV with full-precision floats --------------------


def _fmt17(x):
    return format(float(x), ".17g")


# -- the same text for float arrays, built as bytes ---------------------------
#
# A double x with 1e-4 <= |x| < 1e17 prints in fixed notation.  With
# k = floor(log10|x|), its 17 significant digits are D = |x| * 10**(16 - k)
# rounded half to even, an integer in [10**16, 10**17).  The product is
# formed exactly with Dekker's two-product (the scale 10**p, p <= 20, is an
# exact double), so D is the correctly rounded value that %.17g prints.
# None of these x rounds up to 1e17: at k = 16, x itself is an integer.
# Every other cell (0, -0, nan, inf, tiny and huge values) is formatted by
# Python, cell by cell.

_CELL_WIDTH = 24  # longest %.17g text: "-1.2345678901234567e-308"
# row n: the first n bytes of a cell, then the separator that follows it
_CELL_KEEP = np.arange(_CELL_WIDTH + 1) < np.arange(_CELL_WIDTH + 1)[:, None]
_CELL_KEEP[:, _CELL_WIDTH] = True
_POW10 = np.array([float(10 ** p) for p in range(21)])  # exact doubles
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")


@functools.cache
def _quad_tables():
    """The four ASCII digits of each of 0 .. 9999 as one uint32, and their
    trailing zeros (4 for 0).  Built on first use, so commands that write
    no CSV do not pay for them."""
    digits = (np.arange(10000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.uint16)
              % np.uint16(10) + np.uint16(_ZERO)).astype(np.uint8)
    zeros = np.cumprod(digits[:, ::-1] == _ZERO, axis=1).sum(axis=1)
    return digits.view(np.uint32).ravel(), zeros


def _split(a):
    """Veltkamp's split of doubles into halves of at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled_round(a, k):
    """``a * 10**(16 - k)`` rounded half to even, exactly, as int64.

    Dekker's product gives ``a * 10**p == h + l`` in doubles.  When the
    result has 17 digits, h >= 2**53 is an integer, so the rounding is
    decided by l alone."""
    p = 16 - k
    h = a * _POW10[p]
    ah, al = _split(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    l = al * bl - (((h - ah * bh) - al * bh) - ah * bl)
    fl = np.floor(l)
    d = h.astype(np.int64) + fl.astype(np.int64)
    r = l - fl
    return d + ((r > 0.5) | ((r == 0.5) & ((d & 1) == 1))).astype(np.int64)


def _digits17(a):
    """The 17 significant digits D and decimal exponent k of each of the
    positive doubles ``a`` (1e-4 <= a < 1e17), as %.17g rounds them."""
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    d = _scaled_round(a, k)
    # Move k until D lies in [10**16, 10**17).  log10 may misjudge k by one
    # next to a power of ten, and D = 10**17 rounds up to 10**(k + 1),
    # where D is 10**16.  A k one too high cannot give D = 10**16: that
    # needs a double less than 5e-17 (relative) below 10**k, and there is
    # none for k in [-3, 17].
    while True:
        move = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
        wrong = np.flatnonzero(move)
        if not len(wrong):
            break
        k[wrong] += move[wrong]
        d[wrong] = _scaled_round(a[wrong], k[wrong])
    return d, k


def _place(digits, k, neg, out):
    """Lay out ``digits`` (17 ASCII columns) of one exponent ``k`` and sign
    in fixed notation at the start of each row of ``out``: all 17 digits
    and the point, of which the cell's length keeps the text."""
    s = int(neg)
    if s:
        out[:, 0] = _MINUS
    if k >= 0:
        out[:, s:s + k + 1] = digits[:, :k + 1]
        out[:, s + k + 1] = _POINT
        out[:, s + k + 2:s + 18] = digits[:, k + 1:]
    else:
        out[:, s:s - k + 1] = _ZERO
        out[:, s + 1] = _POINT
        out[:, s - k + 1:s - k + 18] = digits


def _fmt17_into(x, out):
    """Write ``_fmt17`` of each float64 in ``x`` into the leading bytes of
    the same row of the uint8 matrix ``out`` (24 columns or more), as ASCII,
    and return the text lengths.  Bytes past a cell's length are left as
    they are."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    rows = np.flatnonzero(fixed)
    d, k = _digits17(a[rows])
    neg = np.signbit(x[rows])

    # D as five groups of four digits, the first of them 000d
    hi = d // 10 ** 8
    lo = d - hi * 10 ** 8
    hi, lo = hi.astype(np.uint32), lo.astype(np.uint32)
    quads = np.empty((len(rows), 5), dtype=np.intp)
    quads[:, 0] = hi // np.uint32(10 ** 8)
    quads[:, 1] = hi // np.uint32(10 ** 4) % np.uint32(10 ** 4)
    quads[:, 2] = hi % np.uint32(10 ** 4)
    quads[:, 3] = lo // np.uint32(10 ** 4)
    quads[:, 4] = lo % np.uint32(10 ** 4)
    quad_ascii, quad_zeros = _quad_tables()
    digits = quad_ascii[quads].view(np.uint8)[:, 3:]
    # significant digits once trailing zeros are stripped; the first is not 0
    tz = quad_zeros[quads]
    strip = tz[:, 4]
    for j in (3, 2, 1):
        strip = strip + (strip == 4 * (4 - j)) * tz[:, j]
    nd = 17 - strip
    lengths = np.empty(len(x), dtype=np.intp)
    lengths[rows] = neg + np.where(
        k >= 0, np.where(nd > k + 1, nd + 1, k + 1), 1 - k + nd)

    group = (k + 4) * 2 + neg  # (exponent, sign): at most 42 layouts
    if len(rows) == len(x) and len(rows) and group.min() == group.max():
        _place(digits, int(k[0]), neg[0], out)
    else:
        for g in np.flatnonzero(np.bincount(group)):
            sel = np.flatnonzero(group == g)
            block = np.empty((len(sel), _CELL_WIDTH), dtype=np.uint8)
            _place(digits[sel], g // 2 - 4, g % 2, block)
            out[rows[sel], :_CELL_WIDTH] = block

    for i in np.flatnonzero(~fixed).tolist():
        text = format(float(x[i]), ".17g").encode("ascii")
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        lengths[i] = len(text)
    return lengths


def _csv_text(header, columns, names=None, index=None):
    """CSV text in chunks of rows: the float ``columns`` formatted as
    ``_fmt17`` does, then, with ``names``, the ``str`` of ``names[index]``.
    A chunk is one byte matrix, a row per line: each float's text from
    ``_fmt17_into`` in its own slice, then a comma, and at the end the
    name's UTF-8 and a newline from a table, or a newline in place of the
    last comma.  The bytes in use are compressed out and decoded once."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    labels = [str(name).encode("utf-8") + b"\n"
              for name in names or ()]
    label_width = max(map(len, labels), default=0)
    table = np.zeros((len(labels), label_width), dtype=np.uint8)
    for i, label in enumerate(labels):
        table[i, :len(label)] = np.frombuffer(label, dtype=np.uint8)
    table_keep = (np.arange(label_width)
                  < np.array([len(b) for b in labels], dtype=np.intp)[:, None])
    cell = _CELL_WIDTH + 1
    floats = len(columns) * cell
    yield header + "\n"
    for lo in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
        chunk = [c[lo:lo + WRITE_CHUNK_ROWS] for c in columns]
        line = np.empty((len(chunk[0]), floats + label_width), dtype=np.uint8)
        keep = np.empty(line.shape, dtype=bool)
        for j, c in enumerate(chunk):
            at = slice(j * cell, (j + 1) * cell)
            keep[:, at] = _CELL_KEEP[_fmt17_into(c, line[:, at])]
        line[:, _CELL_WIDTH:floats:cell] = ord(",")
        if names is None:
            line[:, floats - 1] = ord("\n")
        else:
            rows = index[lo:lo + WRITE_CHUNK_ROWS]
            line[:, floats:] = table[rows]
            keep[:, floats:] = table_keep[rows]
        yield line[keep].tobytes().decode("utf-8")


def _float_csv(header, columns):
    """The CSV text of float ``columns`` under ``header``, as one string."""
    return "".join(_csv_text(header, columns))


def _event_lines(stream, names):
    """The ``events.csv`` text of ``stream``, in chunks."""
    return _csv_text("time,process", [stream.times], names, stream.procs)


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
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_lig(text)


def _outputs(directory, names, force):
    """Refuse, before any work, to overwrite the files ``names`` in
    ``directory`` unless ``force``.  Returns ``write(*texts)``, called once
    every result is computed: it creates ``directory`` and writes each
    text, a string or an iterable of strings, to its file.  So a failed run
    leaves no output behind."""
    # the nearest existing ancestor (or ``directory`` itself) must be a
    # directory, or makedirs would fail once the work is done
    ancestor = directory
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        raise UsageError(f"{ancestor} is not a directory")
    paths = [os.path.join(directory, name) for name in names]
    for path in paths:
        if os.path.exists(path) and not force:
            raise MedgraphError(f"refusing to overwrite {path}; pass --force")

    def write(*texts):
        for path, text in zip(paths, texts, strict=True):
            os.makedirs(directory or os.curdir, exist_ok=True)
            with open(path, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
    return write


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
    if args.out:
        directory, name = os.path.split(args.out)
        if not name or os.path.isdir(args.out):
            raise UsageError(f"--out {args.out} is a directory, not a file")
        write = _outputs(directory, [name], args.force)
    else:
        write = sys.stdout.write
    spec = _load_graph(args.graph)
    write(format_unrolled_lig(unroll(spec.graph, args.lags)))
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
    write = _outputs(args.out, ["fit.json", "rho.csv", "effects.csv"],
                     args.force)
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
    cv = result.curves
    header = "t,SDE,SIE,total"
    cols = [cv.times, cv.sde, cv.sie, cv.total]
    if args.boot:
        bands = sv.bootstrap(
            ds, lambda d: sv.estimate_rho(d, sv.fit_cox_td(d.group(0))),
            args.boot, seed, grid=cv.times)
        header += ",rho_lower,rho_upper"
        cols += [bands.lower, bands.upper]

    fit_out = _envelope(seed, [args.data])
    fit_out["gamma"] = list(result.fit.coef)
    fit_out["covariates"] = list(ds.covariate_names)
    fit_out["loglik"] = result.fit.loglik
    fit_out["iterations"] = result.fit.iterations
    fit_out["grad_norm"] = result.fit.grad_norm
    fit_out["data_summary"] = ds.summary()
    rho = result.rho_hat
    write(dumps(fit_out), _float_csv("t,rho_hat", [rho.times, rho.values]),
          _float_csv(header, cols))
    sys.stdout.write(dumps({"out": args.out,
                            "subjects": ds.n_subjects,
                            "events": ds.n_events}))
    return EXIT_OK


def cmd_hawkes(args):
    from . import hawkes as hk
    seed = _resolve_seed(args)
    simulate = args.simulate is not None
    write = _outputs(args.out, ["events.csv"] * simulate
                     + ["identify.json"] * args.identify, args.force)
    model = hk.model_from_dict(_load_json(args.model))
    if args.identify:
        hk.check_fig7(model)
    texts, artifacts = [], {}
    if simulate:
        stream = hk.simulate(model, args.simulate, seed)
        texts.append(_event_lines(stream, model.names))
        artifacts["events"] = len(stream)
    if args.identify:
        res = (hk.identify_stream(model, stream, args.bin_width) if simulate
               else hk.identify(hk.integrated_cov_exact(model)))
        out = _envelope(seed, [args.model])
        out["source"] = "empirical" if simulate else "exact"
        out["identified"] = res.as_dict()
        texts.append(dumps(out))
        artifacts["identify"] = res.as_dict()
    write(*texts)
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
        score = sv._cox_stats(sv._risk_sets(ds), g0)[1][0]
        assert abs(fd - score) <= 1e-6 * abs(score), \
            f"central difference {fd!r} != analytic score {score!r}"
        fit = sv.fit_cox_td(ds)
        assert fit.grad_norm <= 1e-8

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
    # a file that cannot be opened: an input that is missing, a directory
    # or unreadable, or an output the finished run cannot write
    except (OSError, UsageError) as exc:
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
