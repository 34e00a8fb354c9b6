"""The benchmark's workloads.

Each workload draws its inputs from the seed (``draw``), writes them as
files (``write_inputs``), loads what its operation needs besides the files
(``load``), runs one operation through medgraph's public entry points
(``op``), derives the expected outputs apart from medgraph (``prepare``)
and checks each operation's outputs (``check``).  ``draw`` is
deterministic, so the process that writes the inputs and the process that
checks the outputs derive the same inputs from the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import gen
import oracles


class OpFailed(Exception):
    pass


def run_cli(argv):
    """medgraph's CLI in this process; returns its stdout, raises on a
    non-zero exit code."""
    from medgraph import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"medgraph {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in fh])
    return {name: rows[:, j] for j, name in enumerate(header)}


def close(x, y, rel, abs_=0.0):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= abs_ + rel * np.abs(y)))


class Workload:
    """Subclasses set ``modules``, the medgraph modules their set-up
    imports, and ``items``, the work items one operation does."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def path(self, name):
        return os.path.join(self.dir, name)

    def load(self):
        pass


# -- survival estimation ---------------------------------------------------------


class Estimate(Workload):
    modules = ("cli", "survival")
    visits = (0.0, 1.0, 2.0)
    horizon = 3.0
    rho, gamma, psi, shift, sd = 0.3, 0.5, 0.2, 0.5, 0.5
    decay = None
    checkpoints = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    def draw(self):
        rng = np.random.default_rng([self.seed, self.salt])
        cols = gen.survival_data(rng, self.n_subjects, self.visits, self.horizon,
                                 self.rho, self.gamma, self.psi, self.shift,
                                 self.sd, self.decay)
        warm = gen.survival_data(rng, 200, self.visits, self.horizon, self.rho,
                                 self.gamma, self.psi, self.shift, self.sd,
                                 self.decay)
        return cols, warm

    def write_inputs(self):
        cols, warm = self.draw()
        gen.write_survival_csv(self.path("data.csv"), cols)
        gen.write_survival_csv(self.path("warm.csv"), warm)

    def summary_args(self):
        if self.decay is None:
            return []
        return ["--summary", "weighted", "--decay", repr(self.decay)]

    def warmup_argv(self):
        return ["estimate", "--data", self.path("warm.csv"), "--out",
                self.path("warm_out"), "--force"] + self.summary_args()

    def argv(self):
        return ["estimate", "--data", self.path("data.csv"), "--out",
                self.path("out"), "--force", "--seed", str(self.seed)] \
            + self.summary_args() + self.boot_args()

    def prepare(self):
        self.cols, _ = self.draw()
        self.counts = gen.survival_counts(self.cols)
        self.formula = oracles.RhoFormula(self.cols, self.visits, self.cols["z"])
        self.all_rows = oracles.RiskSets(self.cols, self.visits,
                                         np.arange(len(self.cols["start"])))
        self._by_gamma = {}

    def op(self):
        run_cli(self.argv())
        return self.items

    def _expected(self, gamma):
        """Oracle results at the reported gamma; an op repeats the same
        input, so they are computed once per distinct gamma."""
        if gamma not in self._by_gamma:
            score, info = oracles.cox_score(self.cols, self.visits,
                                            self.cols["z"], gamma)
            self._by_gamma = {gamma: (score, info, self.formula.values(gamma),
                                      self.formula.sd(gamma, info))}
        return self._by_gamma[gamma]

    def check(self):
        bad = []
        with open(self.path("out/fit.json")) as fh:
            fit = json.load(fh)
        if fit["data_summary"] != self.counts:
            bad.append(f"data_summary {fit['data_summary']} != {self.counts}")
        gamma = float(fit["gamma"][0])
        score, info, r_hat, se = self._expected(gamma)
        if len(fit["gamma"]) != 1 or not abs(score) <= 1e-6 * info:
            bad.append(f"Cox score {score:.3g} at gamma {gamma!r} is not ~0 "
                       f"against information {info:.6g}")
        if not abs(gamma - self.gamma) <= 5.0 / np.sqrt(info):
            bad.append(f"gamma {gamma:.4f} is more than 5 SE from {self.gamma}")

        r = read_csv(self.path("out/rho.csv"))
        grid = self.formula.grid
        if not np.array_equal(r["t"], grid):
            bad.append("rho.csv times are not the pooled event times")
            return bad
        if not close(r["rho_hat"], r_hat, 1e-9, 1e-9):
            bad.append("rho.csv differs from the R(t) formula")
        at_risk = self.all_rows.sums(self.checkpoints, np.ones(len(self.cols["z"])))
        for t, n in zip(self.checkpoints, at_risk):
            k = np.searchsorted(grid, t, side="right") - 1
            if n >= 100 and not abs(r_hat[k] - self.rho * t) <= 5 * se[k]:
                bad.append(f"R({t}) = {r_hat[k]:.4f} is more than 5 SE "
                           f"({se[k]:.4f}) from {self.rho * t:.4f}")

        e = read_csv(self.path("out/effects.csv"))
        if not np.array_equal(e["t"], grid):
            bad.append("effects.csv times are not the pooled event times")
            return bad
        km_ratio = self.formula.kaplan_meier(1) / self.formula.kaplan_meier(0)
        if not close(e["SDE"], np.exp(-r["rho_hat"]), 1e-12):
            bad.append("SDE != exp(-R)")
        if not close(e["total"], km_ratio, 1e-9):
            bad.append("total != KM1/KM0")
        if not close(e["SDE"] * e["SIE"], e["total"], 0.0, 1e-10):
            bad.append("SDE * SIE != total")
        if "rho_lower" in e:
            if not np.all(e["rho_lower"] <= e["rho_upper"]):
                bad.append("a band has lower > upper")
            for t in self.checkpoints:
                k = np.searchsorted(grid, t, side="right") - 1
                if not e["rho_lower"][k] <= r["rho_hat"][k] <= e["rho_upper"][k]:
                    bad.append(f"band at {t} does not contain R")
        return bad


class EstimateBoot(Estimate):
    """5 000 subjects, mediator measured at 0, 1 and 2, current value as
    the Cox covariate, 200 bootstrap replicates."""
    salt = 1
    n_subjects = 5000
    n_boot = 200
    items = n_boot      # bootstrap replicates per operation

    def boot_args(self):
        return ["--boot", str(self.n_boot)]


class EstimateLarge(Estimate):
    """50 000 subjects, mediator measured every 0.5 up to 2.5, hazard and
    Cox covariate on its exponentially weighted history; no bootstrap."""
    salt = 2
    n_subjects = 50_000
    visits = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    decay = 0.5
    items = n_subjects  # subjects per operation

    def boot_args(self):
        return []


# -- Hawkes --------------------------------------------------------------------------


class HawkesIdentify(Workload):
    """Fig-7 model with fixed parameters; the seed drives the simulation."""
    modules = ("cli", "hawkes")
    t_end = 1e5
    n_clusters = 20_000
    cluster_horizon = 400.0
    rel_tol = 0.30

    def write_inputs(self):
        gen.write_json(self.path("model.json"), gen.fig7_model_dict())

    def warmup_argv(self):
        return ["hawkes", "--model", self.path("model.json"), "--identify",
                "--out", self.path("warm_out"), "--force"]

    def prepare(self):
        self.model = gen.fig7_model_dict()
        g = np.asarray(self.model["branching"])
        self.r, self.lam, self.cov = oracles.hawkes_moments(self.model)
        self.cluster_cov = oracles.cluster_covariances(g, self.r)[0]
        reach = oracles.closure({0}, {i: {j for j in range(5) if g[j, i] > 0}
                                      for i in range(5)})
        self.reached = [i in reach for i in range(5)]

    def op(self):
        from medgraph import hawkes as hk
        stdout = run_cli(["hawkes", "--model", self.path("model.json"),
                          "--simulate", repr(self.t_end), "--identify", "--force",
                          "--out", self.path("out"), "--seed", str(self.seed)])
        with open(self.path("model.json")) as fh:
            model = hk.model_from_dict(json.load(fh))
        self.clusters = hk.simulate_clusters(model, "A", self.n_clusters,
                                             self.cluster_horizon,
                                             [self.seed, 1])
        self.n_events = json.loads(stdout)["events"]
        return self.n_events + int(self.clusters.sum())

    def check(self):
        bad = []
        names = gen.FIG7
        times, procs = [], []
        with open(self.path("out/events.csv")) as fh:
            if fh.readline().strip() != "time,process":
                return ["events.csv header"]
            for line in fh:
                t, p = line.rstrip("\n").split(",")
                times.append(float(t))
                procs.append(names.index(p))
        times = np.array(times)
        if len(times) != self.n_events:
            bad.append("events.csv row count differs from the reported count")
        if np.any(np.diff(times) < 0) or times.min() < 0 or times.max() > self.t_end:
            bad.append("events.csv is not sorted within [0, T]")
        counts = np.bincount(procs, minlength=5)
        tol = 5 * np.sqrt(np.diag(self.cov) * self.t_end)
        for i in np.nonzero(np.abs(counts - self.lam * self.t_end) > tol)[0]:
            bad.append(f"{names[i]}: {counts[i]} events, expected "
                       f"{self.lam[i] * self.t_end:.0f} +- {tol[i]:.0f}")

        with open(self.path("out/identify.json")) as fh:
            ident = json.load(fh)["identified"]
        g = np.asarray(self.model["branching"])
        truth = {"direct": g[2, 0], "mediated": g[2, 1] * g[1, 0]}
        for key, val in truth.items():
            if not abs(ident[key] - val) <= self.rel_tol * val:
                bad.append(f"{key} effect {ident[key]:.4f} vs {val:.4f}")

        means = self.clusters.mean(axis=0)
        se = np.sqrt(np.diag(self.cluster_cov) / self.n_clusters)
        for i in range(5):
            if self.reached[i]:
                ok = abs(means[i] - self.r[i, 0]) <= 5 * se[i]
            else:
                ok = not self.clusters[:, i].any()
            if not ok:
                bad.append(f"cluster mean of {names[i]} {means[i]:.4f} vs "
                           f"{self.r[i, 0]:.4f}")
        return bad


# -- graphs and exact models ----------------------------------------------------------


def lagged(node):
    return f"{node[0]}@{node[1]}"


class GraphExact(Workload):
    modules = ("cli", "graphs", "transform", "separation", "mediation", "scm")
    big_lags = 10
    n_sparse, sparse_queries = 40, 25
    n_sep = 6
    dense_k = 8
    n_mediation = 8
    scm_grids = (3, 4)
    n_granger, granger_queries, granger_lags = 6, 3, 2

    def draw(self):
        rng = np.random.default_rng([self.seed, 3])
        d = {}
        big = gen.rolled_graph(rng, 50, 3, 0.04, 0.2)
        d["big"] = big
        edges = gen.unrolled_edges(big, self.big_lags)
        d["big_edges"] = edges
        nodes = sorted({n for e in edges for n in e}
                       | {(b, 0) for b in big.baseline})
        parents = oracles.parent_map(edges)
        queries = []
        for _ in range(20):
            pick = [nodes[int(i)] for i in rng.permutation(len(nodes))[:6]]
            queries.append(({pick[0]}, set(pick[1:3]), set(pick[3:])))
        late = [n for n in nodes if n[1] >= 1]
        while len(queries) < 40:
            x = late[int(rng.integers(len(late)))]
            earlier = sorted(n for n in nodes if n[1] < x[1]
                             and n not in parents.get(x, ()))
            if earlier:
                y = earlier[int(rng.integers(len(earlier)))]
                queries.append(({x}, {y}, set(parents[x])))
        d["big_queries"] = queries

        d["sparse"] = [gen.rolled_graph(rng, 7, 2, 0.3, 0.3)
                       for _ in range(self.n_sparse)]
        d["sparse_queries"] = [[gen.draw_query(rng, g.nodes, g.process)
                                for _ in range(self.sparse_queries)]
                               for g in d["sparse"]]
        d["sep"] = [(i, flavor, gen.draw_query(rng, d["sparse"][i].nodes,
                                              d["sparse"][i].process))
                    for i in range(self.n_sep) for flavor in ("delta", "granger")]

        dense, entry = gen.dense_graph(rng, self.dense_k)
        others = [n for n in dense.process if n not in (entry, "T")]
        src, dst = others[int(rng.integers(len(others)))], others[0]
        d["dense"] = dense
        d["dense_sep"] = [("delta", {src}, {"T"}, set()),
                          ("granger", {src}, {"T"}, set()),
                          ("delta", {"T"}, {dst}, set())]

        small = gen.rolled_graph(rng, 4, 1, 0.35, 0.3, prefix="w")
        d["small"] = small
        d["small_edges"] = gen.unrolled_edges(small, 2)
        d["small_sep"] = []
        for _ in range(2):
            p = [small.process[int(i)] for i in rng.permutation(4)]
            d["small_sep"].append(({(p[0], 0)}, {(p[1], 2)},
                                   {(p[2], 1), (p[1], 1)}))

        d["mediation"] = [gen.mediation_graph(rng, 1 + i % 2, 1 + (i // 2) % 2,
                                              i % 3, 0.35, i % 2 == 1)
                          for i in range(self.n_mediation)]
        d["scm"] = [gen.separated_scm_dict(rng, k) for k in self.scm_grids]

        d["granger"] = []
        while len(d["granger"]) < self.n_granger:
            g = gen.rolled_graph(rng, 3, 1, 0.4, 0.4, prefix="y")
            found = []
            for _ in range(200):
                q = gen.draw_query(rng, g.nodes, g.process)
                if oracles.granger_holds(g, *q):
                    found.append(q)
                if len(found) == self.granger_queries:
                    break
            if len(found) == self.granger_queries:
                d["granger"].append((g, found,
                                     gen.markov_scm_dict(rng, g, self.granger_lags)))
        d["warm"] = gen.mediation_graph(rng, 1, 1, 0, 0.35, False)
        return d

    def write_inputs(self):
        d = self.draw()
        gen.write_text(self.path("big.lig"), d["big"].lig())
        for i, g in enumerate(d["sparse"]):
            gen.write_text(self.path(f"sparse{i}.lig"), g.lig())
        gen.write_text(self.path("dense.lig"), d["dense"].lig())
        gen.write_text(self.path("small.lig"), d["small"].lig())
        for i, g in enumerate(d["mediation"]):
            gen.write_text(self.path(f"med{i}.lig"), g.lig())
        for k, m in zip(self.scm_grids, d["scm"]):
            gen.write_json(self.path(f"scm{k}.json"), m)
        for i, (g, _, m) in enumerate(d["granger"]):
            gen.write_text(self.path(f"granger{i}.lig"), g.lig())
            gen.write_json(self.path(f"granger{i}.json"), m)
        gen.write_text(self.path("warm.lig"), d["warm"].lig())

    def warmup_argv(self):
        return ["check", self.path("warm.lig")]

    def load(self):
        d = self.d = self.draw()
        # queries per operation: separation queries, g-formula and
        # interventional evaluations, and CI tests (3 per grid point in
        # verify_assumptions_exact, one per Granger query)
        self.items = (len(d["big_queries"]) + self.n_sparse * self.sparse_queries
                      + len(d["sep"]) + len(d["dense_sep"]) + len(d["small_sep"])
                      + 3 * self.n_mediation
                      + sum(8 + 3 * k for k in self.scm_grids)
                      + 2 * self.n_granger * self.granger_queries)

    def prepare(self):
        import networkx as nx
        d = self.d
        dag = nx.DiGraph()
        dag.add_nodes_from({n for e in d["big_edges"] for n in e}
                           | {(b, 0) for b in d["big"].baseline})
        dag.add_edges_from(d["big_edges"])
        self.expect_big = [nx.is_d_separator(dag, *q) for q in d["big_queries"]]
        self.expect_sparse = [[oracles.delta_separated(g, *q) for q in qs]
                              for g, qs in zip(d["sparse"], d["sparse_queries"])]
        small = nx.DiGraph()
        small.add_edges_from(d["small_edges"])
        self.expect_small = [nx.is_d_separator(small, *q) for q in d["small_sep"]]

    def sep_argv(self, graph_file, flavor, a, b, c, lags=None):
        argv = ["sep", self.path(graph_file), "--flavor", flavor,
                "--from", ",".join(sorted(a)), "--target", ",".join(sorted(b))]
        if c:
            argv += ["--given", ",".join(sorted(c))]
        if lags is not None:
            argv += ["--lags", str(lags)]
        return argv

    def op(self):
        from medgraph import graphs, scm, separation, transform
        d = self.d
        out = self.out = {}

        def parse(name):
            with open(self.path(name)) as fh:
                return graphs.parse_lig(fh.read()).graph

        big = parse("big.lig")
        dag = transform.unroll(big, self.big_lags)
        out["big"] = (big, dag, transform.roll(dag))
        out["big_sep"] = [separation.d_separated(dag, *q) for q in d["big_queries"]]
        out["sparse"] = []
        for i, qs in enumerate(d["sparse_queries"]):
            g = parse(f"sparse{i}.lig")
            out["sparse"].append([separation.delta_separated(g, *q) for q in qs])

        out["sep"] = [run_cli(self.sep_argv(f"sparse{i}.lig", flavor, *q))
                      for i, flavor, q in d["sep"]]
        out["dense_sep"] = [run_cli(self.sep_argv("dense.lig", *q))
                            for q in d["dense_sep"]]
        out["small_sep"] = [run_cli(self.sep_argv(
            "small.lig", "d", *[{lagged(n) for n in s} for s in q], lags=2))
            for q in d["small_sep"]]
        out["check"] = [run_cli(["check", self.path(f"med{i}.lig")])
                        for i in range(self.n_mediation)]

        out["scm"] = []
        for k in self.scm_grids:
            with open(self.path(f"scm{k}.json")) as fh:
                model = scm.scm_from_dict(json.load(fh))
            obs = scm.to_observational(model)
            regimes = [(a, s) for a in (0, 1) for s in (0, 1)]
            out["scm"].append((
                [scm.mediational_g_formula(obs, a, s, k) for a, s in regimes],
                [scm.interventional_survival(model, a, s, k) for a, s in regimes],
                scm.verify_assumptions_exact(model)))

        out["granger"] = []
        for i, (_, queries, _) in enumerate(d["granger"]):
            g = parse(f"granger{i}.lig")
            with open(self.path(f"granger{i}.json")) as fh:
                table = scm.joint(scm.scm_from_dict(json.load(fh)))
            out["granger"].append([
                (separation.granger_noncausal_graphical(g, *q).status,
                 scm.granger_noncausal_exact(table, *q, self.granger_lags))
                for q in queries])
        return self.items

    def check(self):
        d, out, bad = self.d, self.out, []
        big, dag, rolled = out["big"]
        if (big.nodes, big.baseline, big.directed, big.tailed) != (
                frozenset(d["big"].nodes), frozenset(d["big"].baseline),
                frozenset(d["big"].directed), frozenset(d["big"].tailed)):
            bad.append("parse_lig does not reproduce the written graph")
        if set(dag.edges) != d["big_edges"]:
            bad.append("unroll edges differ from the unrolling definition")
        if rolled != big:
            bad.append("roll(unroll(g, L)) != g")
        if out["big_sep"] != self.expect_big:
            bad.append("d_separated disagrees with networkx")
        if out["sparse"] != self.expect_sparse:
            bad.append("delta_separated disagrees with moralization")

        def sep_ok(graph, flavor, a, b, c, text):
            res = json.loads(text)
            if flavor == "granger":
                sets = oracles.granger_sets(graph, a, b, c)
                holds = sets is not None and oracles.delta_separated(graph, a, *sets)
                if res["separated"] != holds or res["status"] != (
                        "holds" if holds else "inconclusive"):
                    return "granger verdict"
                if sets is None or holds:
                    return None
                b, c = sets
            elif res["separated"] != oracles.delta_separated(graph, a, b, c):
                return "delta verdict"
            if res["separated"] != ("witness_path" not in res):
                return "witness presence"
            if "witness_path" in res and not oracles.delta_path_ok(
                    graph, a, b, c, res["witness_path"]):
                return f"invalid witness {res['witness_path']}"
            return None

        for (i, flavor, q), text in zip(d["sep"], out["sep"]):
            why = sep_ok(d["sparse"][i], flavor, *q, text)
            if why:
                bad.append(f"sep sparse{i} {flavor}: {why}")
        for q, text in zip(d["dense_sep"], out["dense_sep"]):
            why = sep_ok(d["dense"], *q, text)
            if why:
                bad.append(f"sep dense {q[0]}: {why}")
        for q, expect, text in zip(d["small_sep"], self.expect_small, out["small_sep"]):
            res = json.loads(text)
            a, b, c = [{lagged(n) for n in s} for s in q]
            edges = {(lagged(u), lagged(v)) for u, v in d["small_edges"]}
            anc = oracles.closure(c, oracles.parent_map(edges))
            if res["separated"] != expect or (not expect and not
                                              oracles.connecting_path_ok(
                                                  edges, a, b, c,
                                                  res["witness_path"], anc)):
                bad.append("sep --flavor d verdict or witness")

        for g, text in zip(d["mediation"], out["check"]):
            report = json.loads(text)["report"]
            use_delta, queries = oracles.mediation_expectation(g)
            if report["contemporaneous_structure_ok"] != use_delta:
                bad.append("check: contemporaneous structure flag")
            for key, (a, b, c) in queries.items():
                got = report[key]
                if use_delta:
                    holds = oracles.delta_separated(g, a, b, c)
                    sets = (b, c)
                else:
                    sets = oracles.granger_sets(g, a, b, c)
                    holds = sets is not None and oracles.delta_separated(g, a, *sets)
                want = ("verified" if holds else "not_implied",
                        "delta" if use_delta else "granger_contemporaneous")
                if (got["status"], got["criterion"]) != want:
                    bad.append(f"check {key}: {got} expected {want}")
                elif not holds and sets is not None and not oracles.delta_path_ok(
                        g, a, *sets, got.get("witness_path", "")):
                    bad.append(f"check {key}: invalid witness {got.get('witness_path')}")

        for gform, interv, report in out["scm"]:
            if max(abs(x - y) for x, y in zip(gform, interv)) > 1e-12:
                bad.append("g-formula differs from interventional survival")
            if not report.all_hold():
                bad.append(f"assumptions fail on a model built to satisfy them: {report}")
        for results in out["granger"]:
            for status, exact in results:
                if status != "holds" or exact is not True:
                    bad.append(f"Granger soundness: graphical {status}, exact {exact}")
        return bad


WORKLOADS = {
    "estimate_boot": EstimateBoot,
    "estimate_large": EstimateLarge,
    "hawkes_identify": HawkesIdentify,
    "graph_exact": GraphExact,
}
