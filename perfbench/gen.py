"""Input generators owned by the benchmark.

Every input a workload feeds to medgraph is drawn here from the workload
seed: survival CSVs, the Hawkes model JSON, rolled and mediation graph
files, and discrete-model JSON.  None of medgraph's own generators are
used, so a change to their random streams cannot change a workload.  Every
draw iterates in sorted order, so PYTHONHASHSEED cannot change an input.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


# -- survival data -------------------------------------------------------------


CENSOR = (2.0, 6.0)


def survival_data(rng, n_subjects, visits, horizon, rho, gamma, psi,
                  shift, sd, decay=None):
    """Counting-process data from lambda(t) = rho*a + psi*exp(gamma*z_t).

    The mediator is measured at every visit time (a common grid starting at
    0); z_t is the value at the last visit, or with ``decay`` the
    exponentially weighted mean of all visits so far (weight decay**age).
    Event times are drawn by inversion of the piecewise-constant hazard;
    censoring is uniform on CENSOR and administrative at ``horizon``.
    Returns one row per (subject, visit interval) in subject order.
    """
    visits = np.asarray(visits, dtype=float)
    knots = np.append(visits, horizon)
    n_seg = len(visits)
    treat = np.zeros(n_subjects, dtype=int)
    treat[rng.permutation(n_subjects)[:n_subjects // 2]] = 1
    m = 0.0 + shift * treat[:, None] + sd * rng.standard_normal((n_subjects, n_seg))
    if decay is None:
        z = m.copy()
    else:
        z = np.empty_like(m)
        num = np.zeros(n_subjects)
        den = 0.0
        for k in range(n_seg):
            num = decay * num + m[:, k]
            den = decay * den + 1.0
            z[:, k] = num / den
    target = rng.exponential(size=n_subjects)
    cens = np.minimum(rng.uniform(*CENSOR, size=n_subjects), horizon)

    rows = {key: [] for key in ("subject", "start", "stop", "event", "m", "z")}
    acc = np.zeros(n_subjects)
    alive = np.ones(n_subjects, dtype=bool)
    for k in range(n_seg):
        lo, hi = knots[k], knots[k + 1]
        lam = rho * treat + psi * np.exp(gamma * z[:, k])
        death = lo + (target - acc) / lam
        in_seg = alive & (cens > lo)
        end = np.minimum(np.minimum(hi, cens), death)
        event = in_seg & (death <= np.minimum(hi, cens))
        idx = np.nonzero(in_seg)[0]
        rows["subject"].append(idx)
        rows["start"].append(np.full(idx.size, lo))
        rows["stop"].append(end[idx])
        rows["event"].append(event[idx].astype(int))
        rows["m"].append(m[idx, k])
        rows["z"].append(z[idx, k])
        acc += lam * (hi - lo)
        alive &= ~event & (cens > hi)
    cols = {key: np.concatenate(v) for key, v in rows.items()}
    order = np.lexsort((cols["start"], cols["subject"]))
    cols = {key: v[order] for key, v in cols.items()}
    cols["treatment"] = treat[cols["subject"]]
    return cols


def survival_counts(cols):
    """The data_summary block the program should report for ``cols``."""
    subj_event = np.zeros(cols["subject"].max() + 1, dtype=int)
    subj_event[cols["subject"][cols["event"] == 1]] = 1
    treat = np.zeros_like(subj_event)
    treat[cols["subject"]] = cols["treatment"]
    present = np.zeros_like(subj_event, dtype=bool)
    present[cols["subject"]] = True
    by_group = {a: int(np.sum(present & (treat == a))) for a in (0, 1)}
    events = {a: int(np.sum(subj_event[treat == a])) for a in (0, 1)}
    return {"subjects": int(present.sum()), "events": int(subj_event.sum()),
            "subjects_by_treatment": {str(a): by_group[a] for a in (0, 1)},
            "events_by_treatment": {str(a): events[a] for a in (0, 1)},
            "rows": int(len(cols["subject"]))}


def write_survival_csv(path, cols):
    lines = ["id,start,stop,event,treatment,m"]
    lines += [f"s{s},{a!r},{b!r},{e},{t},{x!r}" for s, a, b, e, t, x in zip(
        cols["subject"].tolist(), cols["start"].tolist(), cols["stop"].tolist(),
        cols["event"].tolist(), cols["treatment"].tolist(), cols["m"].tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- Hawkes model ----------------------------------------------------------------

FIG7 = ("A", "M", "D", "L", "U")


def fig7_model_dict(g_ma=0.4, g_da=0.3, g_dm=0.4, g_ml=0.3, g_dl=0.3,
                    g_lu=0.35, g_du=0.3, mu=(0.6, 0.5, 0.5, 0.4, 0.5),
                    beta=2.0):
    """Mediation topology A -> M -> D, A -> D, proxy L -> M, D, latent
    U -> L, D; G[i][j] is the mean number of direct i-children of a j-event.
    The defaults are the parameters of the stochastic acceptance pipeline."""
    a, m, d, l, u = range(5)
    g = [[0.0] * 5 for _ in range(5)]
    g[m][a], g[d][a], g[d][m] = g_ma, g_da, g_dm
    g[m][l], g[d][l], g[l][u], g[d][u] = g_ml, g_dl, g_lu, g_du
    return {"mu": list(mu), "branching": g,
            "decay": [[beta] * 5 for _ in range(5)],
            "names": list(FIG7), "observed": [0, 1, 2, 3], "topology": "fig7"}


# -- graphs ------------------------------------------------------------------------


class Rolled:
    """Plain description of a rolled graph: node names, baseline subset,
    plain and tailed edge sets, plus optional roles and latent nodes."""

    def __init__(self, nodes, baseline=(), directed=(), tailed=(),
                 roles=None, latent=()):
        self.nodes = sorted(nodes)
        self.baseline = set(baseline)
        self.directed = set(directed)
        self.tailed = set(tailed)
        self.roles = roles or {}
        self.latent = set(latent)

    @property
    def process(self):
        return [n for n in self.nodes if n not in self.baseline]

    @property
    def edges(self):
        return self.directed | self.tailed

    def lig(self):
        lines = [f"node {n} baseline" if n in self.baseline else f"node {n}"
                 for n in self.nodes]
        lines += [f"{a} -> {b}" for a, b in sorted(self.directed)]
        lines += [f"{a} o-> {b}" for a, b in sorted(self.tailed)]
        lines += [f"unobserved {n}" for n in sorted(self.latent)]
        lines += [f"role {r} {n}" for r in sorted(self.roles)
                  for n in sorted(self.roles[r])]
        return "\n".join(lines) + "\n"


def rolled_graph(rng, n_process, n_baseline, edge_prob, tailed_prob,
                 prefix="x"):
    """Random rolled graph whose tailed edges follow a random node order,
    so it can be unrolled.  Baseline nodes feed processes only."""
    width = len(str(n_process - 1))
    process = [f"{prefix}{i:0{width}d}" for i in range(n_process)]
    baseline = [f"b{i}" for i in range(n_baseline)]
    nodes = sorted(process + baseline)
    rank = {n: int(r) for n, r in zip(nodes, rng.permutation(len(nodes)))}
    directed, tailed = set(), set()
    for src in nodes:
        for dst in process:
            if src == dst or rng.uniform() >= edge_prob:
                continue
            if rng.uniform() < tailed_prob and rank[src] < rank[dst]:
                tailed.add((src, dst))
            else:
                directed.add((src, dst))
    return Rolled(nodes, baseline, directed, tailed)


def dense_graph(rng, k):
    """Every ordered pair of k processes joined by a plain edge, plus one
    target process T fed by a single drawn process.  The processes carry
    drawn names; the structure, and so the work of an exhaustive path
    search, does not depend on the draw."""
    names = sorted(f"p{int(v)}" for v in rng.choice(1000, size=k, replace=False))
    entry = names[int(rng.integers(k))]
    directed = {(a, b) for a in names for b in names if a != b}
    directed.add(("T", entry))
    return Rolled(names + ["T"], (), directed), entry


def mediation_graph(rng, n_mediators, n_covariates, n_latent, edge_prob,
                    contemporaneous_other):
    """Rolled graph tagged with mediation roles.  Treatment components AD
    and AM are baseline; mediators M*, covariates C*, outcome N and latent
    U* are processes.  Contemporaneous edges run from N to mediators and
    covariates, plus (when ``contemporaneous_other``) one more drawn tailed
    edge, which sends the check to the general criterion."""
    med = [f"M{i}" for i in range(n_mediators)]
    cov = [f"C{i}" for i in range(n_covariates)]
    lat = [f"U{i}" for i in range(n_latent)]
    process = sorted(med + cov + lat + ["N"])
    nodes = sorted(process + ["AD", "AM"])
    directed, tailed = set(), set()
    for src in nodes:
        for dst in process:
            if src != dst and rng.uniform() < edge_prob:
                directed.add((src, dst))
    for dst in sorted(med + cov):
        if rng.uniform() < 0.5:
            directed.discard(("N", dst))
            tailed.add(("N", dst))
    if contemporaneous_other:
        pairs = [(a, b) for a in sorted(med + cov + lat) for b in
                 sorted(med + cov) if a != b and (a, b) not in tailed
                 and (b, a) not in tailed]
        a, b = pairs[int(rng.integers(len(pairs)))]
        directed.discard((a, b))
        tailed.add((a, b))
    roles = {"treatment_direct": ["AD"], "treatment_mediated": ["AM"],
             "mediator": med, "covariate": cov, "outcome": ["N"]}
    return Rolled(nodes, ("AD", "AM"), directed, tailed, roles, lat)


def draw_query(rng, pool, target_pool):
    """Disjoint (from, target, given) node sets of up to two nodes each;
    targets from ``target_pool``."""
    pool = sorted(pool)
    targets = sorted(target_pool)
    b = {targets[int(rng.integers(len(targets)))]}
    rest = [pool[int(i)] for i in rng.permutation(len(pool)) if pool[int(i)] not in b]
    n_a = int(rng.integers(1, 3))
    n_c = int(rng.integers(0, 3))
    return set(rest[:n_a]), b, set(rest[n_a:n_a + n_c])


# -- discrete models ----------------------------------------------------------------

NA = "NA"
MIN_CELL = 1e-3


def _dist(rng, n):
    p = rng.uniform(size=n) + 0.05
    p /= p.sum()
    return p * (1.0 - n * MIN_CELL) + MIN_CELL


def _cpt(rng, parent_states, states, gate=None):
    """Random CPT; a 0 in the gate parent (alive indicator) forces the last
    state (NA for mediators and covariates, 0 for survival)."""
    shape = [len(s) for s in parent_states] + [len(states)]
    cpt = np.zeros(shape)
    live = [k for k, s in enumerate(states) if s != NA]
    for idx in itertools.product(*[range(n) for n in shape[:-1]]):
        if gate is not None and parent_states[gate][idx[gate]] == 0:
            cpt[idx + (states.index(NA) if NA in states else 0,)] = 1.0
        else:
            cpt[idx + (live,)] = _dist(rng, len(live))
    return cpt


def separated_scm_dict(rng, k):
    """Separated model on k grid points satisfying A1-A3 by construction:
    mediators M_i depend on the mediated component AM and the history,
    covariates C_i and survival S_{i+1} on the direct component AD.  Once
    S_i = 0, later mediators and covariates are NA and survival stays 0."""
    variables, parents, cpts, states = [], {}, {}, {}

    def add(name, st, pars, gate=None):
        variables.append({"name": name, "states": list(st)})
        states[name] = tuple(st)
        parents[name] = list(pars)
        cpts[name] = _cpt(rng, [states[p] for p in pars], tuple(st),
                          None if gate is None else pars.index(gate)).tolist()

    add("AD", (0, 1), [])
    add("AM", (0, 1), [])
    hist = []
    for i in range(k):
        alive = [f"S{i}"] if i >= 1 else []
        gate = f"S{i}" if i >= 1 else None
        open_states = (0, 1, NA) if i >= 1 else (0, 1)
        add(f"M{i}", open_states, ["AM"] + hist + alive, gate)
        add(f"C{i}", open_states, ["AD"] + hist + [f"M{i}"] + alive, gate)
        add(f"S{i + 1}", (0, 1), ["AD"] + hist + [f"M{i}", f"C{i}"] + alive, gate)
        hist += [f"M{i}", f"C{i}"]
    return {"grid": k, "variables": variables, "parents": parents,
            "cpt": cpts, "separated": {"direct": "AD", "mediated": "AM"}}


def unrolled_edges(g: Rolled, lags):
    """Edges of the unrolling of ``g`` over lags 0..lags (the definition:
    every edge i -> j gives (i, s) -> (j, t) for s < t, tailed edges also
    (i, t) -> (j, t), each process feeds its own later copies, and baseline
    nodes exist at lag 0 only)."""
    def lags_of(n):
        return [0] if n in g.baseline else list(range(lags + 1))

    edges = set()
    for i in g.process:
        edges |= {((i, s), (i, t)) for s in range(lags + 1)
                  for t in range(s + 1, lags + 1)}
    for i, j in g.edges:
        edges |= {((i, s), (j, t)) for s in lags_of(i) for t in lags_of(j) if s < t}
    for i, j in g.tailed:
        edges |= {((i, t), (j, t)) for t in lags_of(i) if t in lags_of(j)}
    return edges


def markov_scm_dict(rng, g: Rolled, lags):
    """Binary model Markov to the unrolling of ``g``: variables 'name@lag'
    in a topological order, random CPTs over the DAG parents."""
    edges = unrolled_edges(g, lags)
    parents = {}
    for src, dst in sorted(edges):
        parents.setdefault(dst, []).append(src)
    nodes = sorted({(n, 0) for n in g.baseline}
                   | {(n, t) for n in g.process for t in range(lags + 1)},
                   key=lambda nd: (nd[1], nd[0]))
    order, done = [], set()
    while len(order) < len(nodes):
        for nd in nodes:
            if nd not in done and all(p in done for p in parents.get(nd, ())):
                order.append(nd)
                done.add(nd)
    name = lambda nd: f"{nd[0]}@{nd[1]}"
    variables, par, cpts = [], {}, {}
    for nd in order:
        ps = parents.get(nd, [])
        variables.append({"name": name(nd), "states": [0, 1]})
        par[name(nd)] = [name(p) for p in ps]
        cpts[name(nd)] = _cpt(rng, [(0, 1)] * len(ps), (0, 1)).tolist()
    return {"grid": lags, "variables": variables, "parents": par, "cpt": cpts}


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
