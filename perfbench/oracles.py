"""Computations made apart from medgraph, against which its outputs are
checked: risk-set sums and the estimators built on them, Hawkes moments,
and graph separation by moralization.  Nothing here imports medgraph."""

from __future__ import annotations

import itertools

import numpy as np


# -- survival --------------------------------------------------------------------


class RiskSets:
    """Risk-set sums for data on a common visit grid.

    A row covers time u when start < u <= stop.  Every row starts at a visit
    time, and for u in (v_k, v_k+1] the rows at risk are those that start at
    v_k and stop at or after u, so each sum is a suffix sum of positive
    terms over the rows of one visit interval, ordered by stop time.
    """

    def __init__(self, cols, visits, rows):
        self.visits = np.asarray(visits, dtype=float)
        self.segments = []
        start, stop = cols["start"][rows], cols["stop"][rows]
        for v in self.visits:
            in_seg = np.nonzero(start == v)[0]
            order = in_seg[np.argsort(stop[in_seg], kind="stable")]
            self.segments.append((stop[order], rows[order]))

    def sums(self, times, weights):
        """sum of weights[row] over rows at risk at each of ``times``."""
        times = np.asarray(times, dtype=float)
        seg = np.searchsorted(self.visits, times, side="left") - 1
        out = np.zeros(len(times))
        for k, (stops, rows) in enumerate(self.segments):
            pick = np.nonzero(seg == k)[0]
            if pick.size == 0 or rows.size == 0:
                continue
            suffix = np.append(np.cumsum(weights[rows][::-1])[::-1], 0.0)
            out[pick] = suffix[np.searchsorted(stops, times[pick], side="left")]
        return out


def event_times(cols, rows):
    rows = rows[cols["event"][rows] == 1]
    times, counts = np.unique(cols["stop"][rows], return_counts=True)
    return times, counts.astype(float)


def cox_score(cols, visits, z, gamma):
    """Score and information of the Breslow partial likelihood of the a=0
    group at scalar ``gamma``, from direct risk-set sums."""
    rows = np.nonzero(cols["treatment"] == 0)[0]
    rs = RiskSets(cols, visits, rows)
    ev, d = event_times(cols, rows)
    w = np.exp(gamma * z)
    s0, s1, s2 = (rs.sums(ev, w * z ** p) for p in (0, 1, 2))
    events = rows[cols["event"][rows] == 1]
    score = float(z[events].sum() - np.sum(d * s1 / s0))
    info = float(np.sum(d * (s2 / s0 - (s1 / s0) ** 2)))
    return score, info


class RhoFormula:
    """R(t): sum over event times u <= t of d1/Y1 - d0 * E1 / (Y1 * E0),
    with E_g the exp(gamma z)-weighted risk sum of group g."""

    def __init__(self, cols, visits, z):
        self.z = z
        self.g1 = np.nonzero(cols["treatment"] == 1)[0]
        self.g0 = np.nonzero(cols["treatment"] == 0)[0]
        self.rs1 = RiskSets(cols, visits, self.g1)
        self.rs0 = RiskSets(cols, visits, self.g0)
        t1, c1 = event_times(cols, self.g1)
        t0, c0 = event_times(cols, self.g0)
        self.grid = np.union1d(t1, t0)
        self.d1 = np.zeros(len(self.grid))
        self.d0 = np.zeros(len(self.grid))
        self.d1[np.searchsorted(self.grid, t1)] = c1
        self.d0[np.searchsorted(self.grid, t0)] = c0
        ones = np.ones(len(cols["start"]))
        self.y1 = self.rs1.sums(self.grid, ones)
        self.y0 = self.rs0.sums(self.grid, ones)

    def increments(self, gamma):
        w = np.exp(gamma * self.z)
        e1 = self.rs1.sums(self.grid, w)
        e0 = self.rs0.sums(self.grid, w)
        ratio = e1 / (self.y1 * e0)
        return self.d1 / self.y1 - self.d0 * ratio, ratio

    def values(self, gamma):
        return np.cumsum(self.increments(gamma)[0])

    def sd(self, gamma, info):
        """Pointwise standard error of R(t): counting-process variance plus
        the delta-method term for the estimated gamma."""
        _, ratio = self.increments(gamma)
        var = np.cumsum(self.d1 / self.y1 ** 2 + self.d0 * ratio ** 2)
        h = 1e-6
        slope = (self.values(gamma + h) - self.values(gamma - h)) / (2 * h)
        return np.sqrt(var + slope ** 2 / info)

    def kaplan_meier(self, group):
        d, y = (self.d1, self.y1) if group == 1 else (self.d0, self.y0)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(d > 0, 1.0 - d / y, 1.0)
        return np.cumprod(factor)


# -- Hawkes --------------------------------------------------------------------------


def hawkes_moments(model):
    """Cluster matrix R = (I - G)^-1, stationary rates lambda = R mu and the
    integrated covariance C = R diag(lambda) R^T."""
    g = np.asarray(model["branching"], dtype=float)
    mu = np.asarray(model["mu"], dtype=float)
    r = np.linalg.inv(np.eye(len(mu)) - g)
    lam = r @ mu
    return r, lam, r @ np.diag(lam) @ r.T


def cluster_covariances(g, r, tol=1e-14):
    """Covariance of the per-process event counts of a cluster rooted at
    each type j, for Poisson offspring: S_j = sum_i G_ij (S_i + r_i r_i^T),
    with r_i the column i of R, solved by fixed-point iteration."""
    outer = np.einsum("ki,li->ikl", r, r)
    base = np.einsum("ij,ikl->jkl", g, outer)
    s = base.copy()
    for _ in range(10_000):
        nxt = base + np.einsum("ij,ikl->jkl", g, s)
        done = np.max(np.abs(nxt - s)) <= tol * max(1.0, np.max(np.abs(nxt)))
        s = nxt
        if done:
            break
    return s


# -- graphs ----------------------------------------------------------------------------


def closure(targets, parents):
    """``targets`` together with every node that has a directed path into
    them under the ``parents`` map."""
    seen = set(targets)
    stack = list(targets)
    while stack:
        for p in parents.get(stack.pop(), ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def parent_map(edges):
    out = {}
    for a, b in edges:
        if a != b:
            out.setdefault(b, set()).add(a)
    return out


def moral_separated(edges, a, b, c):
    """Moralization criterion: ``b`` separated from ``a`` by ``c`` in the
    moral graph of the ancestral set of a | b | c in the directed graph
    ``edges``."""
    parents = parent_map(edges)
    anc = closure(set(a) | set(b) | set(c), parents)
    nbr = {v: set() for v in anc}
    for v in anc:
        ps = sorted(parents.get(v, ()))
        for p in ps:
            nbr[v].add(p)
            nbr[p].add(v)
        for p, q in itertools.combinations(ps, 2):
            nbr[p].add(q)
            nbr[q].add(p)
    seen = set(a)
    stack = list(a)
    while stack:
        for w in nbr[stack.pop()]:
            if w in b:
                return False
            if w not in seen and w not in c:
                seen.add(w)
                stack.append(w)
    return True


def delta_separated(graph, a, b, c):
    """delta-separation of ``b`` from ``a`` given ``c`` in a rolled graph
    (Didelez 2008): tails are ignored, the edges out of ``b`` are removed,
    then the moralization criterion applies."""
    aux = {(u, v) for u, v in graph.edges if u not in b}
    return moral_separated(aux, a, b, c)


def tailed_ancestors(graph, b):
    return closure(b, parent_map(graph.tailed)) - set(b)


def granger_sets(graph, a, b, c):
    """The graphical Granger criterion's reduction: None when the from-set
    meets the process-level tailed ancestors of the target, otherwise the
    (target, given) pair that must be delta-separated from ``a``."""
    anv = tailed_ancestors(graph, b) - graph.baseline
    if set(a) & anv:
        return None
    return set(b) | (anv & set(c)), set(c) - anv


def granger_holds(graph, a, b, c):
    sets = granger_sets(graph, a, b, c)
    return sets is not None and delta_separated(graph, a, *sets)


def parse_path(text):
    """'x -> y <- z' into (nodes, ops)."""
    tokens = text.split(" ")
    return tokens[0::2], tokens[1::2]


def connecting_path_ok(edges, a, b, c, text, anc_plus):
    """True when ``text`` is a simple path from ``a`` to ``b`` along
    ``edges`` on which every collider lies in ``anc_plus`` and no other
    inner node lies in ``c``."""
    nodes, ops = parse_path(text)
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        return False
    if nodes[0] not in a or nodes[-1] not in b:
        return False
    for (u, v), op in zip(zip(nodes, nodes[1:]), ops):
        if (op == "->" and (u, v) not in edges) or \
                (op == "<-" and (v, u) not in edges) or op not in ("->", "<-"):
            return False
    for k in range(1, len(nodes) - 1):
        collider = ops[k - 1] == "->" and ops[k] == "<-"
        if collider and nodes[k] not in anc_plus:
            return False
        if not collider and nodes[k] in c:
            return False
    return True


def delta_path_ok(graph, a, b, c, text):
    """A delta-connecting path lives in the graph with tails ignored and the
    edges out of ``b`` removed; colliders must be ancestors of ``c`` (or in
    ``c``) in the graph with tails ignored."""
    aux = {(u, v) for u, v in graph.edges if u not in b}
    anc_plus = closure(c, parent_map(graph.edges))
    return connecting_path_ok(aux, a, b, c, text, anc_plus)


def mediation_expectation(graph):
    """For a role-tagged rolled graph: whether plain delta-separation
    applies, and for each assumption its (from, target, given) query."""
    roles = graph.roles
    ad, am, n = roles["treatment_direct"][0], roles["treatment_mediated"][0], \
        roles["outcome"][0]
    med, cov = set(roles["mediator"]), set(roles["covariate"])
    use_delta = all(u == n and v in med | cov for u, v in graph.tailed)
    queries = {
        "A1": ({ad}, med, {am} | cov | {n}),
        "A2_discrete": ({am}, {n}, {ad} | cov | med),
        "A3": ({am}, cov - graph.baseline, {ad} | med | {n}),
    }
    return use_delta, {k: (a, b, c - graph.latent)
                       for k, (a, b, c) in queries.items()}
