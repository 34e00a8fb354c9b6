"""Rolling and unrolling between process-level graphs and lagged DAGs."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError, SizeError
from .graphs import (TailedDirectedGraph, UnrolledDag, check_lag_count,
                     find_tailed_cycle)

UNROLL_EDGE_BUDGET = 1 << 18


def unroll(graph: TailedDirectedGraph, lags: int) -> UnrolledDag:
    """Unrolled version of ``graph`` on ``lags`` lags.

    Every edge i *-> j induces lagged copies nu_s^i -> nu_t^j for s < t;
    tailed edges additionally induce same-lag copies.  Same-process lag
    edges nu_s^i -> nu_t^i (s < t) are always emitted for process nodes:
    a process depends on its own past even though rolled graphs carry no
    self-loops.  Baseline variables exist at lag 0 only.
    """
    check_lag_count(lags, "lags")
    size = _unrolled_edge_count(graph, lags)
    if size > UNROLL_EDGE_BUDGET:
        raise SizeError(f"unrolling on {lags} lags would make {size} edges "
                        f"(budget {UNROLL_EDGE_BUDGET})")
    cycle = find_tailed_cycle(graph)
    if cycle:
        raise GraphError(
            "tailed edges form a cycle; unrolling would create a same-lag "
            f"directed cycle: {' o-> '.join(cycle)}")

    baseline = graph.baseline
    process = graph.process_nodes

    def lags_of(name):
        return range(lags + 1) if name in process else (0,)

    edges = set()
    for i in process:
        for s in range(lags + 1):
            for t in range(s + 1, lags + 1):
                edges.add(((i, s), (i, t)))
    for (i, j) in graph.all_edges:
        for s in lags_of(i):
            for t in lags_of(j):
                if s < t:
                    edges.add(((i, s), (j, t)))
    for (i, j) in graph.tailed:
        for t in lags_of(i):
            if t in lags_of(j):
                edges.add(((i, t), (j, t)))
    # every edge joins valid lagged nodes and none goes back in time;
    # find_tailed_cycle has ruled out the only cycle build could find
    return UnrolledDag(lags, process, baseline, frozenset(edges))


def _unrolled_edge_count(graph: TailedDirectedGraph, lags: int) -> int:
    """The number of edges ``unroll(graph, lags)`` makes, counted without
    making them: each process's own lag edges, each edge's copies at lag
    pairs s < t, and each tailed edge's same-lag copies."""
    process = graph.process_nodes
    pairs = lags * (lags + 1) // 2
    count = len(process) * pairs
    for (i, j) in graph.all_edges:
        if j in process:
            count += pairs if i in process else lags
    for (i, j) in graph.tailed:
        count += lags + 1 if i in process and j in process else 1
    return count


def roll(dag: UnrolledDag) -> TailedDirectedGraph:
    """Rolled version of ``dag``: i *-> j iff some lagged edge from i to j
    exists; the edge is tailed iff a same-lag edge exists.  Self-loops are
    dropped (the same-process lag edges are implicit in rolled graphs)."""
    tailed = set()
    lagged = set()
    for ((i, s), (j, t)) in dag.edges:
        if i == j:
            continue
        if s == t:
            tailed.add((i, j))
        else:
            lagged.add((i, j))
    return TailedDirectedGraph.build(
        dag.process_names | dag.baseline_names,
        dag.baseline_names,
        lagged - tailed,
        tailed,
    )


def is_proper(rolled: TailedDirectedGraph, unrolled: UnrolledDag) -> bool:
    """True iff the two graphs are related by rolling or unrolling.

    Properness is a disjunction: either rolling the DAG yields ``rolled``, or
    unrolling ``rolled`` on the DAG's lag count yields ``unrolled``.
    """
    names = unrolled.process_names | unrolled.baseline_names
    if names != rolled.nodes or unrolled.baseline_names != rolled.baseline:
        raise GraphError(
            f"node sets differ: rolled has {sorted(rolled.nodes)} "
            f"(baseline {sorted(rolled.baseline)}), unrolled has {sorted(names)} "
            f"(baseline {sorted(unrolled.baseline_names)})")
    if roll(unrolled) == rolled:
        return True
    try:
        return unroll(rolled, unrolled.lag_count) == unrolled
    except GraphError:
        return False


@dataclass(frozen=True)
class ProperPair:
    """A rolled graph and an unrolled DAG verified to be related."""

    rolled: TailedDirectedGraph
    unrolled: UnrolledDag

    def __post_init__(self):
        if not is_proper(self.rolled, self.unrolled):
            raise GraphError("graphs do not form a proper pair")

    @property
    def lag_count(self) -> int:
        return self.unrolled.lag_count
