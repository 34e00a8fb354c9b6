"""Seeded random generators for graphs and separation queries.

Shared by the self-test command and the randomized test suites; everything
is driven by an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import QueryError
from .graphs import TailedDirectedGraph, UnrolledDag


def random_dag(rng, n_nodes, edge_prob=0.3) -> UnrolledDag:
    """Random variable-level DAG, encoded as a single-lag unrolled graph
    plus extra process copies so arbitrary DAG shapes are representable.

    Nodes are processes v0..v{n-1} at lags chosen to respect a random
    topological order.
    """
    order = rng.permutation(n_nodes)
    names = [f"v{i}" for i in range(n_nodes)]
    # place node k of the order at lag k is wasteful; instead use lag 0/1
    # split plus same-lag edges obeying the order
    lag = rng.integers(0, 2, size=n_nodes)
    edges = set()
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a == b:
                continue
            src, dst = int(order[a]), int(order[b])
            if a < b and rng.uniform() < edge_prob:
                s, t = int(lag[src]), int(lag[dst])
                if s <= t:
                    edges.add(((names[src], s), (names[dst], t)))
    return UnrolledDag.build(1, names, (), edges)


def random_rolled_graph(rng, n_nodes=6, n_baseline=None, edge_prob=0.3,
                        tailed_prob=0.3, tailed_acyclic=False) -> TailedDirectedGraph:
    """Random rolled graph with baseline and process nodes.

    Directed edges go anywhere legal (never into baseline); tailed edges go
    from baseline to anything or between processes.  With
    ``tailed_acyclic`` the tailed edges respect a random node order, so the
    graph can be unrolled.
    """
    if n_baseline is None:
        n_baseline = int(rng.integers(0, max(1, n_nodes // 2) + 1))
    baseline = [f"b{i}" for i in range(n_baseline)]
    process = [f"x{i}" for i in range(n_nodes - n_baseline)]
    if not process:
        process = ["x0"]
    nodes = baseline + process
    order = {name: int(k) for k, name in enumerate(rng.permutation(nodes))}
    directed, tailed = set(), set()
    for src in nodes:
        for dst in process:
            if src == dst or rng.uniform() >= edge_prob:
                continue
            if rng.uniform() < tailed_prob:
                if tailed_acyclic and order[src] >= order[dst]:
                    directed.add((src, dst))
                else:
                    tailed.add((src, dst))
            else:
                directed.add((src, dst))
        for dst in baseline:
            # only baseline-to-baseline ties are representable, as tailed
            if src != dst and src in baseline and rng.uniform() < edge_prob * tailed_prob:
                if not tailed_acyclic or order[src] < order[dst]:
                    tailed.add((src, dst))
    return TailedDirectedGraph.build(nodes, baseline, directed, tailed)


def random_query(rng, pool, max_each=2, target_pool=None):
    """Disjoint (from, target, given) sets drawn from ``pool``; targets come
    from ``target_pool`` when separation restricts them (process-only)."""
    # sorted, not set order: the draw must not depend on the hash seed
    pool = sorted(pool)
    target_pool = sorted(target_pool if target_pool is not None else pool)
    rng.shuffle(pool)
    targets = [n for n in target_pool if n in pool] or target_pool
    b = {targets[int(rng.integers(0, len(targets)))]}
    rest = [n for n in pool if n not in b]
    if not rest:
        raise QueryError("pool too small for a query")
    n_a = int(rng.integers(1, min(max_each, len(rest)) + 1))
    a = set(rest[:n_a])
    rest = rest[n_a:]
    n_c = int(rng.integers(0, min(max_each, len(rest)) + 1))
    c = set(rest[:n_c])
    return a, b, c


def random_dag_query(rng, dag: UnrolledDag):
    nodes = sorted(dag.nodes)
    rng.shuffle(nodes)
    n_a = int(rng.integers(1, 4))
    n_b = int(rng.integers(1, 4))
    n_c = int(rng.integers(0, 4))
    a = set(nodes[:n_a])
    b = set(nodes[n_a:n_a + n_b])
    c = set(nodes[n_a + n_b:n_a + n_b + n_c])
    if not a or not b:
        raise QueryError("graph too small for a query")
    return a, b, c
