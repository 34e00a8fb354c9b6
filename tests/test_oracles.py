"""Separation and graph-order checks against oracles that share no code with
medgraph's walks: networkx's d-separation and topological sorts, and the
moralization criterion written out here."""

import numpy as np
import pytest

from medgraph import graphs
from medgraph.graphs import find_tailed_cycle, topological_order
from medgraph.randomgen import (random_dag, random_dag_query, random_query,
                                random_rolled_graph)
from medgraph.separation import d_separated, delta_separated
from medgraph.transform import unroll

nx = pytest.importorskip("networkx")


def _nx_graph(nodes, edges):
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


def _moral_separated(edges, a, b, c):
    """``a`` and ``b`` separated by ``c`` in the moral graph of the
    ancestral set of a+b+c (Lauritzen, Dawid, Larsen & Leimer 1990)."""
    parents = {}
    for u, v in edges:
        parents.setdefault(v, set()).add(u)
    keep = set(a) | set(b) | set(c)
    stack = list(keep)
    while stack:
        for p in parents.get(stack.pop(), ()):
            if p not in keep:
                keep.add(p)
                stack.append(p)
    links = {n: set() for n in keep}
    for v in keep:
        ps = parents.get(v, set())
        for p in ps:
            links[p] |= {v} | (ps - {p})
            links[v].add(p)
    seen = set(a)
    stack = list(a)
    while stack:
        n = stack.pop()
        if n in b:
            return False
        for m in links[n] - seen - set(c):
            seen.add(m)
            stack.append(m)
    return True


def _delta_oracle(graph, a, b, c):
    """Didelez 2008: drop the edges out of ``b`` (tails ignored), then the
    moralization criterion."""
    aux = {(u, v) for u, v in graph.all_edges if u not in b}
    return _moral_separated(aux, a, b, c)


@pytest.mark.parametrize("seed", range(30))
def test_d_separated_matches_networkx_on_random_dags(seed):
    rng = np.random.default_rng([seed, 71])
    dag = random_dag(rng, int(rng.integers(3, 10)))
    g = _nx_graph(dag.node_set(), dag.edges)
    for _ in range(8):
        a, b, c = random_dag_query(rng, dag)
        assert d_separated(dag, a, b, c) == nx.is_d_separator(g, a, b, c)


@pytest.mark.parametrize("seed", range(20))
def test_d_separated_matches_networkx_on_unrolled_graphs(seed):
    rng = np.random.default_rng([seed, 72])
    rolled = random_rolled_graph(rng, n_nodes=int(rng.integers(3, 7)),
                                 tailed_acyclic=True)
    dag = unroll(rolled, int(rng.integers(1, 4)))
    g = _nx_graph(dag.node_set(), dag.edges)
    for _ in range(8):
        a, b, c = random_dag_query(rng, dag)
        assert d_separated(dag, a, b, c) == nx.is_d_separator(g, a, b, c)


@pytest.mark.parametrize("seed", range(40))
def test_delta_separated_matches_moralization(seed):
    # cyclic rolled graphs with tailed edges, including tailed cycles
    rng = np.random.default_rng([seed, 73])
    g = random_rolled_graph(rng, n_nodes=int(rng.integers(3, 9)),
                            edge_prob=float(rng.uniform(0.2, 0.6)),
                            tailed_prob=0.5)
    for _ in range(8):
        a, b, c = random_query(rng, g.nodes, max_each=3,
                               target_pool=g.process_nodes)
        assert delta_separated(g, a, b, c) == _delta_oracle(g, a, b, c)


def test_moralization_oracle_drops_the_edges_out_of_the_target():
    # S -> R is an edge out of the target S: only the graph without it
    # separates S from R
    g = graphs.TailedDirectedGraph.build("RSQ", directed={("S", "R"), ("Q", "S")})
    assert _delta_oracle(g, {"R"}, {"S"}, set())
    assert delta_separated(g, {"R"}, {"S"}, set())
    assert not _moral_separated(g.all_edges, {"R"}, {"S"}, set())


def _counting_adjacency(monkeypatch):
    calls = []
    build = graphs._adjacency

    def counted(edges):
        calls.append(1)
        return build(edges)

    monkeypatch.setattr(graphs, "_adjacency", counted)
    return calls


def test_d_separated_builds_the_adjacency_once_per_dag(monkeypatch):
    rng = np.random.default_rng(74)
    rolled = random_rolled_graph(rng, n_nodes=8, tailed_acyclic=True)
    dag = unroll(rolled, 4)
    queries = [random_dag_query(rng, dag) for _ in range(40)]
    calls = _counting_adjacency(monkeypatch)
    for q in queries:
        d_separated(dag, *q)
    assert len(calls) == 1


def test_delta_separated_builds_the_adjacency_once_per_graph(monkeypatch):
    rng = np.random.default_rng(75)
    g = random_rolled_graph(rng, n_nodes=8)
    queries = [random_query(rng, g.nodes, target_pool=g.process_nodes)
               for _ in range(40)]
    calls = _counting_adjacency(monkeypatch)
    for q in queries:
        delta_separated(g, *q)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(40))
def test_find_tailed_cycle_returns_a_closed_tailed_cycle(seed):
    rng = np.random.default_rng([seed, 76])
    g = random_rolled_graph(rng, n_nodes=int(rng.integers(3, 9)),
                            edge_prob=0.5, tailed_prob=0.6)
    cycle = find_tailed_cycle(g)
    acyclic = nx.is_directed_acyclic_graph(_nx_graph(g.nodes, g.tailed))
    assert g.tailed_subgraph_is_acyclic() == acyclic
    if acyclic:
        assert cycle is None
        return
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    assert len(set(cycle)) == len(cycle) - 1
    assert all(edge in g.tailed for edge in zip(cycle, cycle[1:]))


@pytest.mark.parametrize("seed", range(20))
def test_topological_order_is_the_least_by_key(seed):
    rng = np.random.default_rng([seed, 77])
    dag = random_dag(rng, int(rng.integers(3, 12)), edge_prob=0.4)
    g = _nx_graph(dag.node_set(), dag.edges)

    def by_time(nd):
        return nd[1], nd[0]

    assert topological_order(dag.node_set(), dag.edges, key=by_time) == \
        list(nx.lexicographical_topological_sort(g, key=by_time))
    assert topological_order(dag.node_set(), dag.edges) == \
        list(nx.lexicographical_topological_sort(g))


def test_topological_order_leaves_out_cycles():
    edges = {("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("e", "d")}
    assert topological_order("abcde", edges) == ["a", "e"]
