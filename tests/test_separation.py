import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medgraph
from conftest import mediation_graph_latent
from medgraph.errors import QueryError, SizeError
from medgraph.graphs import TailedDirectedGraph, UnrolledDag
from medgraph.randomgen import (random_dag, random_dag_query, random_query,
                                random_rolled_graph)
from medgraph.separation import (HOLDS, INCONCLUSIVE, d_connecting_path,
                                 d_separated, d_separated_oracle,
                                 delta_connecting_path, delta_separated,
                                 delta_separated_oracle, format_path,
                                 granger_noncausal_graphical)
from medgraph.transform import unroll


def _past(graph, names, t):
    """Lagged copies of ``names`` strictly before time t (baseline at 0)."""
    out = set()
    for name in names:
        if name in graph.baseline:
            out.add((name, 0))
        else:
            out.update((name, s) for s in range(t))
    return out


# -- d-separation -----------------------------------------------------------


def test_collider_canon():
    dag = UnrolledDag.build(1, {"a", "b", "c"}, set(),
                            {(("a", 0), ("b", 1)), (("c", 0), ("b", 1))})
    assert d_separated(dag, {("a", 0)}, {("c", 0)}, set())
    assert not d_separated(dag, {("a", 0)}, {("c", 0)}, {("b", 1)})


def test_descendant_of_collider_opens():
    dag = UnrolledDag.build(1, {"a", "b", "c", "d"}, set(),
                            {(("a", 0), ("b", 0)), (("c", 0), ("b", 0)),
                             (("b", 0), ("d", 1))})
    assert d_separated(dag, {("a", 0)}, {("c", 0)}, set())
    assert not d_separated(dag, {("a", 0)}, {("c", 0)}, {("d", 1)})


def test_unrolled_tailed_has_connecting_walk(dag_tailed):
    a = {("S", 0), ("S", 1)}
    b = {("R", 2)}
    c = {("Q", 0), ("Q", 1), ("R", 0), ("R", 1)}
    assert not d_separated(dag_tailed, a, b, c)
    # the opening walk runs through the unconditioned last-lag copies
    assert (("S", 1), ("Q", 2)) in dag_tailed.edges
    assert (("Q", 2), ("R", 2)) in dag_tailed.edges
    assert d_connecting_path(dag_tailed, a, b, c) is not None


def test_unrolled_plain_is_separated(dag_plain):
    a = {("S", 0), ("S", 1)}
    b = {("R", 2)}
    c = {("Q", 0), ("Q", 1), ("R", 0), ("R", 1)}
    assert d_separated(dag_plain, a, b, c)
    assert d_separated_oracle(dag_plain, a, b, c)


def test_d_query_overlap_rejected(dag_plain):
    with pytest.raises(QueryError):
        d_separated(dag_plain, {("S", 0)}, {("S", 0)}, set())
    with pytest.raises(QueryError):
        d_separated(dag_plain, {("S", 0)}, {("R", 1)}, {("R", 1)})


# -- delta-separation -------------------------------------------------------


def test_delta_plain_example(graph_plain):
    assert delta_separated(graph_plain, {"S"}, {"R"}, {"Q"})
    assert delta_separated_oracle(graph_plain, {"S"}, {"R"}, {"Q"})


def test_delta_tailed_example(graph_tailed):
    # stripping the contemporaneous annotation gives the same skeleton, so
    # the separation statement is unchanged
    assert delta_separated(graph_tailed, {"S"}, {"R"}, {"Q"})


def test_delta_is_asymmetric(graph_plain):
    assert delta_separated(graph_plain, {"S"}, {"R"}, {"Q"})
    assert not delta_separated(graph_plain, {"R"}, {"S"}, {"Q"})
    path = delta_connecting_path(graph_plain, {"R"}, {"S"}, {"Q"})
    assert format_path(path) == "R -> S"


def test_delta_baseline_target_rejected(graph_plain):
    with pytest.raises(QueryError):
        delta_separated(graph_plain, {"S"}, {"P"}, set())


def test_delta_unknown_node(graph_plain):
    with pytest.raises(QueryError):
        delta_separated(graph_plain, {"Z"}, {"R"}, set())


def test_delta_mediator_separation():
    g = mediation_graph_latent()
    assert delta_separated(g, {"AD"}, {"M"}, {"AM", "C", "N"})
    assert delta_separated_oracle(g, {"AD"}, {"M"}, {"AM", "C", "N"})


def test_delta_latent_to_outcome_edge_opens_path():
    g = mediation_graph_latent(extra_edges=[("UM", "N")])
    assert not delta_separated(g, {"AD"}, {"M"}, {"AM", "C", "N"})
    path = delta_connecting_path(g, {"AD"}, {"M"}, {"AM", "C", "N"})
    assert path is not None
    # the opened path runs through the conditioned outcome as a collider
    names = [path[0]] + [node for _, node in path[1:]]
    assert "N" in names and "UM" in names


def test_oracle_node_budget():
    g = TailedDirectedGraph.build([f"n{i}" for i in range(13)])
    with pytest.raises(SizeError):
        delta_separated_oracle(g, {"n0"}, {"n1"}, set())


def test_empty_graph_all_separated():
    g = TailedDirectedGraph.build("ABC")
    assert delta_separated(g, {"A"}, {"B"}, {"C"})
    assert delta_separated_oracle(g, {"A"}, {"B"}, set())


# -- Granger criterion ------------------------------------------------------


def test_granger_tailed_ancestor_inconclusive(graph_tailed):
    # S reaches R through contemporaneous edges, so the first condition of
    # the criterion fails even though the stripped graph separates them
    res = granger_noncausal_graphical(graph_tailed, {"S"}, {"R"}, {"Q"})
    assert res.status == INCONCLUSIVE
    assert "tailed ancestors" in res.reason


def test_granger_plain_graph_holds(graph_plain):
    res = granger_noncausal_graphical(graph_plain, {"S"}, {"R"}, {"Q"})
    assert res.status == HOLDS
    assert bool(res)


def test_granger_mediation_outcome_holds():
    g = mediation_graph_latent()
    res = granger_noncausal_graphical(g, {"AM"}, {"N"}, {"AD", "C", "M"})
    assert res.status == HOLDS


def test_granger_baseline_tailed_ancestors_do_not_obstruct():
    # contemporaneous edges among baseline variables only; the criterion is
    # stated on process-level tailed ancestors, so it still applies
    g = TailedDirectedGraph.build(
        ["A", "C1", "C2", "B"], baseline={"A", "C1", "C2"},
        tailed={("A", "C1"), ("C2", "C1"), ("C1", "B"), ("C2", "B")})
    res = granger_noncausal_graphical(g, {"A"}, {"B"}, {"C1", "C2"})
    assert res.status == HOLDS


def test_granger_witness_path_reported():
    g = TailedDirectedGraph.build("ABC", directed={("A", "C"), ("C", "B")})
    res = granger_noncausal_graphical(g, {"A"}, {"B"}, set())
    assert res.status == INCONCLUSIVE
    assert format_path(res.witness) == "A -> C -> B"


def test_granger_baseline_target_rejected(graph_plain):
    with pytest.raises(QueryError):
        granger_noncausal_graphical(graph_plain, {"S"}, {"P"}, set())


# -- oracle agreement -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_d_separation_agrees_with_path_oracle(seed):
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, n_nodes=int(rng.integers(3, 9)))
    for _ in range(4):
        a, b, c = random_dag_query(rng, dag)
        assert d_separated(dag, a, b, c) == d_separated_oracle(dag, a, b, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_delta_separation_agrees_with_path_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, n_nodes=int(rng.integers(3, 8)))
    for _ in range(4):
        a, b, c = random_query(rng, g.nodes, target_pool=g.process_nodes)
        assert delta_separated(g, a, b, c) == delta_separated_oracle(g, a, b, c)


# -- structural properties --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_separation_monotone_under_edge_removal(seed):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng)
    a, b, c = random_query(rng, g.nodes, target_pool=g.process_nodes)
    if not delta_separated(g, a, b, c):
        return
    edges = sorted(g.all_edges)
    if not edges:
        return
    drop = edges[int(rng.integers(len(edges)))]
    sub = TailedDirectedGraph.build(g.nodes, g.baseline,
                                    g.directed - {drop}, g.tailed - {drop})
    assert delta_separated(sub, a, b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_markov_property_plain_graphs(seed, lags):
    # a delta-separation in a graph without contemporaneous edges implies
    # the corresponding lagged d-separations in every unrolling
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, tailed_prob=0.0)
    a, b, c = random_query(rng, g.nodes, target_pool=g.process_nodes)
    if not delta_separated(g, a, b, c):
        return
    dag = unroll(g, lags)
    for t in range(1, lags + 1):
        a_t = _past(g, a, t)
        b_t = {(name, t) for name in b}
        c_t = _past(g, b | c, t) - b_t
        assert d_separated(dag, a_t, b_t, c_t - a_t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_granger_holds_implies_unrolled_separation(seed, lags):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, tailed_acyclic=True)
    a, b, c = random_query(rng, g.nodes, target_pool=g.process_nodes)
    if granger_noncausal_graphical(g, a, b, c).status != HOLDS:
        return
    dag = unroll(g, lags)
    for t in range(1, lags + 1):
        a_t = _past(g, a, t)
        b_t = {(name, t) for name in b}
        c_t = _past(g, b | c, t) - b_t
        assert d_separated(dag, a_t, b_t, c_t - a_t)


# -- witness search and query generation -------------------------------------


def _complete_graph(k):
    """Every edge xi -> xj among k processes, plus T -> x0."""
    procs = [f"x{i}" for i in range(k)]
    edges = {(u, v) for u in procs for v in procs if u != v} | {("T", "x0")}
    return TailedDirectedGraph.build(procs + ["T"], (), edges)


def test_separated_witness_search_is_fast_on_complete_graph():
    g = _complete_graph(10)
    t0 = time.perf_counter()
    # the edge out of the target is deleted, so T is isolated from x1
    assert delta_connecting_path(g, {"x1"}, {"T"}, set()) is None
    assert granger_noncausal_graphical(g, {"x1"}, {"T"}, set()).status == HOLDS
    assert time.perf_counter() - t0 < 1.0
    # a connected query still returns the depth-first witness
    assert format_path(delta_connecting_path(g, {"T"}, {"x1"}, set())) == \
        "T -> x0 -> x1"


def test_random_query_does_not_depend_on_hash_seed():
    code = ("import numpy as np\n"
            "from medgraph.randomgen import random_query, random_rolled_graph\n"
            "rng = np.random.default_rng(0)\n"
            "g = random_rolled_graph(rng)\n"
            "print([sorted(s) for s in random_query("
            "rng, g.nodes, target_pool=g.process_nodes)])\n")
    src = os.path.dirname(os.path.dirname(medgraph.__file__))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] != ""
