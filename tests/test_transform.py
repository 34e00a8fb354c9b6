import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medgraph import transform
from medgraph.errors import GraphError, SizeError
from medgraph.graphs import TailedDirectedGraph, UnrolledDag
from medgraph.randomgen import random_rolled_graph
from medgraph.transform import ProperPair, is_proper, roll, unroll


def _expected_plain_unrolling():
    """Hand-written two-lag unrolling of the plain four-process graph."""
    e = set()
    for x in "QRS":
        e |= {((x, 0), (x, 1)), ((x, 1), (x, 2)), ((x, 0), (x, 2))}
    e |= {(("P", 0), ("S", 1)), (("P", 0), ("S", 2))}
    e |= {(("Q", 0), ("R", 1)), (("Q", 0), ("R", 2)), (("Q", 1), ("R", 2))}
    e |= {(("S", 0), ("Q", 1)), (("S", 0), ("Q", 2)), (("S", 1), ("Q", 2))}
    e |= {(("R", 0), ("S", 1)), (("R", 0), ("S", 2)), (("R", 1), ("S", 2))}
    return e


def test_unroll_plain_matches_hand_expansion(graph_plain, dag_plain):
    assert dag_plain.edges == frozenset(_expected_plain_unrolling())


def test_unroll_tailed_adds_same_lag_edges(dag_plain, dag_tailed):
    extra = {(("S", t), ("Q", t)) for t in range(3)}
    extra |= {(("Q", t), ("R", t)) for t in range(3)}
    assert dag_tailed.edges == dag_plain.edges | extra


def test_roll_inverts_unroll(graph_plain, graph_tailed, dag_plain, dag_tailed):
    assert roll(dag_plain) == graph_plain
    assert roll(dag_tailed) == graph_tailed


def test_sparse_dag_rolls_to_same_graph(graph_plain, dag_sparse):
    # longer-lag copies keep every process-level edge alive
    assert roll(dag_sparse) == graph_plain


def test_rolling_not_injective(dag_plain, dag_sparse):
    assert dag_plain.edges != dag_sparse.edges
    assert roll(dag_plain) == roll(dag_sparse)


def test_proper_pair_by_either_direction(graph_plain, dag_plain, dag_sparse):
    assert is_proper(graph_plain, dag_plain)
    assert is_proper(graph_plain, dag_sparse)   # roll direction only
    assert unroll(graph_plain, 2) != dag_sparse
    ProperPair(graph_plain, dag_sparse)


def test_improper_pair(graph_plain):
    other = UnrolledDag.build(2, {"Q", "R", "S"}, {"P"},
                              {(("Q", 0), ("R", 1))})
    assert not is_proper(graph_plain, other)
    with pytest.raises(GraphError):
        ProperPair(graph_plain, other)


def test_proper_pair_node_mismatch(graph_plain):
    other = UnrolledDag.build(1, {"X"}, set(), set())
    with pytest.raises(GraphError):
        is_proper(graph_plain, other)


def test_unroll_rejects_tailed_cycle():
    g = TailedDirectedGraph.build("AB", tailed={("A", "B"), ("B", "A")})
    with pytest.raises(GraphError) as err:
        unroll(g, 2)
    assert "cycle" in str(err.value)


def test_unroll_needs_positive_lags(graph_plain):
    with pytest.raises(GraphError):
        unroll(graph_plain, 0)


def test_baseline_only_at_lag_zero(dag_plain):
    assert all(lag == 0 for (name, lag) in dag_plain.node_set()
               if name == "P")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_roll_unroll_round_trip(seed, lags):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, tailed_acyclic=True)
    assert roll(unroll(g, lags)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_lag_restriction_is_unrolling(seed):
    # restricting an unrolling to fewer lags equals unrolling to that depth
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, tailed_acyclic=True)
    assert unroll(g, 3).restrict_lags(2) == unroll(g, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 5))
def test_unrolled_edge_count_is_the_edges_unroll_makes(seed, lags):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, tailed_acyclic=True)
    assert transform._unrolled_edge_count(g, lags) == len(unroll(g, lags).edges)


def test_unroll_refuses_more_edges_than_its_budget(graph_tailed, monkeypatch):
    size = len(unroll(graph_tailed, 3).edges)
    monkeypatch.setattr(transform, "UNROLL_EDGE_BUDGET", size)
    assert len(unroll(graph_tailed, 3).edges) == size
    with pytest.raises(SizeError, match="budget"):
        unroll(graph_tailed, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 4))
def test_unroll_makes_what_build_would_accept_without_calling_it(seed, lags):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng, n_nodes=int(rng.integers(2, 8)),
                            n_baseline=int(rng.integers(1, 3)),
                            tailed_acyclic=True)

    def refuse(*args, **kwargs):
        raise AssertionError("unroll called UnrolledDag.build")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UnrolledDag, "build", refuse)
        dag = unroll(g, lags)
    built = UnrolledDag.build(lags, g.process_nodes, g.baseline, dag.edges)
    assert g.baseline
    assert dag == built and dag.nodes == built.nodes


@pytest.mark.parametrize("lags", [1.5, 2.0, True, "2", None,
                                  np.float64(2.0), np.array(2.5)])
def test_unroll_needs_an_integer_count_of_lags(graph_plain, lags):
    # a float ended in a TypeError from range, and True ran as one lag
    with pytest.raises(GraphError, match="lags must be an integer >= 1"):
        unroll(graph_plain, lags)


@pytest.mark.parametrize("lag_count", [1.5, True])
def test_unrolled_dag_needs_an_integer_lag_count(lag_count):
    with pytest.raises(GraphError, match="lag_count must be an integer >= 1"):
        UnrolledDag.build(lag_count, {"Q"}, (), ())


def test_unroll_takes_a_numpy_integer_count(graph_plain, dag_plain):
    assert unroll(graph_plain, np.int64(2)) == dag_plain
