import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medgraph import graphs
from medgraph.errors import GraphError, ParseError, UnknownNodeError
from medgraph.graphs import (TailedDirectedGraph, UnrolledDag, format_lig,
                             format_unrolled_lig, parse_lig)
from medgraph.randomgen import random_rolled_graph


def test_build_basic(graph_plain):
    assert graph_plain.baseline == {"P"}
    assert graph_plain.process_nodes == {"Q", "R", "S"}
    assert len(graph_plain.all_edges) == 4


def test_unknown_edge_endpoint():
    with pytest.raises(UnknownNodeError):
        TailedDirectedGraph.build("AB", directed={("A", "Z")})


def test_edge_both_plain_and_tailed():
    with pytest.raises(GraphError):
        TailedDirectedGraph.build("AB", directed={("A", "B")},
                                  tailed={("A", "B")})


def test_self_loops_dropped():
    g = TailedDirectedGraph.build("AB", directed={("A", "A"), ("A", "B")})
    assert g.directed == {("A", "B")}


def test_no_plain_edge_into_baseline():
    with pytest.raises(GraphError):
        TailedDirectedGraph.build("AB", baseline={"B"}, directed={("A", "B")})


def test_no_process_edge_into_baseline():
    with pytest.raises(GraphError):
        TailedDirectedGraph.build("AB", baseline={"B"}, tailed={("A", "B")})


def test_ancestors_through_cycle(graph_plain):
    # R sits on the process cycle, so it is its own ancestor
    assert graph_plain.ancestors({"R"}) == {"P", "Q", "R", "S"}
    assert graph_plain.ancestors({"P"}) == set()


def test_tailed_ancestors(graph_tailed):
    assert graph_tailed.tailed_ancestors({"R"}) == {"Q", "S"}
    assert graph_tailed.tailed_ancestors_process({"R"}) == {"Q", "S"}
    assert graph_tailed.tailed_ancestors({"S"}) == set()


def test_tailed_ancestors_exclude_targets():
    g = TailedDirectedGraph.build("ABC", tailed={("A", "B"), ("B", "C")})
    assert g.tailed_ancestors({"B", "C"}) == {"A"}


def test_strip_tails_idempotent(graph_tailed):
    stripped = graph_tailed.strip_tails()
    assert stripped.tailed == frozenset()
    assert stripped.all_edges == graph_tailed.all_edges
    assert stripped.strip_tails() == stripped


def test_remove_edges_out_of(graph_plain):
    aux = graph_plain.remove_edges_out_of({"R"})
    assert ("R", "S") not in aux.all_edges
    assert ("Q", "R") in aux.all_edges


def test_descendants(graph_plain):
    assert graph_plain.descendants({"P"}) == {"S", "Q", "R"}


# -- hypothesis properties ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_ancestor_monotonicity(seed):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng)
    nodes = sorted(g.nodes)
    a = {nodes[int(rng.integers(len(nodes)))]}
    b = a | {nodes[int(rng.integers(len(nodes)))]}
    assert g.ancestors(a) <= g.ancestors(b)
    assert g.tailed_ancestors(a) <= g.ancestors(a) | a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_strip_then_remove_commutes_with_queries(seed):
    rng = np.random.default_rng(seed)
    g = random_rolled_graph(rng)
    s = g.strip_tails()
    assert s.nodes == g.nodes
    assert s.all_edges == g.all_edges


# -- unrolled DAGs ---------------------------------------------------------


def test_unrolled_validation_backwards_edge():
    with pytest.raises(GraphError):
        UnrolledDag.build(2, {"X"}, set(), {(("X", 2), ("X", 1))})


def test_unrolled_validation_same_lag_cycle():
    edges = {(("X", 0), ("Y", 1)), (("X", 1), ("Y", 1)), (("Y", 1), ("X", 1))}
    with pytest.raises(GraphError, match="cycle"):
        UnrolledDag.build(2, {"X", "Y"}, set(), edges)


def test_unrolled_acyclicity_check_sorts_same_lag_edges_only(monkeypatch):
    seen = []
    build = graphs._adjacency

    def recorded(edges):
        seen.append(set(edges))
        return build(edges)

    monkeypatch.setattr(graphs, "_adjacency", recorded)
    edges = {(("X", 0), ("Y", 1)), (("X", 1), ("Y", 1)), (("Y", 0), ("Y", 2))}
    UnrolledDag.build(2, {"X", "Y"}, set(), edges)
    assert seen == [{(("X", 1), ("Y", 1))}]


def test_unrolled_validation_baseline_lag():
    with pytest.raises(GraphError):
        UnrolledDag.build(2, {"X"}, {"B"}, {(("B", 1), ("X", 2))})


def test_unrolled_nodes(dag_plain):
    nodes = dag_plain.node_set()
    assert ("P", 0) in nodes and ("P", 1) not in nodes
    assert ("Q", 2) in nodes


def test_restrict_lags(dag_plain):
    sub = dag_plain.restrict_lags(1)
    assert all(s[1] <= 1 and t[1] <= 1 for s, t in sub.edges)
    assert sub.edges <= dag_plain.edges


def test_unrolled_ancestors(dag_plain):
    anc = dag_plain.ancestors({("R", 1)})
    assert ("Q", 0) in anc and ("R", 0) in anc
    assert ("R", 2) not in anc


# -- DSL --------------------------------------------------------------------


EXAMPLE = """\
# comment line
node P baseline
node Q
node R
node S
P -> S
Q -> R   # trailing comment
S o-> Q
role outcome S
unobserved R
"""


def test_parse_lig_round_trip():
    spec = parse_lig(EXAMPLE)
    assert spec.graph.baseline == {"P"}
    assert ("S", "Q") in spec.graph.tailed
    assert spec.latent == {"R"}
    assert spec.roles == {"outcome": ["S"]}
    text = format_lig(spec.graph, spec.latent, spec.roles)
    assert parse_lig(text).graph == spec.graph


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_lig("node A\nA -> B\n")
    assert err.value.line_number == 2


def test_parse_duplicate_node():
    with pytest.raises(ParseError):
        parse_lig("node A\nnode A\n")


def test_parse_bad_statement():
    with pytest.raises(ParseError) as err:
        parse_lig("node A\nfrobnicate A\n")
    assert "line 2" in str(err.value)


def test_format_unrolled(dag_plain):
    text = format_unrolled_lig(dag_plain)
    assert "node P@0 baseline" in text
    assert "Q@0 -> R@1" in text


# -- one graph protocol, and build's checks on edges from outside ---------------


def test_unrolled_node_set_is_built_once(dag_plain):
    assert dag_plain.node_set() is dag_plain.node_set()
    assert dag_plain.node_set() is dag_plain.nodes
    assert isinstance(dag_plain.nodes, frozenset)


def test_rolled_and_unrolled_graphs_share_the_protocol(graph_plain, dag_plain):
    for g in (graph_plain, dag_plain):
        assert type(g).adjacency is graphs._Graph.adjacency
        assert type(g).ancestors is graphs._Graph.ancestors
        assert type(g)._check_known is graphs._Graph._check_known
    with pytest.raises(UnknownNodeError):
        dag_plain.ancestors({("Q", 3)})
    with pytest.raises(UnknownNodeError):
        graph_plain.ancestors({"Z"})


@pytest.mark.parametrize("lag", [1.5, "a", "1"])
def test_unrolled_build_does_not_coerce_lags(lag):
    with pytest.raises(GraphError, match="not a valid lagged node"):
        UnrolledDag.build(2, {"X", "Y"}, set(), {(("X", 0), ("Y", lag))})


def test_unrolled_build_does_not_coerce_names():
    with pytest.raises(GraphError, match="not a valid lagged node"):
        UnrolledDag.build(1, {"1"}, set(), {((1, 0), ("1", 1))})


# -- DSL: keywords as node names, and every parse error branch ------------------


@pytest.mark.parametrize("name", ["node", "unobserved", "role", "->", "o->"])
@pytest.mark.parametrize("baseline", ["", " baseline"])
def test_node_named_after_a_keyword_is_a_parse_error(name, baseline):
    with pytest.raises(ParseError) as err:
        parse_lig(f"node x\nnode {name}{baseline}\n{name} -> x\n")
    assert err.value.line_number == 2
    assert str(err.value) == (f"line 2: node name {name!r} is a keyword or "
                              "edge operator")


def test_edge_out_of_a_node_named_role_is_not_lost():
    # a node named 'role' used to make 'role -> x' a role named '->'
    with pytest.raises(ParseError, match="line 1: node name 'role'"):
        parse_lig("node role\nnode x\nrole -> x\n")


def test_keywords_are_still_fine_as_role_names_and_in_comments():
    spec = parse_lig("node x\nnode y\nx -> y  # node -> role\nrole node y\n")
    assert spec.graph.directed == {("x", "y")}
    assert spec.roles == {"node": ["y"]}


@pytest.mark.parametrize("text, line, message", [
    ("node a b c\n", 1, "bad node statement"),
    ("node a\nnode b lagged\n", 2, "bad node statement"),
    ("node\n", 1, "bad node statement"),
    ("node a\nunobserved\n", 2, "bad unobserved statement"),
    ("node a\nunobserved a b\n", 2, "bad unobserved statement"),
    ("node a\nunobserved b\n", 2, "unobserved names unknown node 'b'"),
    ("node a\nrole outcome\n", 2, "bad role statement"),
    ("node a\nrole outcome a b\n", 2, "bad role statement"),
    ("node a\nrole outcome b\n", 2, "role names unknown node 'b'"),
    ("node a\nb -> a\n", 2, "edge references undeclared node 'b'"),
    ("node a\na => a\n", 2, "unrecognized statement"),
])
def test_each_parse_error_names_its_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_lig(text)
    assert err.value.line_number == line
    assert str(err.value).startswith(f"line {line}: {message}")


def test_graph_error_after_parsing_is_a_parse_error():
    with pytest.raises(ParseError, match="plain directed edge into baseline") as err:
        parse_lig("node P baseline\nnode X\nX -> P\n")
    assert err.value.line_number is None
    assert isinstance(err.value.__cause__, GraphError)
