"""The one search behind every separation query: its witnesses checked by a
path checker written here, its verdicts against the exhaustive oracle, its
cost on long chains and dense cycles, its output under different hash seeds,
and metamorphic relations of the graph layer (renaming nodes, DSL round
trip)."""

import json
import os
import subprocess
import sys
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from medgraph import separation
from medgraph.cli import main
from medgraph.graphs import TailedDirectedGraph, format_lig, parse_lig
from medgraph.randomgen import random_dag_query, random_query, random_rolled_graph
from medgraph.separation import (d_connecting_path, d_separated,
                                 d_separated_oracle, delta_connecting_path,
                                 delta_separated, delta_separated_oracle)
from medgraph.transform import unroll

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _env(**extra):
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


# -- an independent path checker -----------------------------------------------


def _an_plus(edges, c):
    """an+(c) by a closure over ``edges``, sharing no code with the graphs."""
    anc = set(c)
    grew = True
    while grew:
        grew = False
        for src, dst in edges:
            if dst in anc and src not in anc:
                anc.add(src)
                grew = True
    return anc


def _check_path(edges, path, a, b, c, delta):
    """Raise AssertionError unless ``path`` is a connecting path from ``a``
    to ``b`` given ``c`` over ``edges``.  Under ``delta`` no edge out of
    ``b`` may be used: the path never steps up into ``b``."""
    edges = set(edges)
    nodes = [path[0]] + [node for _, node in path[1:]]
    ops = [op for op, _ in path[1:]]
    assert len(set(nodes)) == len(nodes), "not simple"
    assert nodes[0] in a and nodes[-1] in b
    assert not set(nodes[1:-1]) & set(b), "passes through the target"
    for prev, op, node in zip(nodes, ops, nodes[1:]):
        assert op in ("->", "<-")
        edge = (prev, node) if op == "->" else (node, prev)
        assert edge in edges, f"no edge {edge}"
        if delta:
            assert edge[0] not in b, f"uses the removed edge {edge}"
    anc = _an_plus(edges, c)
    for k in range(1, len(nodes) - 1):
        collider = ops[k - 1] == "->" and ops[k] == "<-"
        if collider:
            assert nodes[k] in anc, f"collider {nodes[k]} outside an+(C)"
        else:
            assert nodes[k] not in c, f"non-collider {nodes[k]} in C"


def _first_path(graph, a, b, c, delta):
    """The exhaustive oracle's first path, as the old witness search."""
    a, b, c, anc_plus = separation._setup(graph, a, b, c)
    return separation._first_path(graph, a, b, c, anc_plus,
                                  cut=b if delta else frozenset())


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_witness_is_a_shortest_connecting_path_or_none_exactly_when_separated(seed):
    rng = np.random.default_rng(seed)
    graph = random_rolled_graph(rng, n_nodes=int(rng.integers(3, 8)),
                                edge_prob=float(rng.uniform(0.2, 0.6)),
                                tailed_acyclic=bool(seed % 2))
    cases = []
    for _ in range(4):
        q = random_query(rng, graph.nodes, target_pool=graph.process_nodes)
        cases.append((graph, q, True))
    if seed % 2:
        dag = unroll(graph, 2)
        cases += [(dag, random_dag_query(rng, dag), False) for _ in range(3)]
    for g, (a, b, c), delta in cases:
        if delta:
            witness = delta_connecting_path(g, a, b, c)
            separated = delta_separated_oracle(g, a, b, c)
            assert delta_separated(g, a, b, c) == separated
        else:
            witness = d_connecting_path(g, a, b, c)
            separated = d_separated_oracle(g, a, b, c)
            assert d_separated(g, a, b, c) == separated
        assert (witness is None) == separated
        if witness is not None:
            _check_path(g.all_edges, witness, a, b, c, delta)
            assert len(witness) <= len(_first_path(g, a, b, c, delta))


def test_path_checker_refuses_broken_witnesses():
    g = TailedDirectedGraph.build("abcd", directed={
        ("a", "b"), ("c", "b"), ("c", "d")})
    _check_path(g.all_edges, ["a", ("->", "b"), ("<-", "c"), ("->", "d")],
                {"a"}, {"d"}, {"b"}, delta=True)
    broken = [
        (["a", ("->", "b"), ("<-", "c"), ("->", "d")], set()),    # closed collider
        (["a", ("->", "b"), ("->", "c"), ("->", "d")], {"b"}),    # wrong direction
        (["a", ("->", "b"), ("<-", "a"), ("->", "d")], {"b"}),    # not simple
    ]
    for path, given_ in broken:
        try:
            _check_path(g.all_edges, path, {"a"}, {"d"}, given_, delta=True)
        except AssertionError:
            continue
        raise AssertionError(f"accepted {path}")


def test_the_target_is_never_left_by_an_edge_under_delta():
    # a <- c <- b reaches b only through the edge b -> c out of the target
    g = TailedDirectedGraph.build("abc", directed={("b", "c"), ("c", "a")})
    assert delta_connecting_path(g, {"a"}, {"b"}, set()) is None
    assert delta_connecting_path(g, {"b"}, {"a"}, set()) \
        == ["b", ("->", "c"), ("->", "a")]


# -- cost: one linear search, no recursion -------------------------------------


def _chain_lig(n):
    return "".join(f"node x{i}\n" for i in range(n)) + "".join(
        f"x{i} -> x{i + 1}\n" for i in range(n - 1))


def test_sep_on_a_long_chain_is_fast_and_does_not_recurse(tmp_path, capsys):
    n = 5000
    path = tmp_path / "chain.lig"
    path.write_text(_chain_lig(n))
    for flavor in ("delta", "granger"):
        start = time.perf_counter()
        code = main(["sep", str(path), "--flavor", flavor, "--from", "x0",
                     "--target", f"x{n - 1}"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and elapsed < 1.0, (flavor, elapsed)
        assert out["witness_path"] == " -> ".join(f"x{i}" for i in range(n))


CYCLE_SCRIPT = """
import sys, time
from medgraph.graphs import TailedDirectedGraph
from medgraph.separation import delta_connecting_path, format_path
n = int(sys.argv[1])
bs = [f"b{i}" for i in range(n)]
edges = [("a", "b0"), ("a", "y"), ("y", "z")]
edges += [(i, j) for i in bs for j in bs if i != j]
g = TailedDirectedGraph.build(["a", "y", "z", *bs], directed=edges)
start = time.perf_counter()
path = delta_connecting_path(g, {"a"}, {"z"}, set())
print(time.perf_counter() - start, format_path(path))
"""


def test_connected_query_behind_a_dense_cycle_is_fast():
    # the exhaustive search took about tenfold longer per process here; in a
    # process of its own, so a regression fails at the timeout
    proc = subprocess.run([sys.executable, "-c", CYCLE_SCRIPT, "12"],
                          env=_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    elapsed, witness = proc.stdout.strip().split(" ", 1)
    assert float(elapsed) < 1.0
    assert witness == "a -> y -> z"


SEP_SCRIPT = """
import json, sys
from medgraph.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
"""


def test_sep_output_does_not_depend_on_the_hash_seed(tmp_path):
    # many shortest paths of equal length: the tie falls by sorted names,
    # so m10 comes before m2
    lines = [f"node {n}" for n in ["src", "dst", "cz"]]
    lines += [f"node m{k}\nsrc -> m{k}\nm{k} -> dst" for k in range(12)]
    lines += ["cz -> src", "cz -> dst"]
    path = tmp_path / "ties.lig"
    path.write_text("\n".join(lines) + "\n")
    argvs = [["sep", str(path), *argv] for argv in (
        ["--from", "src", "--target", "dst"],
        ["--from", "src", "--target", "dst", "--given", "m0,m1"],
        ["--flavor", "d", "--lags", "2", "--from", "src@0", "--target", "dst@2"])]
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", SEP_SCRIPT, json.dumps(argvs)],
            env=_env(PYTHONHASHSEED=hash_seed), capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    witnesses = [json.loads(line)["witness_path"] for line in out.splitlines()]
    assert witnesses == ["src -> m0 -> dst", "src -> m10 -> dst",
                         "src@0 -> m0@1 -> dst@2"]


# -- metamorphic relations on the graph layer ----------------------------------


def _renamed(graph, name_of):
    return TailedDirectedGraph.build(
        [name_of[n] for n in graph.nodes], [name_of[n] for n in graph.baseline],
        [(name_of[s], name_of[t]) for s, t in graph.directed],
        [(name_of[s], name_of[t]) for s, t in graph.tailed])


def _map_path(path, f):
    return None if path is None else [f(path[0])] + [(op, f(n)) for op, n in path[1:]]


def _queries(seed):
    """Random rolled graphs that unroll, each with δ-queries and, on its
    unrolling at L = 2, d-queries."""
    rng = np.random.default_rng([seed, 25])
    for _ in range(6):
        g = random_rolled_graph(rng, n_nodes=int(rng.integers(4, 9)),
                                edge_prob=0.4, tailed_acyclic=True)
        dag = unroll(g, 2)
        yield (g, [random_query(rng, g.nodes, target_pool=g.process_nodes)
                   for _ in range(8)],
               dag, [random_dag_query(rng, dag) for _ in range(8)])


def _both_flavors(g, qs, dag, dqs):
    out = [delta_connecting_path(g, *q) for q in qs]
    return out + [d_connecting_path(dag, *q) for q in dqs]


def _map_queries(qs, f):
    return [tuple({f(n) for n in s} for s in q) for q in qs]


def test_order_preserving_renaming_maps_every_verdict_and_witness():
    for seed in range(4):
        for g, qs, dag, dqs in _queries(seed):
            name_of = {n: f"p_{n}" for n in g.nodes}
            lag_of = lambda nd: (name_of[nd[0]], nd[1])  # noqa: E731
            h = _renamed(g, name_of)
            before = _both_flavors(g, qs, dag, dqs)
            after = _both_flavors(h, _map_queries(qs, name_of.get),
                                  unroll(h, 2), _map_queries(dqs, lag_of))
            expected = [_map_path(p, name_of.get) for p in before[:len(qs)]]
            expected += [_map_path(p, lag_of) for p in before[len(qs):]]
            assert after == expected


def test_random_renaming_maps_every_verdict_and_witness_length():
    for seed in range(4):
        rng = np.random.default_rng([seed, 26])
        for g, qs, dag, dqs in _queries(seed):
            fresh = [f"v{k}" for k in rng.permutation(len(g.nodes))]
            name_of = dict(zip(sorted(g.nodes), fresh))
            lag_of = lambda nd: (name_of[nd[0]], nd[1])  # noqa: E731
            h = _renamed(g, name_of)
            before = _both_flavors(g, qs, dag, dqs)
            after = _both_flavors(h, _map_queries(qs, name_of.get),
                                  unroll(h, 2), _map_queries(dqs, lag_of))
            assert [p and len(p) for p in after] == [p and len(p) for p in before]


def test_format_lig_then_parse_lig_is_the_identity():
    rng = np.random.default_rng(27)
    for _ in range(60):
        g = random_rolled_graph(rng, n_nodes=int(rng.integers(1, 10)),
                                edge_prob=float(rng.uniform(0, 0.7)))
        nodes = sorted(g.nodes)
        latent = {n for n in nodes if rng.uniform() < 0.3}
        roles = {"mediator": sorted(n for n in nodes if rng.uniform() < 0.4)}
        roles = {k: v for k, v in roles.items() if v}
        spec = parse_lig(format_lig(g, latent, roles))
        assert spec.graph == g
        assert spec.latent == latent and spec.roles == roles
