"""Graphical separation criteria.

d-separation on variable-level DAGs, delta-separation on rolled graphs
(computed in the auxiliary graph with directed edges out of the target set
removed), and a sufficient criterion for Granger non-causality in graphs with
contemporaneous effects.  Each fast test has an exhaustive path-enumeration
oracle used for cross-validation on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QueryError, SizeError
from .graphs import TailedDirectedGraph, UnrolledDag

ORACLE_NODE_BUDGET = 12

HOLDS = "holds"
INCONCLUSIVE = "inconclusive"


def _check_query(all_nodes, a, b, c):
    a, b, c = set(a), set(b), set(c)
    for name, s in (("from", a), ("target", b), ("given", c)):
        unknown = s - all_nodes
        if unknown:
            raise QueryError(f"{name} set references unknown nodes: {sorted(unknown)}")
    if a & b or a & c or b & c:
        raise QueryError("query sets must be pairwise disjoint")
    return a, b, c


def _adjacency(edges):
    out: dict = {}
    inc: dict = {}
    for s, t in edges:
        out.setdefault(s, []).append(t)
        inc.setdefault(t, []).append(s)
    return out, inc


def _walk_connected(edges, a, b, given, anc_plus):
    """Reachability test for a d-connecting walk from ``a`` to ``b`` given
    ``given``, where collider openings are decided by membership in
    ``anc_plus`` (an+(given), possibly computed in a larger graph).

    State is (node, arrived_by_head): arrived_by_head is True when the walk
    entered the node through an arrowhead.
    """
    out, inc = _adjacency(edges)
    stack = []
    seen = set()

    def push(node, by_head):
        if (node, by_head) not in seen:
            seen.add((node, by_head))
            stack.append((node, by_head))

    for src in a:
        for nxt in out.get(src, ()):
            push(nxt, True)
        for nxt in inc.get(src, ()):
            push(nxt, False)

    while stack:
        node, by_head = stack.pop()
        if node in b:
            return True
        if by_head:
            if node not in given:
                for nxt in out.get(node, ()):
                    push(nxt, True)
            if node in anc_plus:
                for nxt in inc.get(node, ()):
                    push(nxt, False)
        else:
            if node not in given:
                for nxt in out.get(node, ()):
                    push(nxt, True)
                for nxt in inc.get(node, ()):
                    push(nxt, False)
    return False


def _search_from(src, out, inc, b, given, anc_plus):
    """DFS over simple paths from ``src``; prunes blocked prefixes."""

    def rec(node, by_head, on_path, path):
        if node in b:
            return path
        nexts = [("->", n, True) for n in sorted(out.get(node, ()))]
        nexts += [("<-", n, False) for n in sorted(inc.get(node, ()))]
        for op, nxt, nxt_by_head in nexts:
            if nxt in on_path:
                continue
            collider = by_head and op == "<-"
            if collider and node not in anc_plus:
                continue
            if not collider and node in given:
                continue
            found = rec(nxt, nxt_by_head, on_path | {nxt}, path + [(op, nxt)])
            if found:
                return found
        return None

    for op, nxt, by_head in [("->", n, True) for n in sorted(out.get(src, ()))] + \
                            [("<-", n, False) for n in sorted(inc.get(src, ()))]:
        if nxt in b:
            return [src, (op, nxt)]
        found = rec(nxt, by_head, {src, nxt}, [src, (op, nxt)])
        if found:
            return found
    return None


def _first_path(edges, a, b, given, anc_plus):
    """The first connecting simple path from the sorted sources, by
    exhaustive depth-first enumeration, or None."""
    out, inc = _adjacency(edges)
    for src in sorted(a):
        found = _search_from(src, out, inc, b, given, anc_plus)
        if found:
            return found
    return None


def format_path(path):
    if path is None:
        return None
    parts = [str(path[0])]
    for op, node in path[1:]:
        parts.append(op)
        parts.append(str(node))
    return " ".join(parts)


# -- d-separation on unrolled DAGs ----------------------------------------


def d_separated(dag: UnrolledDag, a, b, c) -> bool:
    """True iff ``a`` and ``b`` are d-separated given ``c`` in the DAG."""
    a, b, c = _check_query(dag.node_set(), a, b, c)
    anc_plus = dag.ancestors(c, include_target=True)
    return not _walk_connected(dag.edges, a, b, c, anc_plus)


def d_separated_oracle(dag: UnrolledDag, a, b, c) -> bool:
    """Exhaustive simple-path version of :func:`d_separated`."""
    a, b, c = _check_query(dag.node_set(), a, b, c)
    anc_plus = dag.ancestors(c, include_target=True)
    return _first_path(dag.edges, a, b, c, anc_plus) is None


def d_connecting_path(dag: UnrolledDag, a, b, c):
    """One d-connecting simple path, or None if separated.  The walk test
    answers separated queries; only connected ones enumerate paths."""
    a, b, c = _check_query(dag.node_set(), a, b, c)
    anc_plus = dag.ancestors(c, include_target=True)
    if not _walk_connected(dag.edges, a, b, c, anc_plus):
        return None
    return _first_path(dag.edges, a, b, c, anc_plus)


# -- delta-separation on rolled graphs -------------------------------------


def _delta_setup(graph: TailedDirectedGraph, a, b, c):
    a, b, c = _check_query(graph.nodes, a, b, c)
    bad = b & graph.baseline
    if bad:
        raise QueryError(f"delta-separation target must be process nodes, got baseline {sorted(bad)}")
    stripped = graph.strip_tails()
    aux = stripped.remove_edges_out_of(b)
    # ancestors of the conditioning set are taken in the full graph, not in
    # the edge-deleted auxiliary graph
    anc_plus = stripped.ancestors(c, include_target=True)
    return a, b, c, aux, anc_plus


def delta_separated(graph: TailedDirectedGraph, a, b, c) -> bool:
    """True iff ``b`` is delta-separated from ``a`` given ``c``.

    Note the asymmetry: edges out of the target set ``b`` are deleted before
    testing, so the relation is directional.
    """
    a, b, c, aux, anc_plus = _delta_setup(graph, a, b, c)
    return not _walk_connected(aux.all_edges, a, b, c, anc_plus)


def delta_separated_oracle(graph: TailedDirectedGraph, a, b, c) -> bool:
    if len(graph.nodes) > ORACLE_NODE_BUDGET:
        raise SizeError(f"path-enumeration oracle limited to {ORACLE_NODE_BUDGET} nodes")
    a, b, c, aux, anc_plus = _delta_setup(graph, a, b, c)
    return _first_path(aux.all_edges, a, b, c, anc_plus) is None


def delta_connecting_path(graph: TailedDirectedGraph, a, b, c):
    """One delta-connecting simple path (in the auxiliary graph), or None.
    The walk test answers separated queries; only connected ones enumerate
    paths."""
    a, b, c, aux, anc_plus = _delta_setup(graph, a, b, c)
    if not _walk_connected(aux.all_edges, a, b, c, anc_plus):
        return None
    return _first_path(aux.all_edges, a, b, c, anc_plus)


# -- Granger non-causality via contemporaneous-effects criterion ----------


@dataclass(frozen=True)
class GrangerResult:
    status: str                 # HOLDS or INCONCLUSIVE
    reason: str
    witness: list | None = None

    def __bool__(self):  # pragma: no cover - convenience only
        return self.status == HOLDS


def granger_noncausal_graphical(graph: TailedDirectedGraph, a, b, c) -> GrangerResult:
    """Sufficient graphical criterion for local independence of the target
    processes ``b`` from ``a`` given ``c`` in a graph with contemporaneous
    effects.

    Returns ``holds`` when the criterion is met and ``inconclusive``
    otherwise; the criterion is one-directional, so a failure never asserts
    dependence.
    """
    a, b, c = _check_query(graph.nodes, a, b, c)
    bad = b & graph.baseline
    if bad:
        raise QueryError(f"target must be process nodes, got baseline {sorted(bad)}")
    anv = graph.tailed_ancestors_process(b)
    # The first condition is on process-level tailed ancestors: baseline
    # tailed ancestors of the target do not obstruct the criterion.
    if a & anv:
        return GrangerResult(INCONCLUSIVE,
                             f"from-set intersects tailed ancestors of target: {sorted(a & anv)}")
    target = b | (anv & c)
    given = c - anv
    witness = delta_connecting_path(graph, a, target, given)
    if witness is None:
        return GrangerResult(HOLDS, "criterion satisfied")
    return GrangerResult(INCONCLUSIVE, "delta-connecting path found", witness)
