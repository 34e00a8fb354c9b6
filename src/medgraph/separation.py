"""Graphical separation criteria.

d-separation on variable-level DAGs, delta-separation on rolled graphs, and a
sufficient criterion for Granger non-causality in graphs with contemporaneous
effects.  delta-separation is d-separation in the auxiliary graph with the
directed edges out of the target set removed; no auxiliary graph is built:
the search on the given graph skips each step from a node back to a parent
in the target set, which is exactly a step along a removed edge.  d- and
delta-queries share one setup and the graph's nodes, cached adjacency and
ancestors, and differ only in that cut.  Each query is one breadth-first
search that decides it and returns a shortest connecting path as the
witness.  The exhaustive path enumeration serves only the two oracles,
which cross-validate the search on small graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import QueryError, SizeError
from .graphs import TailedDirectedGraph, UnrolledDag, lagged_name

ORACLE_NODE_BUDGET = 12

HOLDS = "holds"
INCONCLUSIVE = "inconclusive"


def _setup(graph, a, b, c):
    """The checked query sets and an+(c) on a rolled graph or an unrolled
    DAG.  an+(c) is taken in the full graph, not in the auxiliary graph
    without the edges out of b."""
    a, b, c = set(a), set(b), set(c)
    for name, s in (("from", a), ("target", b), ("given", c)):
        unknown = s - graph.nodes
        if unknown:
            raise QueryError(f"{name} set references unknown nodes: {sorted(unknown)}")
    if a & b or a & c or b & c:
        raise QueryError("query sets must be pairwise disjoint")
    return a, b, c, graph.ancestors(c) | c


def _process_target(graph, b, what="delta-separation target"):
    """The one rule delta-separation adds to :func:`_setup`."""
    bad = b & graph.baseline
    if bad:
        raise QueryError(f"{what} must be process nodes, got baseline {sorted(bad)}")


def _connecting_path(graph, a, b, given, anc_plus, cut=frozenset()):
    """A shortest d-connecting path from ``a`` to ``b`` given ``given`` in
    ``graph``, as ``[source, (op, node), ...]``, or None if there is none.
    Collider openings are decided by membership in ``anc_plus``
    (an+(given), possibly computed in a larger graph).  The search never
    steps from a node back to a parent in ``cut``: for ``cut = b`` that is
    the graph with the edges out of ``b`` removed.

    One breadth-first search over the states (node, arrived_by_head)
    (Shachter's Bayes ball): arrived_by_head is True when the walk entered
    the node through an arrowhead, and a source is entered as if by a tail,
    so every edge at it may be taken.  Sources are taken in sorted order,
    then children before parents, each in the sorted order of the graph's
    adjacency, so ties between shortest paths fall by node order.

    A shortest walk is a d-connecting path.  Whether a step is allowed
    depends only on the state it leaves, and the state it enters only on
    the edge.  So if a shortest walk visited a node X twice, the later
    visit's outgoing step would also be allowed from the earlier visit,
    and the walk could be cut short there.  The one exception: the earlier
    visit enters X by head with X outside an+(given), and the later visit
    leaves X to a parent.  But from such a visit every later state is a
    descendant of X entered by head and outside an+(given), which may only
    step to children, so the walk never comes back to X by a tail.  A
    shortest walk is therefore a simple path, and the walk's step rules are
    exactly the path rules: a collider is in an+(given) and no non-collider
    is in ``given``.  This holds in cyclic rolled graphs and with ``cut``.
    """
    children, parents = graph.adjacency
    came_from = {(src, False): None for src in sorted(a)}
    queue = deque(came_from)
    while queue:
        state = queue.popleft()
        node, by_head = state
        if node in b:
            path = []
            while came_from[state] is not None:
                # a state entered by head was reached along a child edge
                path.append(("->" if state[1] else "<-", state[0]))
                state = came_from[state]
            return [state[0]] + path[::-1]
        passes = node not in given
        # a step up to a parent: a collider if entered by a head, else a
        # chain or fork
        up = node in anc_plus if by_head else passes
        nexts = [(n, True) for n in children.get(node, ())] if passes else []
        if up:
            nexts += [(n, False) for n in parents.get(node, ()) if n not in cut]
        for nxt in nexts:
            if nxt not in came_from:
                came_from[nxt] = state
                queue.append(nxt)
    return None


def _first_path(graph, a, b, given, anc_plus, cut=frozenset()):
    """The first connecting simple path from the sorted sources, by
    exhaustive depth-first enumeration that prunes blocked prefixes, or
    None.  ``cut`` is as in :func:`_connecting_path`."""
    children, parents = graph.adjacency

    def rec(node, by_head, on_path, path):
        if node in b:
            return path
        nexts = [("->", n, True) for n in sorted(children.get(node, ()))]
        nexts += [("<-", n, False) for n in sorted(parents.get(node, ()))
                  if n not in cut]
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

    for src in sorted(a):
        found = rec(src, False, {src}, [src])
        if found:
            return found
    return None


def _node_text(node):
    return lagged_name(*node) if isinstance(node, tuple) else str(node)


def format_path(path):
    """``path`` as text; a lagged node ``(name, lag)`` reads ``name@lag``."""
    if path is None:
        return None
    parts = [_node_text(path[0])]
    for op, node in path[1:]:
        parts += [op, _node_text(node)]
    return " ".join(parts)


# -- d-separation on unrolled DAGs ----------------------------------------


def d_separated(dag: UnrolledDag, a, b, c) -> bool:
    """True iff ``a`` and ``b`` are d-separated given ``c`` in the DAG."""
    a, b, c, anc_plus = _setup(dag, a, b, c)
    return _connecting_path(dag, a, b, c, anc_plus) is None


def d_separated_oracle(dag: UnrolledDag, a, b, c) -> bool:
    """Exhaustive simple-path version of :func:`d_separated`."""
    a, b, c, anc_plus = _setup(dag, a, b, c)
    return _first_path(dag, a, b, c, anc_plus) is None


def d_connecting_path(dag: UnrolledDag, a, b, c):
    """A shortest d-connecting path, or None if separated."""
    a, b, c, anc_plus = _setup(dag, a, b, c)
    return _connecting_path(dag, a, b, c, anc_plus)


# -- delta-separation on rolled graphs -------------------------------------


def delta_separated(graph: TailedDirectedGraph, a, b, c) -> bool:
    """True iff ``b`` is delta-separated from ``a`` given ``c``.

    Note the asymmetry: edges out of the target set ``b`` are deleted before
    testing, so the relation is directional.
    """
    a, b, c, anc_plus = _setup(graph, a, b, c)
    _process_target(graph, b)
    return _connecting_path(graph, a, b, c, anc_plus, cut=b) is None


def delta_separated_oracle(graph: TailedDirectedGraph, a, b, c) -> bool:
    if len(graph.nodes) > ORACLE_NODE_BUDGET:
        raise SizeError(f"path-enumeration oracle limited to {ORACLE_NODE_BUDGET} nodes")
    a, b, c, anc_plus = _setup(graph, a, b, c)
    _process_target(graph, b)
    return _first_path(graph, a, b, c, anc_plus, cut=b) is None


def delta_connecting_path(graph: TailedDirectedGraph, a, b, c):
    """A shortest delta-connecting path (in the auxiliary graph), or None."""
    a, b, c, anc_plus = _setup(graph, a, b, c)
    _process_target(graph, b)
    return _connecting_path(graph, a, b, c, anc_plus, cut=b)


# -- Granger non-causality via contemporaneous-effects criterion ----------


@dataclass(frozen=True)
class GrangerResult:
    status: str                 # HOLDS or INCONCLUSIVE
    reason: str
    witness: list | None = None


def granger_noncausal_graphical(graph: TailedDirectedGraph, a, b, c) -> GrangerResult:
    """Sufficient graphical criterion for local independence of the target
    processes ``b`` from ``a`` given ``c`` in a graph with contemporaneous
    effects.

    Returns ``holds`` when the criterion is met and ``inconclusive``
    otherwise; the criterion is one-directional, so a failure never asserts
    dependence.
    """
    a, b, c, _ = _setup(graph, a, b, c)
    _process_target(graph, b, "target")
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
