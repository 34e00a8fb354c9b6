"""Process-level graphs with optional contemporaneous ("tailed") edges and
variable-level DAGs over lagged node copies.

A rolled graph has one node per coordinate process or baseline variable.  A
directed edge i -> j means lagged influence only; a tailed edge i o-> j means
the influence may also be contemporaneous.  The unrolled counterpart is a DAG
whose nodes are (name, lag) pairs.

Graphs are immutable after construction; all queries are pure functions.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (GraphError, ParseError, QueryError, UnknownNodeError,
                     check_count)

log = logging.getLogger(__name__)

Edge = tuple[str, str]


def _adjacency(edges):
    """(children, parents) of ``edges``: node -> set of direct successors
    and node -> set of direct predecessors."""
    children: dict = {}
    parents: dict = {}
    for a, b in edges:
        children.setdefault(a, set()).add(b)
        parents.setdefault(b, set()).add(a)
    return children, parents


def topological_order(nodes, edges, key=None):
    """Kahn's sort of ``nodes`` under ``edges``.  Among the nodes ready at a
    step, the least by ``key`` comes first.  Nodes on a cycle, or
    downstream of one, are left out."""
    key = key or (lambda n: n)
    children, parents = _adjacency(edges)
    indeg = {n: len(parents.get(n, ())) for n in nodes}
    ready = [(key(n), n) for n in nodes if not indeg[n]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, n = heapq.heappop(ready)
        order.append(n)
        for c in children.get(n, ()):
            indeg[c] -= 1
            if not indeg[c]:
                heapq.heappush(ready, (key(c), c))
    return order


def _closure(targets, parent_map):
    """Transitive closure of ``parent_map`` (node -> set of direct sources)
    starting from ``targets``.  Returns everything reachable against edge
    direction, including any target reachable from another target."""
    seen = set()
    stack = list(targets)
    while stack:
        node = stack.pop()
        for src in parent_map.get(node, ()):
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


class _Graph:
    """What rolled graphs and unrolled DAGs share.  A subclass gives
    ``nodes`` and ``all_edges``; the parent/child maps, the node-name check
    and the ancestor closure read only those two."""

    @cached_property
    def adjacency(self):
        """(children, parents) over all edges, built once per graph, each
        neighbour set a sorted tuple: a walk that takes neighbours in this
        order breaks its ties by node order, not by the hash seed."""
        return tuple({n: tuple(sorted(s)) for n, s in m.items()}
                     for m in _adjacency(self.all_edges))

    def _check_known(self, names):
        unknown = set(names) - self.nodes
        if unknown:
            raise UnknownNodeError(f"unknown node names: {sorted(unknown)}")

    def ancestors(self, target):
        """an(target) over all edges."""
        target = set(target)
        self._check_known(target)
        return _closure(target, self.adjacency[1])


@dataclass(frozen=True)
class TailedDirectedGraph(_Graph):
    """Rolled graph: directed + tailed directed edges over named nodes.

    ``baseline`` is the subset of node names representing baseline variables;
    the rest are process nodes.
    """

    nodes: frozenset[str]
    baseline: frozenset[str]
    directed: frozenset[Edge]
    tailed: frozenset[Edge]

    @classmethod
    def build(cls, nodes, baseline=(), directed=(), tailed=()):
        nodes = frozenset(nodes)
        baseline = frozenset(baseline)
        directed = set(map(tuple, directed))
        tailed = set(map(tuple, tailed))
        if not baseline <= nodes:
            raise GraphError(f"baseline names not among nodes: {sorted(baseline - nodes)}")
        for (a, b) in directed | tailed:
            for name in (a, b):
                if name not in nodes:
                    raise UnknownNodeError(f"edge endpoint {name!r} is not a declared node")
        overlap = directed & tailed
        if overlap:
            raise GraphError(f"edges both plain and tailed: {sorted(overlap)}")
        loops = {(a, b) for (a, b) in directed | tailed if a == b}
        if loops:
            # A process's dependence on its own past is implicit in rolled
            # graphs; unrolling re-introduces the same-process lag edges.
            log.info("dropping self-loops on construction: %s", sorted(a for a, _ in loops))
            directed -= loops
            tailed -= loops
        for (a, b) in directed:
            if b in baseline:
                raise GraphError(f"plain directed edge into baseline node {b!r}: {a}->{b}")
        for (a, b) in tailed:
            if b in baseline and a not in baseline:
                raise GraphError(f"edge into baseline node {b!r} from process node {a!r}")
        return cls(nodes, baseline, frozenset(directed), frozenset(tailed))

    # -- basic structure -------------------------------------------------

    @property
    def process_nodes(self) -> frozenset[str]:
        return self.nodes - self.baseline

    @property
    def all_edges(self) -> frozenset[Edge]:
        """Directed and tailed edges together (the edge set of D-minus)."""
        return self.directed | self.tailed

    def sorted_nodes(self):
        return sorted(self.nodes)

    # -- queries ---------------------------------------------------------

    def descendants(self, source):
        source = set(source)
        self._check_known(source)
        return _closure(source, self.adjacency[0])

    def tailed_ancestors(self, target):
        """Nodes with a directed path of tailed edges into ``target``;
        by convention the result never contains target nodes themselves."""
        target = set(target)
        self._check_known(target)
        return _closure(target, _adjacency(self.tailed)[1]) - target

    def tailed_ancestors_process(self, target):
        """Tailed ancestors restricted to process nodes."""
        return self.tailed_ancestors(target) & self.process_nodes

    def strip_tails(self) -> "TailedDirectedGraph":
        """Forget the contemporaneous annotation: every tailed edge becomes a
        plain directed edge.  Idempotent."""
        if not self.tailed:
            return self
        # Tailed baseline->baseline edges become plain directed edges into
        # baseline nodes; bypass the constructor check for this internal form.
        return TailedDirectedGraph(self.nodes, self.baseline,
                                   self.directed | self.tailed, frozenset())

    def remove_edges_out_of(self, sources) -> "TailedDirectedGraph":
        """Auxiliary graph with all directed edges starting in ``sources``
        deleted.  Apply to a stripped graph when testing delta-separation."""
        sources = set(sources)
        self._check_known(sources)
        return TailedDirectedGraph(
            self.nodes, self.baseline,
            frozenset((a, b) for a, b in self.directed if a not in sources),
            frozenset((a, b) for a, b in self.tailed if a not in sources),
        )

    def tailed_subgraph_is_acyclic(self) -> bool:
        """True if the tailed edges alone form an acyclic graph."""
        return len(topological_order(self.nodes, self.tailed)) == len(self.nodes)


def find_tailed_cycle(graph: TailedDirectedGraph):
    """Return one cycle in the tailed subgraph as a closed list of node
    names (first == last), or None.

    Every node Kahn's sort leaves out has a parent it also left out, so
    stepping to such parents from any of them must repeat a node."""
    leftover = graph.nodes - set(topological_order(graph.nodes, graph.tailed))
    if not leftover:
        return None
    parents = _adjacency(graph.tailed)[1]
    node = min(leftover)
    walked = []
    while node not in walked:
        walked.append(node)
        node = min(parents[node] & leftover)
    cycle = walked[walked.index(node):] + [node]
    return cycle[::-1]


LaggedNode = tuple[str, int]


def check_lag_count(value, what):
    """Raise a GraphError unless ``value`` is an integer >= 1."""
    check_count(value, what, 1, GraphError)


@dataclass(frozen=True)
class UnrolledDag(_Graph):
    """Variable-level DAG on (name, lag) copies of each process, with
    baseline variables present at lag 0 only."""

    lag_count: int
    process_names: frozenset[str]
    baseline_names: frozenset[str]
    edges: frozenset[tuple[LaggedNode, LaggedNode]]

    @classmethod
    def build(cls, lag_count, process_names, baseline_names, edges):
        """The DAG on ``edges`` from outside, checked as given (nothing is
        coerced): each endpoint is a lagged node, no edge goes back in time
        and none closes a cycle.  ``unroll`` makes such edges and skips it."""
        check_lag_count(lag_count, "lag_count")
        process_names = frozenset(process_names)
        baseline_names = frozenset(baseline_names)
        if process_names & baseline_names:
            raise GraphError("process and baseline name sets overlap")
        obj = cls(lag_count, process_names, baseline_names, frozenset(edges))
        for (src, dst) in obj.edges:
            for nd in (src, dst):
                if nd not in obj.nodes:
                    raise GraphError(f"edge endpoint {nd} not a valid lagged node")
            if src[1] > dst[1]:
                raise GraphError(f"edge goes backwards in time: {src} -> {dst}")
            if src == dst:
                raise GraphError(f"self-loop {src}")
        # no edge goes back in time, so every cycle stays within one lag
        same_lag = [(src, dst) for src, dst in obj.edges if src[1] == dst[1]]
        if len(topological_order(obj.nodes, same_lag)) < len(obj.nodes):
            raise GraphError("unrolled graph contains a directed cycle")
        return obj

    @cached_property
    def nodes(self) -> frozenset[LaggedNode]:
        """Every lagged node, built once per DAG."""
        nodes = {(name, t) for name in self.process_names for t in range(self.lag_count + 1)}
        nodes |= {(name, 0) for name in self.baseline_names}
        return frozenset(nodes)

    @property
    def all_edges(self):
        """The lagged edges, under the name the shared graph code reads."""
        return self.edges

    def node_set(self) -> frozenset[LaggedNode]:
        return self.nodes

    def sorted_nodes(self):
        return sorted(self.nodes, key=lambda nd: (nd[1], nd[0]))

    def restrict_lags(self, max_lag) -> "UnrolledDag":
        """Subgraph on lags 0..max_lag."""
        if not 1 <= max_lag <= self.lag_count:
            raise GraphError(f"max_lag must be in 1..{self.lag_count}")
        return UnrolledDag(
            max_lag, self.process_names, self.baseline_names,
            frozenset(e for e in self.edges if e[0][1] <= max_lag and e[1][1] <= max_lag),
        )


# -- graph DSL ("\.lig" files) -------------------------------------------


@dataclass
class GraphSpecFile:
    """Parsed DSL file: the graph plus role/latent annotations."""

    graph: TailedDirectedGraph
    latent: frozenset[str] = frozenset()
    roles: dict[str, list[str]] = field(default_factory=dict)


# a node so named would change how the statements naming it parse
_KEYWORDS = frozenset({"node", "unobserved", "role", "->", "o->"})


def parse_lig(text: str) -> GraphSpecFile:
    """Parse the graph DSL.  One statement per line; '#' starts a comment.

    Statements::

        node <name> [baseline]
        <a> -> <b>
        <a> o-> <b>
        unobserved <name>
        role <role-name> <node>
    """
    nodes: dict[str, None] = {}  # in file order, with O(1) lookups
    baseline: set[str] = set()
    directed: list[Edge] = []
    tailed: list[Edge] = []
    latent: set[str] = set()
    roles: dict[str, list[str]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) == 2:
                name = tokens[1]
            elif len(tokens) == 3 and tokens[2] == "baseline":
                name = tokens[1]
                baseline.add(name)
            else:
                raise ParseError(f"bad node statement: {line!r}", lineno)
            if name in _KEYWORDS:
                raise ParseError(f"node name {name!r} is a keyword or edge operator", lineno)
            if name in nodes:
                raise ParseError(f"duplicate node name {name!r}", lineno)
            nodes[name] = None
        elif tokens[0] == "unobserved":
            if len(tokens) != 2:
                raise ParseError(f"bad unobserved statement: {line!r}", lineno)
            if tokens[1] not in nodes:
                raise ParseError(f"unobserved names unknown node {tokens[1]!r}", lineno)
            latent.add(tokens[1])
        elif tokens[0] == "role":
            if len(tokens) != 3:
                raise ParseError(f"bad role statement: {line!r}", lineno)
            if tokens[2] not in nodes:
                raise ParseError(f"role names unknown node {tokens[2]!r}", lineno)
            roles.setdefault(tokens[1], []).append(tokens[2])
        elif len(tokens) == 3 and tokens[1] in ("->", "o->"):
            a, op, b = tokens
            for name in (a, b):
                if name not in nodes:
                    raise ParseError(f"edge references undeclared node {name!r}", lineno)
            (directed if op == "->" else tailed).append((a, b))
        else:
            raise ParseError(f"unrecognized statement: {tokens[0]!r}", lineno)

    try:
        graph = TailedDirectedGraph.build(nodes, baseline, directed, tailed)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    return GraphSpecFile(graph=graph, latent=frozenset(latent), roles=roles)


def format_lig(graph: TailedDirectedGraph, latent=(), roles=None) -> str:
    """Serialize a graph back to DSL text (deterministic ordering)."""
    lines = []
    for name in graph.sorted_nodes():
        lines.append(f"node {name} baseline" if name in graph.baseline else f"node {name}")
    for a, b in sorted(graph.directed):
        lines.append(f"{a} -> {b}")
    for a, b in sorted(graph.tailed):
        lines.append(f"{a} o-> {b}")
    for name in sorted(latent):
        lines.append(f"unobserved {name}")
    for role in sorted(roles or {}):
        for name in sorted((roles or {})[role]):
            lines.append(f"role {role} {name}")
    return "\n".join(lines) + "\n"


def lagged_name(name: str, lag: int) -> str:
    return f"{name}@{lag}"


def _split_lagged(name: str) -> tuple[str, int]:
    """Inverse of :func:`lagged_name`: ``'name@lag'`` -> ``(name, lag)``."""
    base, sep, lag = name.rpartition("@")
    if not sep:
        raise QueryError(f"variable {name!r} is not of the form 'name@lag'")
    try:
        return base, int(lag)
    except ValueError:
        raise QueryError(f"variable {name!r} has a non-integer lag") from None


def format_unrolled_lig(dag: UnrolledDag) -> str:
    """Serialize an unrolled DAG in the same DSL with '<name>@<lag>' nodes."""
    lines = []
    for (name, lag) in dag.sorted_nodes():
        kind = " baseline" if name in dag.baseline_names else ""
        lines.append(f"node {lagged_name(name, lag)}{kind}")
    for (a, b) in sorted(dag.edges, key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0])):
        lines.append(f"{lagged_name(*a)} -> {lagged_name(*b)}")
    return "\n".join(lines) + "\n"
