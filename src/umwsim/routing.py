"""Min-cost route selection: shortest paths, spanning trees, Steiner trees.

Every solver takes the graph plus a nonnegative per-edge weight vector and
finds a route, an out-tree rooted at the source. A ``*_edges`` function
returns it as a key ``(root, edge ids, covered)``, the form of
``RouteTree.cache_key()``, and ``build_route`` orients and validates it
into a RouteTree whose edges carry their hop depth.
Orientation depends on the key alone, so a caller may reuse the tree built
for an equal key. Tie-breaking is fully deterministic so that simulation
runs are reproducible bit-for-bit:

  * shortest paths minimize (cost, hop count, edge-id sequence),
  * spanning trees and arborescences use greedy selection ordered by
    (weight, edge id),
  * Steiner solvers are deterministic by construction.

Zero weights are legal everywhere (queue-length weights start at zero).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapExceededError, DisconnectedError, TopologyError, UnreachableError
from .topology import Graph

STEINER_EXACT_TERMINAL_CAP = 8
STEINER_MODES = ("exact", "approx")

# A solved route before orientation: (root, edge ids, covered nodes).
RouteKey = tuple[int, frozenset[int], frozenset[int]]


class TreeEdge(NamedTuple):
    edge_id: int
    parent: int
    child: int
    depth: int


@dataclass(frozen=True)
class RouteTree:
    """A rooted out-tree of graph edges; the unit a packet is routed along."""

    root: int
    edges: tuple[TreeEdge, ...]
    covered: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "covered", frozenset(self.covered))
        parents = {self.root: None}
        for te in sorted(self.edges, key=lambda te: te.depth):
            if te.child in parents:
                raise TopologyError(f"node {te.child} has two parents in route tree")
            if te.parent not in parents:
                raise TopologyError(f"edge {te.edge_id} dangles from node {te.parent}")
            parents[te.child] = te
            parent_edge = parents[te.parent]
            want = 0 if parent_edge is None else parent_edge.depth + 1
            if te.depth != want:
                raise TopologyError(f"edge {te.edge_id} has depth {te.depth}, expected {want}")
        if not self.covered <= set(parents):
            raise TopologyError("covered destinations outside the tree")

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(te.edge_id for te in self.edges)

    @cached_property
    def nodes(self) -> frozenset[int]:
        out = {self.root}
        out.update(te.child for te in self.edges)
        return frozenset(out)

    @cached_property
    def children_of(self) -> dict[int, tuple[TreeEdge, ...]]:
        """Outgoing tree edges per node, in edge-id order."""
        by_parent: dict[int, list[TreeEdge]] = {}
        for te in self.edges:
            by_parent.setdefault(te.parent, []).append(te)
        return {u: tuple(sorted(tes)) for u, tes in by_parent.items()}

    @cached_property
    def root_edge_ids(self) -> tuple[int, ...]:
        """Ids of the tree edges leaving the root, in edge-id order."""
        return tuple(te.edge_id for te in self.children_of.get(self.root, ()))

    @cached_property
    def next_hops(self) -> dict[int, tuple[int, bool, tuple[int, ...]]]:
        """Forwarding table: per tree edge id, the node a copy reaches by
        crossing it, whether that node is covered, and the ids of the tree
        edges leaving that node, in edge-id order."""
        children = self.children_of
        return {te.edge_id: (te.child, te.child in self.covered,
                             tuple(c.edge_id for c in children.get(te.child, ())))
                for te in self.edges}

    def cache_key(self) -> RouteKey:
        return (self.root, self.edge_ids, self.covered)


def as_weights(w, m: int) -> list:
    """The entry check of every solver. w must be a flat list, tuple or 1-D
    array of m finite nonnegative numbers; it comes back as a list of Python
    numbers (an array through tolist()), which the solvers index."""
    if isinstance(w, np.ndarray):
        if w.ndim != 1:
            raise TopologyError(f"expected {m} edge weights, got shape {w.shape}")
        w = w.tolist()
    elif not isinstance(w, (list, tuple)):
        raise TopologyError(f"edge weights must be a list, tuple or array, got {type(w).__name__}")
    if len(w) != m:
        raise TopologyError(f"expected {m} edge weights, got {len(w)}")
    try:
        negative = bool(w) and min(w) < 0
        # Ints are finite. Other weights are checked one by one: NaN passes
        # the sign test and would leave the solvers' comparisons arbitrary.
        finite = type(sum(w)) is int or all(-math.inf < x < math.inf for x in w)
    except TypeError as exc:
        raise TopologyError("edge weights must be numbers") from exc
    if negative:
        raise TopologyError("edge weights must be nonnegative")
    if not finite:
        raise TopologyError("edge weights must be finite")
    return w if isinstance(w, list) else list(w)


def route_cost(tree: RouteTree, w) -> float:
    """Sum of weights over the tree's edges (each edge counted once)."""
    total = 0
    for te in tree.edges:
        total += w[te.edge_id]
    return total


def orient_tree(g: Graph, edge_ids: Iterable[int], root: int, covered: Iterable[int]) -> RouteTree:
    """Orient an edge set away from root (BFS, neighbors in edge-id order)."""
    remaining = set(edge_ids)
    records: list[TreeEdge] = []
    depth_at = {root: 0}
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for eid, v in g.adjacency[u]:
                if eid in remaining and v not in depth_at:
                    remaining.discard(eid)
                    depth_at[v] = depth_at[u] + 1
                    records.append(TreeEdge(eid, u, v, depth_at[u]))
                    nxt.append(v)
        frontier = nxt
    if remaining:
        raise TopologyError(f"edges {sorted(remaining)} not reachable from root {root}")
    return RouteTree(root, tuple(sorted(records, key=lambda te: (te.depth, te.edge_id))), frozenset(covered))


def build_route(g: Graph, key: RouteKey) -> RouteTree:
    """Orient and validate a solved route given in cache_key() form."""
    root, edge_ids, covered = key
    return orient_tree(g, edge_ids, root, covered)


# ---------------------------------------------------------------------------
# Shortest paths

def _shortest_labels(
    g: Graph, w, source: int, allowed: frozenset[int] | None = None
) -> dict[int, tuple[float, int, tuple[int, ...]]]:
    """Deterministic Dijkstra labels (cost, hops, edge-id sequence) per node.

    The full edge sequence rides in the heap entry, which makes the
    lexicographic tie-break exact; fine at the graph sizes this package
    targets. `allowed` optionally restricts the search to an edge subset.
    """
    labels: dict[int, tuple[float, int, tuple[int, ...]]] = {}
    heap: list[tuple[float, int, tuple[int, ...], int]] = [(0, 0, (), source)]
    while heap:
        cost, hops, seq, v = heapq.heappop(heap)
        if v in labels:
            continue
        labels[v] = (cost, hops, seq)
        for eid, u in g.adjacency[v]:
            if u in labels:
                continue
            if allowed is not None and eid not in allowed:
                continue
            heapq.heappush(heap, (cost + w[eid], hops + 1, seq + (eid,), u))
    return labels


def shortest_path_edges(g: Graph, w, s: int, t: int) -> RouteKey:
    """Min-cost s-t path; ties by fewer hops, then smallest edge-id sequence."""
    w = as_weights(w, g.m)
    if s == t:
        return (s, frozenset(), frozenset({t}))
    labels = _shortest_labels(g, w, s)
    if t not in labels:
        raise UnreachableError(f"node {t} is not reachable from {s}")
    _, _, seq = labels[t]
    return (s, frozenset(seq), frozenset({t}))


def anycast_edges(g: Graph, w, s: int, dests: Iterable[int]) -> RouteKey:
    """Cheapest of the per-destination shortest paths; ties by smaller node id."""
    w = as_weights(w, g.m)
    dests = sorted(set(dests))
    if not dests:
        raise UnreachableError("anycast needs at least one destination")
    if s in dests:
        return (s, frozenset(), frozenset({s}))
    labels = _shortest_labels(g, w, s)
    best = None
    for t in dests:
        if t not in labels:
            continue
        cost, hops, seq = labels[t]
        key = (cost, t)
        if best is None or key < best[0]:
            best = (key, t, seq)
    if best is None:
        raise UnreachableError(f"no anycast destination reachable from {s}")
    _, t, seq = best
    return (s, frozenset(seq), frozenset({t}))


# ---------------------------------------------------------------------------
# Spanning trees and arborescences

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _kruskal(g: Graph, w) -> list[int]:
    order = sorted(range(g.m), key=lambda e: (w[e], e))
    uf = _UnionFind(g.node_count)
    chosen = []
    for e in order:
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(e)
            if len(chosen) == g.node_count - 1:
                break
    return chosen


def _min_arborescence(g: Graph, w, root: int) -> list[int]:
    """Minimum-weight arborescence (recursive cycle contraction).

    Arc selection is ordered by (weight, edge id), which fixes a
    deterministic optimum when weights tie.
    """
    arcs = [(w[e], e, u, v) for e, (u, v) in enumerate(g.edges)]
    n = g.node_count

    def solve(node_ids: list[int], arcs_in: list[tuple], root_id: int) -> list[int]:
        best: dict[int, tuple] = {}
        for arc in arcs_in:
            cost, eid, u, v = arc
            if v == root_id or u == v:
                continue
            cur = best.get(v)
            if cur is None or (cost, eid) < (cur[0], cur[1]):
                best[v] = arc
        for v in node_ids:
            if v != root_id and v not in best:
                raise DisconnectedError(f"node {v} has no incoming arc from root {root_id}")
        # Look for a cycle among the selected arcs.
        cycle = None
        color = {v: 0 for v in node_ids}
        for start in node_ids:
            if color[start] or start == root_id:
                continue
            path = []
            v = start
            while v != root_id and color[v] == 0:
                color[v] = 1
                path.append(v)
                v = best[v][2]
            if v != root_id and color[v] == 1:
                cycle = path[path.index(v):]
                break
            for x in path:
                color[x] = 2
        if cycle is None:
            return [best[v][1] for v in node_ids if v != root_id]

        cycle_set = set(cycle)
        super_id = max(node_ids) + 1
        cycle_cost = {v: best[v][0] for v in cycle}
        new_nodes = [v for v in node_ids if v not in cycle_set] + [super_id]
        new_arcs = []
        entering: dict[int, tuple] = {}
        for arc in arcs_in:
            cost, eid, u, v = arc
            nu = super_id if u in cycle_set else u
            nv = super_id if v in cycle_set else v
            if nu == nv:
                continue
            if nv == super_id:
                new_arcs.append((cost - cycle_cost[v], eid, nu, nv))
                entering[eid] = arc
            else:
                new_arcs.append((cost, eid, nu, nv))
        chosen = solve(new_nodes, new_arcs, root_id if root_id not in cycle_set else super_id)
        chosen_set = set(chosen)
        # Expand: the one chosen arc entering the supernode displaces the
        # cycle arc of the node it lands on; all other cycle arcs stay.
        landed = None
        for eid in chosen:
            if eid in entering:
                landed = entering[eid][3]
                break
        result = list(chosen_set)
        for v in cycle:
            if v != landed:
                result.append(best[v][1])
        return result

    if n == 1:
        return []
    return solve(list(range(n)), arcs, root)


def spanning_edges(g: Graph, w, root: int) -> RouteKey:
    """Min-weight spanning tree (undirected) or arborescence (directed), rooted."""
    w = as_weights(w, g.m)
    if g.directed:
        chosen = _min_arborescence(g, w, root)
        if len(chosen) != g.node_count - 1:
            raise DisconnectedError(f"graph does not span all nodes from {root}")
    else:
        chosen = _kruskal(g, w)
        if len(chosen) != g.node_count - 1:
            raise DisconnectedError("graph is not connected")
    return (root, frozenset(chosen), frozenset(range(g.node_count)))


# ---------------------------------------------------------------------------
# Steiner trees

def _prune_to_terminals(g: Graph, edge_ids: set[int], root: int, keep: set[int]) -> set[int]:
    """Drop leaf branches that serve no kept node, repeatedly."""
    while True:
        degree: dict[int, list[int]] = {}
        for e in edge_ids:
            u, v = g.edges[e]
            degree.setdefault(u, []).append(e)
            degree.setdefault(v, []).append(e)
        removable = [
            (node, es[0])
            for node, es in degree.items()
            if len(es) == 1 and node not in keep and node != root
        ]
        if not removable:
            return edge_ids
        for _, e in removable:
            edge_ids.discard(e)


def _subgraph_sp_tree(g: Graph, w, root: int, edge_ids: set[int], keep: set[int]) -> set[int]:
    """Shortest-path tree of the edge-induced subgraph, pruned to kept nodes.

    The result is a subset of edge_ids, so its cost never exceeds the
    subgraph's; used to turn a connected edge soup into a genuine tree.
    """
    labels = _shortest_labels(g, w, root, allowed=frozenset(edge_ids))
    missing = keep - set(labels)
    if missing:
        raise UnreachableError(f"nodes {sorted(missing)} not reachable inside subgraph")
    tree_edges: set[int] = set()
    for node, (_, _, seq) in labels.items():
        tree_edges.update(seq)
    # Per-node final hop only: the union of label sequences is already a
    # tree because Dijkstra settles each node once, but rebuild defensively.
    return _prune_to_terminals(g, tree_edges, root, keep)


def _steiner_exact(g: Graph, w, root: int, terminals: list[int]) -> set[int]:
    """Terminal-subset dynamic program, then cleanup into a tree's edge set.

    States are (node, terminal subset); a state's value is the optimal cost
    of an out-tree at that node covering the subset. Subset merges seed a
    Dijkstra pass that handles the connect-by-path transitions exactly.
    """
    k = len(terminals)
    full = (1 << k) - 1
    n = g.node_count
    INF = math.inf
    dp = [[INF] * (1 << k) for _ in range(n)]
    choice: list[list[tuple | None]] = [[None] * (1 << k) for _ in range(n)]

    order = sorted(range(1, full + 1), key=lambda s: (bin(s).count("1"), s))
    for mask in order:
        seeds: list[tuple[float, int, tuple]] = []
        bits = [i for i in range(k) if mask >> i & 1]
        if len(bits) == 1:
            t = terminals[bits[0]]
            seeds.append((0, t, ("stop",)))
        else:
            low = mask & (-mask)
            for v in range(n):
                best = None
                sub = (mask - 1) & mask
                while sub:
                    if sub & low:
                        cand = dp[v][sub] + dp[v][mask ^ sub]
                        if best is None or cand < best[0]:
                            best = (cand, sub)
                    sub = (sub - 1) & mask
                if best is not None and best[0] < INF:
                    seeds.append((best[0], v, ("split", best[1])))
        heap = [(cost, v, info) for cost, v, info in seeds]
        heapq.heapify(heap)
        settled: set[int] = set()
        while heap:
            cost, v, info = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            dp[v][mask] = cost
            choice[v][mask] = info
            for eid, u in g.in_adjacency[v]:
                # arc u -> v (or undirected edge): a tree at v extends to u
                if u not in settled:
                    heapq.heappush(heap, (cost + w[eid], u, ("edge", eid, v)))
    if dp[root][full] == INF:
        raise UnreachableError("some terminal is unreachable from the root")

    edge_ids: set[int] = set()

    def collect(v: int, mask: int) -> None:
        info = choice[v][mask]
        if info is None or info[0] == "stop":
            return
        if info[0] == "edge":
            _, eid, nxt = info
            edge_ids.add(eid)
            collect(nxt, mask)
        else:
            _, sub = info
            collect(v, sub)
            collect(v, mask ^ sub)

    collect(root, full)
    keep = set(terminals)
    tree_edges = _subgraph_sp_tree(g, w, root, edge_ids, keep) if edge_ids else set()
    assert sum(w[e] for e in sorted(tree_edges)) - dp[root][full] <= 1e-9  # 0 on int weights
    return tree_edges


def _steiner_approx(g: Graph, w, root: int, terminals: list[int]) -> set[int]:
    """Metric-closure MST expansion (cost <= 2x optimal on undirected graphs)."""
    keep = set(terminals)
    points = [root] + [t for t in sorted(keep) if t != root]
    labels_from = {p: _shortest_labels(g, w, p) for p in points}
    for t in keep:
        if t not in labels_from[root]:
            raise UnreachableError(f"terminal {t} is not reachable from {root}")
    # The closure's MST, or its arborescence from the root when directed
    # (admissible, but without the 2x bound). Closure edge ids follow the
    # (i, j) pair order, which fixes the tie-break among equal-cost pairs.
    k = len(points)
    closure = Graph(
        k,
        tuple(
            (i, j) for i in range(k) for j in range(k)
            if (i != j if g.directed else i < j) and points[j] in labels_from[points[i]]
        ),
        directed=g.directed,
    )
    cw = [labels_from[points[u]][points[v]][0] for u, v in closure.edges]
    chosen = _min_arborescence(closure, cw, 0) if g.directed else _kruskal(closure, cw)
    edge_ids: set[int] = set()
    for e in chosen:
        u, v = closure.edges[e]
        edge_ids.update(labels_from[points[u]][points[v]][2])
    return _subgraph_sp_tree(g, w, root, edge_ids, keep) if edge_ids else set()


def steiner_edges(g: Graph, w, root: int, terminals: Iterable[int], mode: str = "exact") -> RouteKey:
    """Min-weight tree rooted at root covering the terminals.

    mode="exact" solves the problem optimally (terminal count capped);
    mode="approx" builds the classic metric-closure 2-approximation.
    """
    w = as_weights(w, g.m)
    covered = frozenset(terminals) or frozenset({root})
    terms = sorted(covered - {root})
    if not terms:
        return (root, frozenset(), covered)
    if mode == "exact":
        if len(terms) > STEINER_EXACT_TERMINAL_CAP:
            raise CapExceededError("exact Steiner terminals", len(terms), STEINER_EXACT_TERMINAL_CAP)
        edge_ids = _steiner_exact(g, w, root, terms)
    elif mode == "approx":
        edge_ids = _steiner_approx(g, w, root, terms)
    else:
        raise TopologyError(f"unknown Steiner mode {mode!r}")
    return (root, frozenset(edge_ids), covered)
