"""Min-cost route selection: shortest paths, spanning trees, Steiner trees.

Every solver takes the graph plus a list of nonnegative integer edge
weights and finds a route, an out-tree rooted at the source, as a
``RouteKey`` ``(root, edge ids, covered)``; ``orient_tree`` turns its
parts into a validated RouteTree whose edges carry their hop depth. The
solvers are private: ``policy.solve_route`` is the one public way to solve
a route, and it checks the weights with ``as_weights`` first. Orientation
depends on the key alone, so a caller may reuse the tree built for an
equal key. Integer weights keep every cost exact, and tie-breaking is
fully deterministic, so simulation runs are reproducible bit-for-bit:

  * shortest paths minimize (cost, hop count, edge-id sequence),
  * spanning trees and arborescences use greedy selection ordered by
    (weight, edge id),
  * Steiner solvers are deterministic by construction.

Each search stops once its answer is final: Dijkstra once the nodes the
route needs are settled (a settled label never changes), and the
arborescence's cheapest in-arcs are returned without a cycle search on a
digraph with no directed cycle (``Graph.acyclic``), where they cannot close
one. The routes are those of a search run to the end.

Zero weights are legal everywhere (queue-length weights start at zero).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, NamedTuple

import numpy as np

from .errors import CapExceededError, DisconnectedError, TopologyError, UnreachableError
from .topology import Graph

STEINER_EXACT_TERMINAL_CAP = 8
STEINER_MODES = ("exact", "approx")

_INT_TYPE = frozenset({int})

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
    def covered_mask(self) -> int:
        """The covered nodes as a bitmask: bit v set for each covered v."""
        return sum(1 << v for v in self.covered)

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


def as_weights(w, m: int) -> list[int]:
    """The weight check of ``policy.solve_route``. w must be a flat list,
    tuple or 1-D array of m nonnegative ints; it comes back as a list of
    Python ints (an array through tolist()), which the solvers index."""
    if not isinstance(w, list):
        if isinstance(w, np.ndarray):
            if w.ndim != 1:
                raise TopologyError(f"expected {m} edge weights, got shape {w.shape}")
            w = w.tolist()
        elif isinstance(w, tuple):
            w = list(w)
        else:
            raise TopologyError(f"edge weights must be a list, tuple or array, got {type(w).__name__}")
    if len(w) != m:
        raise TopologyError(f"expected {m} edge weights, got {len(w)}")
    if not set(map(type, w)) <= _INT_TYPE:  # bools too are not weights
        bad = next(x for x in w if type(x) is not int)
        raise TopologyError(f"edge weights must be integers, got {bad!r}")
    if w and min(w) < 0:
        raise TopologyError("edge weights must be nonnegative")
    return w


def route_cost(tree: RouteTree, w) -> int:
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


# ---------------------------------------------------------------------------
# Shortest paths

def _shortest_labels(
    g: Graph, w, source: int, targets: Collection[int], allowed: frozenset[int] | None = None
) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """Deterministic Dijkstra labels (cost, hops, edge-id sequence) per node,
    settled until every node in targets (distinct nodes) has its label.

    The full edge sequence rides in the heap entry, which makes the
    lexicographic tie-break exact; fine at the graph sizes this package
    targets. Weights are nonnegative and every edge adds a hop, so a popped
    label is final: it equals the label a run to exhaustion gives, and the
    search stops once the targets are labelled. A target that is missing
    from the result is unreachable. `allowed` optionally restricts the
    search to an edge subset.
    """
    labels: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    left = len(targets)
    heap: list[tuple[int, int, tuple[int, ...], int]] = [(0, 0, (), source)]
    while heap:
        cost, hops, seq, v = heapq.heappop(heap)
        if v in labels:
            continue
        labels[v] = (cost, hops, seq)
        if v in targets:
            left -= 1
            if not left:
                break
        for eid, u in g.adjacency[v]:
            if u in labels:
                continue
            if allowed is not None and eid not in allowed:
                continue
            heapq.heappush(heap, (cost + w[eid], hops + 1, seq + (eid,), u))
    return labels


def _shortest_path(g: Graph, w: list, s: int, t: int) -> RouteKey:
    """Min-cost s-t path; ties by fewer hops, then smallest edge-id sequence."""
    if s == t:
        return (s, frozenset(), frozenset({t}))
    labels = _shortest_labels(g, w, s, (t,))
    if t not in labels:
        raise UnreachableError(f"node {t} is not reachable from {s}")
    _, _, seq = labels[t]
    return (s, frozenset(seq), frozenset({t}))


def _anycast(g: Graph, w: list, s: int, dests: Iterable[int]) -> RouteKey:
    """Cheapest of the per-destination shortest paths; ties by smaller node id."""
    dests = sorted(set(dests))
    if not dests:
        raise UnreachableError("anycast needs at least one destination")
    if s in dests:
        return (s, frozenset(), frozenset({s}))
    labels = _shortest_labels(g, w, s, dests)
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
    # The sort is stable, so edges of equal weight keep their id order.
    order = sorted(range(g.m), key=w.__getitem__)
    uf = _UnionFind(g.node_count)
    chosen = []
    for e in order:
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(e)
            if len(chosen) == g.node_count - 1:
                break
    return chosen


def _find_cycle(nodes: Iterable[int], tail: list[int], root: int) -> list[int] | None:
    """The first cycle the picks close, or None: from each node in turn,
    follow tail[] toward the root; a walk that meets itself lists the cycle
    from the node where it closed, along the picks."""
    walked = [0] * len(tail)
    walked[root] = -1
    for start in nodes:
        v = start
        while not walked[v]:
            walked[v] = start + 1
            v = tail[v]
        if walked[v] == start + 1:
            cycle = [v]
            u = tail[v]
            while u != v:
                cycle.append(u)
                u = tail[u]
            return cycle
    return None


def _contract(node_ids: list[int], arcs_in: list[tuple], root_id: int, cycle: list[tuple]) -> list[int]:
    """Minimum-weight arborescence by recursive cycle contraction. Arcs are
    (weight, edge id, tail, head) tuples, and cycle lists the cheapest
    in-arcs of the nodes on a cycle that those in-arcs close.

    The cycle becomes one node, and an arc into it costs its excess over
    the cycle arc it would displace. The pass that builds the contracted
    graph also picks its cheapest in-arcs; picks with another cycle recurse.
    """
    cycle_cost = {v: cost for cost, _, _, v in cycle}
    super_id = max(node_ids) + 1
    new_nodes = [v for v in node_ids if v not in cycle_cost] + [super_id]
    new_arcs = []
    lands_on: dict[int, int] = {}
    best: dict[int, tuple] = {}
    for cost, eid, u, v in arcs_in:
        if u in cycle_cost:
            if v in cycle_cost:
                continue
            u = super_id
        if v in cycle_cost:
            lands_on[eid] = v
            cost -= cycle_cost[v]
            v = super_id
        arc = (cost, eid, u, v)
        new_arcs.append(arc)
        # Edge ids differ, so (weight, edge id) decides the comparison.
        if v != root_id and (v not in best or arc < best[v]):
            best[v] = arc
    tail = [root_id] * (super_id + 1)
    for v in new_nodes:
        if v != root_id:
            if v not in best:
                raise DisconnectedError(f"node {v} has no incoming arc from root {root_id}")
            tail[v] = best[v][2]
    inner = _find_cycle(new_nodes, tail, root_id)
    if inner is None:
        chosen = [arc[1] for arc in best.values()]
    else:
        chosen = _contract(new_nodes, new_arcs, root_id, [best[v] for v in inner])
    # Expand: the one chosen arc entering the supernode displaces the
    # cycle arc of the node it lands on; all other cycle arcs stay.
    landed = next(lands_on[eid] for eid in chosen if eid in lands_on)
    return chosen + [eid for _, eid, _, v in cycle if v != landed]


def _min_arborescence(g: Graph, w, root: int) -> list[int]:
    """Minimum-weight arborescence (Chu-Liu/Edmonds).

    Every non-root node picks its cheapest in-arc, ordered by (weight, edge
    id), which fixes a deterministic optimum when weights tie. Picks that
    close no cycle are the optimum and come back at once, which on a graph
    with no directed cycle needs no search; otherwise cycle contraction
    takes over from the picks and the cycle they close.
    """
    n = g.node_count
    picks = []
    tail = [root] * n
    for v, arcs in enumerate(g.in_adjacency):
        if v == root:
            continue
        best = None
        for e, u in arcs:  # edge-id order, so a strict < keeps the smaller id
            if best is None or w[e] < cost:
                best, cost, tail[v] = e, w[e], u
        if best is None:
            raise DisconnectedError(f"node {v} has no incoming arc from root {root}")
        picks.append(best)
    if g.acyclic:
        return picks
    cycle = _find_cycle(range(n), tail, root)
    if cycle is None:
        return picks
    pick_of = dict(zip([v for v in range(n) if v != root], picks))
    arcs = [(w[e], e, u, v) for e, (u, v) in enumerate(g.edges)]
    return _contract(list(range(n)), arcs, root, [arcs[pick_of[v]] for v in cycle])


def _spanning(g: Graph, w: list, root: int) -> RouteKey:
    """Min-weight spanning tree (undirected) or arborescence (directed), rooted."""
    if g.directed:
        chosen = _min_arborescence(g, w, root)
        if len(chosen) != g.node_count - 1:
            raise DisconnectedError(f"graph does not span all nodes from {root}")
    else:
        chosen = _kruskal(g, w)
        if len(chosen) != g.node_count - 1:
            raise DisconnectedError("graph is not connected")
    return (root, frozenset(chosen), g.node_set)



# ---------------------------------------------------------------------------
# Steiner trees

def _subgraph_sp_tree(g: Graph, w, root: int, edge_ids: set[int], keep: set[int]) -> set[int]:
    """Shortest-path tree of the edge-induced subgraph, pruned to kept nodes.

    The result is a subset of edge_ids, so its cost never exceeds the
    subgraph's; used to turn a connected edge soup into a genuine tree.
    A label's edge sequence extends the label of the node before its last
    edge, so the union of the kept nodes' sequences is the shortest-path
    tree with every branch that reaches no kept node cut off.
    """
    labels = _shortest_labels(g, w, root, keep, allowed=frozenset(edge_ids))
    missing = keep - set(labels)
    if missing:
        raise UnreachableError(f"nodes {sorted(missing)} not reachable inside subgraph")
    tree_edges: set[int] = set()
    for node in keep:
        tree_edges.update(labels[node][2])
    return tree_edges


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
        seeds: list[tuple[int, int, tuple]] = []
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
    cost = sum(w[e] for e in tree_edges)
    if cost != dp[root][full]:
        raise RuntimeError(f"Steiner cleanup cost {cost} differs from the optimum {dp[root][full]}")
    return tree_edges


def _steiner_approx(g: Graph, w, root: int, terminals: list[int]) -> set[int]:
    """Metric-closure MST expansion (cost <= 2x optimal on undirected graphs)."""
    keep = set(terminals)
    points = [root] + [t for t in sorted(keep) if t != root]
    labels_from = {p: _shortest_labels(g, w, p, points) for p in points}
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


def _steiner(g: Graph, w: list, root: int, terminals: Iterable[int], mode: str) -> RouteKey:
    """Min-weight tree rooted at root covering the terminals.

    mode="exact" solves the problem optimally (terminal count capped);
    mode="approx" builds the classic metric-closure 2-approximation
    (solve_route has checked the mode).
    """
    covered = frozenset(terminals) or frozenset({root})
    terms = sorted(covered - {root})
    if not terms:
        return (root, frozenset(), covered)
    if mode == "exact":
        if len(terms) > STEINER_EXACT_TERMINAL_CAP:
            raise CapExceededError("exact Steiner terminals", len(terms), STEINER_EXACT_TERMINAL_CAP)
        edge_ids = _steiner_exact(g, w, root, terms)
    else:
        edge_ids = _steiner_approx(g, w, root, terms)
    return (root, frozenset(edge_ids), covered)
