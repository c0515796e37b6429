"""Network topology: graphs, interference activation sets, builtin testbeds.

A Graph is immutable once built; edge ids are the 0-based positions in the
edge list. An ActivationSet lists which edge subsets may transmit in the
same slot: "wired" means every edge at once, "primary_interference"
materializes all maximal matchings, "explicit" is a user-supplied list.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapExceededError, TopologyError
from .traffic import TrafficClass, _is_int

ACTIVATION_KINDS = ("wired", "primary_interference", "explicit")

MATCHING_ENUMERATION_CAP = 24


@dataclass(frozen=True)
class Graph:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __post_init__(self):
        n = self.node_count
        if not (_is_int(n) and n >= 1):
            raise TopologyError(f"node_count must be an integer >= 1, got {n!r}")
        if not isinstance(self.directed, bool):
            raise TopologyError(f"directed must be true or false, got {self.directed!r}")
        if not isinstance(self.edges, (tuple, list)):
            raise TopologyError(f"edges must be a list of node pairs, got {self.edges!r}")
        seen = set()
        for eid, edge in enumerate(self.edges):
            if not (isinstance(edge, (tuple, list)) and len(edge) == 2
                    and all(_is_int(x) and 0 <= x < n for x in edge)):
                raise TopologyError(f"edges[{eid}] must be a pair of integers in 0..{n - 1}, got {edge!r}")
            u, v = edge
            if u == v:
                raise TopologyError(f"edges[{eid}] is a self-loop at node {u}")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise TopologyError(f"edges[{eid}] duplicates edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def node_set(self) -> frozenset[int]:
        """All node ids, as one shared set (a spanning route's covered set)."""
        return frozenset(range(self.node_count))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, the outgoing (edge_id, neighbor) pairs sorted by edge id."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((eid, v))
            if not self.directed:
                adj[v].append((eid, u))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, the incoming (edge_id, tail) pairs; equals adjacency when undirected."""
        if not self.directed:
            return self.adjacency
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for eid, (u, v) in enumerate(self.edges):
            adj[v].append((eid, u))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def acyclic(self) -> bool:
        """Whether the graph is directed with no directed cycle (an
        undirected edge is a cycle both ways): repeatedly removing the
        nodes that no remaining arc enters removes every node."""
        if not self.directed:
            return False
        indegree = [len(arcs) for arcs in self.in_adjacency]
        sources = [v for v, d in enumerate(indegree) if not d]
        removed = 0
        while sources:
            v = sources.pop()
            removed += 1
            for _, u in self.adjacency[v]:
                indegree[u] -= 1
                if not indegree[u]:
                    sources.append(u)
        return removed == self.node_count


@dataclass(frozen=True)
class ActivationVector:
    """The edge subset scheduled to transmit this slot."""

    active: frozenset[int]
    edge_count: int

    def __post_init__(self):
        object.__setattr__(self, "active", frozenset(self.active))
        if not all(_is_int(e) and 0 <= e < self.edge_count for e in self.active):
            raise TopologyError("active edge id out of range")

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        """The active edge ids in increasing order, the order in which the
        physical network crosses them (a frozenset iterates in hash order)."""
        return tuple(sorted(self.active))

    @cached_property
    def service(self) -> tuple[int, ...]:
        """0/1 service per edge, length m; a tuple, since vectors are shared."""
        return tuple(int(e in self.active) for e in range(self.edge_count))


@dataclass(frozen=True)
class ActivationSet:
    """The admissible simultaneous-transmission edge subsets.

    members is None for kind="wired" (the full edge set, kept symbolic).
    For "primary_interference" members are all maximal matchings in
    canonical (lexicographic) order; for "explicit" the given order is
    preserved because ties in the max-weight scan break by member index.
    """

    kind: str
    edge_count: int
    members: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise TopologyError(f"kind must be one of {ACTIVATION_KINDS}, got {self.kind!r}")
        if self.kind == "wired":
            if self.members is not None:
                raise TopologyError(f"members must be left out of wired activation, got {self.members!r}")
            return
        if not (isinstance(self.members, (tuple, list)) and self.members):
            raise TopologyError(f"members must list at least one {self.kind} edge set, got {self.members!r}")
        for i, s in enumerate(self.members):
            if not (isinstance(s, (frozenset, set, tuple, list))
                    and all(_is_int(e) and 0 <= e < self.edge_count for e in s)):
                raise TopologyError(f"members[{i}] must be a set of edge ids in 0..{self.edge_count - 1}, got {s!r}")
        object.__setattr__(self, "members", tuple(map(frozenset, self.members)))

    @cached_property
    def member_matrix(self) -> np.ndarray:
        """0/1 matrix (n_members, m) for vectorized member-weight scans; int64,
        the dtype of the queue weights, so a scan casts nothing."""
        if self.kind == "wired":
            raise TopologyError("wired activation has no materialized members")
        mat = np.zeros((len(self.members), self.edge_count), dtype=np.int64)
        for i, s in enumerate(self.members):
            for e in s:
                mat[i, e] = 1
        return mat

    @cached_property
    def vectors(self) -> tuple[ActivationVector, ...]:
        """One ActivationVector per member, in member order; the single
        full edge set for wired. Built on first use and then shared."""
        if self.kind == "wired":
            return (ActivationVector(frozenset(range(self.edge_count)), self.edge_count),)
        return tuple(ActivationVector(s, self.edge_count) for s in self.members)


def validate_activation(aset: ActivationSet, g: Graph) -> None:
    """Check an activation set against its graph (sizes, matching property)."""
    if aset.edge_count != g.m:
        raise TopologyError("activation edge count does not match the graph")
    if aset.kind != "primary_interference":
        return
    for s in aset.members:
        nodes: set[int] = set()
        for e in s:
            u, v = g.edges[e]
            if u in nodes or v in nodes:
                raise TopologyError(f"member {sorted(s)} is not a matching")
            nodes.update((u, v))


def enumerate_matchings(g: Graph) -> ActivationSet:
    """All maximal matchings, as a primary-interference activation set.

    Node exclusivity ignores link direction, so directed graphs are matched
    on their underlying endpoints. Non-maximal matchings are dominated under
    nonnegative weights, so restricting to maximal ones loses no max-weight
    argmax.
    """
    if g.m > MATCHING_ENUMERATION_CAP:
        raise CapExceededError("maximal matching enumeration", g.m, MATCHING_ENUMERATION_CAP)

    edges = g.edges
    m = g.m
    found: set[frozenset[int]] = set()

    def extend(chosen: list[int], used: set[int]) -> None:
        pivot = None
        for e in range(m):
            u, v = edges[e]
            if u not in used and v not in used:
                pivot = e
                break
        if pivot is None:
            found.add(frozenset(chosen))
            return
        pu, pv = edges[pivot]
        # Any maximal matching either contains the pivot edge or covers one
        # of its endpoints with another edge; branch over those choices.
        for f in range(m):
            a, b = edges[f]
            if a in used or b in used:
                continue
            if f != pivot and a != pu and b != pu and a != pv and b != pv:
                continue
            chosen.append(f)
            used.update((a, b))
            extend(chosen, used)
            chosen.pop()
            used.difference_update((a, b))

    if m == 0:
        found.add(frozenset())
    else:
        extend([], set())
    members = tuple(sorted(found, key=lambda s: tuple(sorted(s))))
    aset = ActivationSet("primary_interference", m, members)
    validate_activation(aset, g)
    return aset


# ---------------------------------------------------------------------------
# Topology file format (JSON; edge ids are positions in the edges array)

def save_topology(g: Graph, path: str | Path, activation: ActivationSet | None = None) -> None:
    doc: dict = {
        "directed": g.directed,
        "nodes": g.node_count,
        "edges": [[u, v] for u, v in g.edges],
    }
    if activation is not None:
        act: dict = {"kind": activation.kind}
        if activation.members is not None:
            act["members"] = [sorted(s) for s in activation.members]
        doc["activation"] = act
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# The keys a topology file may hold, and those of its activation block.
_FILE_KEYS = ("nodes", "edges", "directed", "activation")
_ACTIVATION_KEYS = ("kind", "members")


def _unknown_keys(path: str | Path, doc: dict, known: tuple[str, ...], prefix: str = "") -> None:
    unknown = sorted(repr(prefix + str(k)) for k in doc if k not in known)
    if unknown:
        raise TopologyError(f"{path}: unknown topology key(s): {', '.join(unknown)}")


def load_topology(path: str | Path) -> tuple[Graph, ActivationSet]:
    """Read and validate a topology file once: the graph, with edge ids in
    file order, and its activation set (wired when the file has none;
    primary interference without members lists every maximal matching)."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: a topology must be a JSON object, got {doc!r}")
    _unknown_keys(path, doc, _FILE_KEYS)
    missing = [key for key in ("nodes", "edges") if key not in doc]
    if missing:
        raise TopologyError(f"{path}: topology key(s) {missing} missing")
    try:
        g = Graph(doc["nodes"], doc["edges"], doc.get("directed", False))
    except TopologyError as exc:
        # Graph's messages start with the field at fault; the file calls node_count "nodes".
        field, _, rest = str(exc).partition(" ")
        field = "nodes" if field == "node_count" else field
        raise TopologyError(f"{path}: {field} {rest}") from exc
    act = doc.get("activation")
    if act is None:
        return g, ActivationSet("wired", g.m)
    if not isinstance(act, dict):
        raise TopologyError(f"{path}: activation must be a JSON object, got {act!r}")
    _unknown_keys(path, act, _ACTIVATION_KEYS, "activation.")
    try:
        if act.get("kind") == "primary_interference" and act.get("members") is None:
            return g, enumerate_matchings(g)
        aset = ActivationSet(act.get("kind"), g.m, act.get("members"))
        validate_activation(aset, g)
        return g, aset
    except TopologyError as exc:
        raise TopologyError(f"{path}: activation {exc}") from exc


# ---------------------------------------------------------------------------
# Builtin testbeds

BUILTIN_NAMES = ("grid3x3_broadcast", "twinpath_unicast", "line3")


def _grid_graph(rows: int, cols: int, directed: bool = False) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges), directed)


def builtin_topology(name: str) -> tuple[Graph, ActivationSet, list[TrafficClass]]:
    """Ready-to-run testbeds.

    grid3x3_broadcast: 3x3 grid with links directed rightward and downward
        away from corner node 0, under primary interference, with one
        broadcast session sourced at that corner (rate 1, to be scaled).
        The orientation is what pins the broadcast capacity at 2/5: every
        arborescence from the corner must hold both link pairs (0->1, 1->2)
        and (0->3, 3->6), each pair sharing a node and hence at most one
        transmission per slot.
    twinpath_unicast: wired 8-node graph with two edge-disjoint 0->3 paths
        and one 6->7 path disjoint from both, so the max-flow pair for the
        two unicast sessions is (2, 1). A bridge edge 3-6 keeps the graph
        connected without creating extra flow (node 7 keeps degree 1 and
        node 0 keeps degree 2).
    line3: 3-node wired path with a single unicast session 0->2.
    """
    if name == "line3":
        g = Graph(3, ((0, 1), (1, 2)))
        aset = ActivationSet("wired", g.m)
        classes = [TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)]
        return g, aset, classes
    if name == "grid3x3_broadcast":
        g = _grid_graph(3, 3, directed=True)
        aset = enumerate_matchings(g)
        classes = [TrafficClass(0, "broadcast", 0, frozenset(range(9)), 1.0)]
        return g, aset, classes
    if name == "twinpath_unicast":
        edges = (
            (0, 1), (1, 2), (2, 3),   # first 0->3 path
            (0, 4), (4, 5), (5, 3),   # second 0->3 path, edge-disjoint
            (6, 7),                   # the 6->7 session's only path
            (3, 6),                   # connectivity bridge, adds no capacity
        )
        g = Graph(8, edges)
        aset = ActivationSet("wired", g.m)
        classes = [
            TrafficClass(0, "unicast", 0, frozenset({3}), 2.0),
            TrafficClass(1, "unicast", 6, frozenset({7}), 1.0),
        ]
        return g, aset, classes
    raise TopologyError(f"unknown builtin topology {name!r}; choose from {BUILTIN_NAMES}")
