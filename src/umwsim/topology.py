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
from .traffic import TrafficClass

ACTIVATION_KINDS = ("wired", "primary_interference", "explicit")

MATCHING_ENUMERATION_CAP = 24


@dataclass(frozen=True)
class Graph:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        n = self.node_count
        if n < 1:
            raise TopologyError(f"node_count must be >= 1, got {n}")
        seen = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge {eid}: endpoint outside 0..{n - 1}")
            if u == v:
                raise TopologyError(f"edge {eid}: self-loop at node {u}")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise TopologyError(f"edge {eid}: duplicate of {key}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

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

    def other_end(self, edge_id: int, node: int) -> int:
        u, v = self.edges[edge_id]
        if node == u:
            return v
        if node == v:
            return u
        raise TopologyError(f"node {node} is not an endpoint of edge {edge_id}")


@dataclass(frozen=True)
class ActivationVector:
    """The edge subset scheduled to transmit this slot."""

    active: frozenset[int]
    edge_count: int

    def __post_init__(self):
        object.__setattr__(self, "active", frozenset(int(e) for e in self.active))
        if not all(0 <= e < self.edge_count for e in self.active):
            raise TopologyError("active edge id out of range")

    @cached_property
    def as_array(self) -> np.ndarray:
        """0/1 service vector of length m (read-only: vectors are shared)."""
        mu = np.zeros(self.edge_count, dtype=np.int64)
        for e in self.active:
            mu[e] = 1
        mu.flags.writeable = False
        return mu


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
            raise TopologyError(f"unknown activation kind {self.kind!r}")
        if self.kind == "wired":
            if self.members is not None:
                raise TopologyError("wired activation must not list members")
            return
        if not self.members:
            raise TopologyError(f"{self.kind} activation needs at least one member")
        members = tuple(frozenset(int(e) for e in s) for s in self.members)
        object.__setattr__(self, "members", members)
        for s in members:
            if not all(0 <= e < self.edge_count for e in s):
                raise TopologyError("activation member references unknown edge id")

    @cached_property
    def member_matrix(self) -> np.ndarray:
        """0/1 matrix (n_members, m) for vectorized member-weight scans."""
        if self.kind == "wired":
            raise TopologyError("wired activation has no materialized members")
        mat = np.zeros((len(self.members), self.edge_count), dtype=np.int8)
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


def enumerate_matchings(g: Graph, cap: int = MATCHING_ENUMERATION_CAP) -> ActivationSet:
    """All maximal matchings, as a primary-interference activation set.

    Node exclusivity ignores link direction, so directed graphs are matched
    on their underlying endpoints. Non-maximal matchings are dominated under
    nonnegative weights, so restricting to maximal ones loses no max-weight
    argmax.
    """
    if g.m > cap:
        raise CapExceededError("maximal matching enumeration", g.m, cap)

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


def _parse_topology_doc(doc: dict, where: str) -> Graph:
    try:
        nodes = int(doc["nodes"])
        edges = [(int(u), int(v)) for u, v in doc["edges"]]
        directed = bool(doc.get("directed", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"{where}: malformed topology document ({exc})") from exc
    return Graph(nodes, tuple(edges), directed)


def load_topology(path: str | Path) -> Graph:
    """Parse and validate a topology file, assigning edge ids in file order."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
    return _parse_topology_doc(doc, str(path))


def load_activation(path: str | Path, g: Graph) -> ActivationSet:
    """Read the activation block of a topology file (wired when absent)."""
    doc = json.loads(Path(path).read_text())
    act = doc.get("activation")
    if act is None:
        return ActivationSet("wired", g.m)
    kind = act.get("kind")
    if kind == "wired":
        return ActivationSet("wired", g.m)
    if kind == "primary_interference":
        members = act.get("members")
        if members is None:
            return enumerate_matchings(g)
        aset = ActivationSet("primary_interference", g.m, tuple(frozenset(s) for s in members))
        validate_activation(aset, g)
        return aset
    if kind == "explicit":
        members = act.get("members")
        if not members:
            raise TopologyError(f"{path}: explicit activation needs members")
        return ActivationSet("explicit", g.m, tuple(frozenset(s) for s in members))
    raise TopologyError(f"{path}: unknown activation kind {kind!r}")


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
