"""Per-slot control policies.

Three policies share the engine contract:

  "umw"           route and schedule by the virtual-queue weights,
  "umw-heuristic" the same decision rules fed physical queue lengths,
  "bp"            classical back-pressure (unicast baseline), forwarding
                  along maximal per-commodity backlog differentials.

The optimal policy never sees physical state; its decision function takes
only the virtual-queue vector, which enforces that separation by
construction.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activation import ActivationVector, max_weight_activation
from .errors import ConfigError
from .routing import (
    RouteKey,
    RouteTree,
    anycast_edges,
    build_route,
    shortest_path_edges,
    spanning_edges,
    steiner_edges,
)
from .topology import ActivationSet, Graph
from .traffic import TrafficClass

POLICY_NAMES = ("umw", "umw-heuristic", "bp")

# Most weight vectors a RouteCache remembers. It bounds the memory of runs
# whose queues keep producing new weight vectors (they diverge, or never
# settle); stable runs revisit few enough vectors to fit.
ROUTE_MEMO_CAP = 1024


@dataclass(frozen=True)
class PolicyDecision:
    routes: dict[int, RouteTree]
    activation: ActivationVector


class RouteCache:
    """Route memo and tree intern table of one run (one graph, one Steiner mode).

    A route is a pure function of the class and the weight vector, so the
    memo maps (class id, weight dtype, shape, weight bytes) to the tree
    solved for it. It keeps at most ROUTE_MEMO_CAP entries and evicts the
    oldest first. On a miss the solver runs in full, weight checks
    included; the intern table then hands back the tree already built for
    the same solved edge set, so each distinct tree is oriented and
    validated once and shared by every packet routed along it.
    """

    def __init__(self):
        self.memo: dict[tuple, RouteTree] = {}
        self.trees: dict[RouteKey, RouteTree] = {}
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "distinct_trees": len(self.trees)}


def _route_edges(g: Graph, w, cls: TrafficClass, steiner_mode: str = "exact") -> RouteKey:
    """Min-cost admissible route for one class, before orientation."""
    if cls.kind == "unicast":
        return shortest_path_edges(g, w, cls.source, cls.destination)
    if cls.kind == "broadcast":
        return spanning_edges(g, w, cls.source)
    if cls.kind == "multicast":
        return steiner_edges(g, w, cls.source, cls.destinations, mode=steiner_mode)
    return anycast_edges(g, w, cls.source, cls.destinations)


def solve_route(
    g: Graph,
    w,
    cls: TrafficClass,
    steiner_mode: str = "exact",
    cache: RouteCache | None = None,
) -> RouteTree:
    """Min-cost admissible route for one class under the given weights."""
    w = np.asarray(w)
    if cache is None or w.dtype.hasobject:
        return build_route(g, _route_edges(g, w, cls, steiner_mode))
    key = (cls.id, w.dtype.str, w.shape, w.tobytes())
    tree = cache.memo.get(key)
    if tree is not None:
        cache.hits += 1
        return tree
    cache.misses += 1
    solved = _route_edges(g, w, cls, steiner_mode)
    tree = cache.trees.get(solved)
    if tree is None:
        tree = cache.trees[solved] = build_route(g, solved)
    cache.memo[key] = tree
    if len(cache.memo) > ROUTE_MEMO_CAP:
        del cache.memo[next(iter(cache.memo))]
    return tree


def _decide(weights, arrivals, g, aset, classes, steiner_mode, cache) -> PolicyDecision:
    routes: dict[int, RouteTree] = {}
    for cls in classes:
        if arrivals.get(cls.id, 0) > 0:
            routes[cls.id] = solve_route(g, weights, cls, steiner_mode, cache)
    return PolicyDecision(routes, max_weight_activation(aset, weights))


def umw_decide(
    virtual_q: np.ndarray,
    arrivals: dict[int, int],
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
    steiner_mode: str = "exact",
    cache: RouteCache | None = None,
) -> PolicyDecision:
    """Routes for this slot's arrivals and the max-weight activation,
    both driven by the virtual queue lengths."""
    return _decide(virtual_q, arrivals, g, aset, classes, steiner_mode, cache)


def umw_heuristic_decide(
    physical_q: np.ndarray,
    arrivals: dict[int, int],
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
    steiner_mode: str = "exact",
    cache: RouteCache | None = None,
) -> PolicyDecision:
    """Same decision rules with physical queue lengths as the weights."""
    return _decide(physical_q, arrivals, g, aset, classes, steiner_mode, cache)


# ---------------------------------------------------------------------------
# Back-pressure baseline (unicast only)

class BPPacket(NamedTuple):
    uid: int
    class_id: int
    arrival_slot: int


class Forward(NamedTuple):
    edge_id: int
    from_node: int
    to_node: int
    class_id: int


class BPState:
    """Per-node, per-class FIFO backlogs for classical back-pressure."""

    def __init__(self, g: Graph, classes: list[TrafficClass]):
        for cls in classes:
            if cls.kind != "unicast":
                raise ConfigError("back-pressure baseline supports unicast classes only")
        self.graph = g
        self.classes = list(classes)
        self.dest = {cls.id: cls.destination for cls in classes}
        self.queues: dict[tuple[int, int], deque[BPPacket]] = {
            (u, cls.id): deque() for u in range(g.node_count) for cls in classes
        }
        self.total_packets = 0
        self._uid = 0

    def backlog(self, node: int, class_id: int) -> int:
        # The destination absorbs instantly, so its backlog reads as zero.
        if node == self.dest[class_id]:
            return 0
        return len(self.queues[(node, class_id)])

    def absorb_arrivals(self, arrivals: dict[int, int], slot: int) -> list[BPPacket]:
        """Enqueue new packets at their sources (destination arrivals exit at once)."""
        done: list[BPPacket] = []
        for cls in self.classes:
            for _ in range(arrivals.get(cls.id, 0)):
                pkt = BPPacket(self._uid, cls.id, slot)
                self._uid += 1
                if cls.source == self.dest[cls.id]:
                    done.append(pkt)
                    continue
                self.queues[(cls.source, cls.id)].append(pkt)
                self.total_packets += 1
        return done

    def decide(self, aset: ActivationSet) -> tuple[ActivationVector, list[Forward]]:
        """Max-weight activation over backlog differentials plus, per active
        edge with positive weight, the commodity and direction to forward.

        Each edge's weight is the best positive differential over classes
        and (for undirected graphs) both directions; ties prefer the lower
        class id and then the forward (u->v) direction.
        """
        g = self.graph
        weights = np.zeros(g.m, dtype=np.int64)
        plans: list[Forward | None] = [None] * g.m
        for e, (u, v) in enumerate(g.edges):
            best = None
            for cls in self.classes:
                cid = cls.id
                diff = self.backlog(u, cid) - self.backlog(v, cid)
                if diff > 0 and (best is None or (-diff, cid, 0) < best[0]):
                    best = ((-diff, cid, 0), Forward(e, u, v, cid))
                if not g.directed:
                    rdiff = -diff
                    if rdiff > 0 and (best is None or (-rdiff, cid, 1) < best[0]):
                        best = ((-rdiff, cid, 1), Forward(e, v, u, cid))
            if best is not None:
                weights[e] = -best[0][0]
                plans[e] = best[1]
        activation = max_weight_activation(aset, weights)
        forwards = [plans[e] for e in sorted(activation.active) if plans[e] is not None and weights[e] > 0]
        return activation, forwards

    def apply(self, forwards: list[Forward], slot: int) -> list[BPPacket]:
        """Move one FIFO packet per planned edge; returns packets that reached
        their destination this slot."""
        delivered: list[BPPacket] = []
        for fwd in forwards:
            q = self.queues[(fwd.from_node, fwd.class_id)]
            if not q:
                continue  # drained by an earlier edge this slot
            pkt = q.popleft()
            self.total_packets -= 1
            if fwd.to_node == self.dest[fwd.class_id]:
                delivered.append(pkt)
            else:
                self.queues[(fwd.to_node, fwd.class_id)].append(pkt)
                self.total_packets += 1
        return delivered


def bp_decide(bp: BPState, aset: ActivationSet) -> tuple[ActivationVector, list[Forward]]:
    return bp.decide(aset)


def bp_absorb(bp: BPState, arrivals: dict[int, int], slot: int) -> list[BPPacket]:
    return bp.absorb_arrivals(arrivals, slot)
