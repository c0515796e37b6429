"""Per-slot control policies and the route solve they share.

A run picks its policy once, before the slot loop, and then calls
``policy.step(t, arrivals)`` every slot. ``arrivals`` maps class id to
its external arrival count in slot t; a class with no arrivals may be
absent, and the run loop passes ``{}`` for a slot without arrivals and
only the classes with arrivals otherwise. The step makes every decision of
the slot, applies it to the policy's own queues, and returns a SlotOutcome.
Each policy also keeps a ``violations`` dict of its own invariant counts
(``delivery`` and ``layer_identity``), so the loop never asks which policy
it is driving. There are two implementations:

  ``engine._MaxWeightStepper`` serves "umw" and "umw-heuristic": min-cost
      routing (``solve_route``) and max-weight activation under the virtual
      queues ("umw") or the physical buffer lengths ("umw-heuristic"), both
      looked up by the slot's weight tuple in the run's RouteCache and
      computed only when the memo does not hold them. The
      optimal policy's weights are the virtual counters alone; it never
      reads physical state. With ``metrics.diagnostics`` on, the stepper
      also runs the per-slot virtual-queue checks and counts their
      failures (``skorokhod``, ``sandwich``, ``loading``) in its own
      ``violations`` dict.
  ``BPState`` serves "bp", classical back-pressure (unicast baseline).
      Its step enqueues the arrivals and moves one packet along each edge
      that ``decide`` plans from the max-weight activation over per-class
      backlog differentials. Packets carry no route, so they may wander
      and cycle.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .activation import max_weight_activation
from .errors import ConfigError
from .routing import (
    RouteKey,
    RouteTree,
    _anycast,
    _shortest_path,
    _spanning,
    _steiner,
    as_weights,
    build_route,
)
from .topology import ActivationSet, ActivationVector, Graph
from .traffic import TrafficClass

POLICY_NAMES = ("umw", "umw-heuristic", "bp")

# Most weight vectors a RouteCache remembers. It bounds the memory of runs
# whose queues keep producing new weight vectors (they diverge, or never
# settle); stable runs revisit few enough vectors to fit.
ROUTE_MEMO_CAP = 1024


# What one policy step hands back to the slot loop, the plain tuple
# (completed, total_q, total_vq):
#   completed  (class id, sojourn) per packet fully delivered this slot
#   total_q    physical copies or packets still queued
#   total_vq   sum of the virtual queues (0 for bp)
# A tuple rather than a NamedTuple: building one each slot costs time the
# loop, which unpacks it at once, has no use for.
SlotOutcome = tuple[list[tuple[int, int]], int, int]


class SlotDecision:
    """What one weight vector decides: the max-weight activation (None
    until a slot under these weights computes it) and the routes solved
    under them so far, by class id."""

    __slots__ = ("activation", "routes")

    def __init__(self):
        self.activation: ActivationVector | None = None
        self.routes: dict[int, RouteTree] = {}


class RouteCache:
    """Slot memo and tree intern table of one run (one graph, one Steiner mode).

    A slot's activation and routes are pure functions of its integer weight
    vector, so the memo maps the weight tuple to the SlotDecision made
    under it; its route table fills as classes with arrivals need routes.
    It keeps at most ROUTE_MEMO_CAP weight vectors and evicts the oldest
    first. hits counts the route lookups the memo answers and misses the
    route solves. On a miss the solver runs in full; the intern table then
    hands back the tree already built for the same solved edge set, so
    each distinct tree is oriented and validated once and shared by every
    packet routed along it.
    """

    def __init__(self):
        self.memo: dict[tuple[int, ...], SlotDecision] = {}
        # The memo's keys, oldest first. Evicting through the dict's own
        # order (next(iter(memo))) would step over the slots of every
        # entry deleted since its last resize, about 1 µs at the cap.
        self.order: deque[tuple[int, ...]] = deque()
        self.trees: dict[RouteKey, RouteTree] = {}
        self.hits = 0
        self.misses = 0

    def decision(self, key: tuple[int, ...]) -> SlotDecision:
        """The memo entry for weight tuple key, made (and the oldest entry
        past the cap evicted) if it is new. The entry stays usable after
        its eviction."""
        entry = self.memo.get(key)
        if entry is None:
            entry = self.memo[key] = SlotDecision()
            self.order.append(key)
            if len(self.order) > ROUTE_MEMO_CAP:
                del self.memo[self.order.popleft()]
        return entry

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "distinct_trees": len(self.trees)}


def _route_edges(g: Graph, w: list, cls: TrafficClass, steiner_mode: str) -> RouteKey:
    """Min-cost admissible route for one class, before orientation; w has
    passed as_weights."""
    if cls.kind == "unicast":
        return _shortest_path(g, w, cls.source, cls.destination)
    if cls.kind == "broadcast":
        return _spanning(g, w, cls.source)
    if cls.kind == "multicast":
        return _steiner(g, w, cls.source, cls.destinations, steiner_mode)
    return _anycast(g, w, cls.source, cls.destinations)


def solve_route(
    g: Graph,
    w,
    cls: TrafficClass,
    steiner_mode: str = "exact",
    cache: RouteCache | None = None,
) -> RouteTree:
    """Min-cost admissible route for one class under the given weights.

    The one public way to solve a route, and the one place its weights are
    checked: w must be a list, tuple or 1-D array of g.m nonnegative ints.
    """
    w = as_weights(w, g.m)
    if cache is None:
        return build_route(g, _route_edges(g, w, cls, steiner_mode))
    routes = cache.decision(tuple(w)).routes
    tree = routes.get(cls.id)
    if tree is not None:
        cache.hits += 1
        return tree
    cache.misses += 1
    solved = _route_edges(g, w, cls, steiner_mode)
    tree = cache.trees.get(solved)
    if tree is None:
        tree = cache.trees[solved] = build_route(g, solved)
    routes[cls.id] = tree
    return tree


# ---------------------------------------------------------------------------
# Back-pressure baseline (unicast only)

class BPPacket(NamedTuple):
    class_id: int
    arrival_slot: int


class Forward(NamedTuple):
    from_node: int
    to_node: int
    class_id: int


def require_unicast(classes: list[TrafficClass]) -> None:
    """Back-pressure routes unicast classes only."""
    if any(cls.kind != "unicast" for cls in classes):
        raise ConfigError("back-pressure baseline supports unicast classes only")


class BPState:
    """Classical back-pressure over FIFO backlogs ``queues[class id][node]``.

    A packet leaves the network as it reaches its destination, so a class's
    backlog at its destination is always empty.
    """

    def __init__(self, g: Graph, aset: ActivationSet, classes: list[TrafficClass]):
        require_unicast(classes)
        self.graph = g
        self.aset = aset
        self.classes = list(classes)
        self.dest = {cls.id: cls.destination for cls in classes}
        # Built in class-id order, which decide() scans for its tie-break.
        self.queues: dict[int, list[deque[BPPacket]]] = {
            cid: [deque() for _ in range(g.node_count)] for cid in sorted(self.dest)
        }
        self.total_packets = 0
        # Packets carry no route tree and copies no hop layers, so neither
        # check applies to back-pressure; both read 0.
        self.violations = {"delivery": 0, "layer_identity": 0}

    def step(self, slot: int, arrivals: dict[int, int]) -> SlotOutcome:
        """One slot: enqueue the arrivals at their sources (a packet born at
        its destination exits at once), then move the oldest packet along
        each edge that decide() plans, if one is still queued there.
        arrivals maps class id to its count; a class with no arrivals may
        be absent."""
        done: list[tuple[int, int]] = []
        for cls in self.classes:
            n = arrivals.get(cls.id, 0)
            if cls.source == cls.destination:
                done += [(cls.id, 0)] * n
            else:
                self.queues[cls.id][cls.source].extend([BPPacket(cls.id, slot)] * n)
                self.total_packets += n
        for fwd in self.decide():
            queues = self.queues[fwd.class_id]
            if not queues[fwd.from_node]:
                continue  # drained by an earlier edge this slot
            pkt = queues[fwd.from_node].popleft()
            if fwd.to_node == self.dest[fwd.class_id]:
                done.append((pkt.class_id, slot - pkt.arrival_slot))
                self.total_packets -= 1
            else:
                queues[fwd.to_node].append(pkt)
        return done, self.total_packets, 0

    def decide(self) -> list[Forward]:
        """The forwards of the max-weight activation over backlog differentials.

        An edge's weight is its largest positive differential over the
        classes and, on an undirected graph, both directions; a tie goes to
        the lower class id. (A class's differential is positive in one
        direction at most, so the direction never breaks a tie.) Each
        active edge of positive weight forwards its best class that way.
        """
        g = self.graph
        weights = [0] * g.m
        plans: list[Forward | None] = [None] * g.m
        for e, (u, v) in enumerate(g.edges):
            for cid, queues in self.queues.items():
                diff = len(queues[u]) - len(queues[v])
                if diff > weights[e]:
                    weights[e], plans[e] = diff, Forward(u, v, cid)
                elif -diff > weights[e] and not g.directed:
                    weights[e], plans[e] = -diff, Forward(v, u, cid)
        active = max_weight_activation(self.aset, weights).edge_ids
        return [plans[e] for e in active if plans[e] is not None]
