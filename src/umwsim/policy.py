"""Per-slot control policies: UMW and its heuristic, and back-pressure.

A run picks its policy once, before the slot loop, and then calls
``policy.step(t, arrivals)`` every slot. ``arrivals`` maps class id to
its external arrival count in slot t; a class with no arrivals may be
absent, and the run loop passes ``{}`` for a slot without arrivals and
only the classes with arrivals otherwise. The step makes every decision of
the slot, applies it to the policy's own queues, and returns a SlotOutcome.
Each policy also keeps a ``violations`` dict of its own invariant counts
(``delivery`` and ``layer_identity``) and reports its route memo's counts
through ``route_stats()``, so the loop never asks which policy it is
driving. There are two implementations:

  ``MaxWeightState`` serves "umw" and "umw-heuristic": min-cost routing
      and max-weight activation under the virtual queues ("umw") or the
      physical buffer lengths ("umw-heuristic"), both looked up once per
      slot by the weight tuple in the state's own slot memo and computed
      only when the memo does not hold them; on a route miss it calls
      ``solve_route`` and stores the tree. The optimal policy's weights
      are the virtual counters alone; it never reads physical state.
      Given a diagnostics checker, it feeds it every slot; the checker
      keeps its own counts.
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
from .errors import ConfigError, TopologyError
from .physical_net import Packet, PhysicalNetwork
from .routing import (
    STEINER_MODES,
    RouteKey,
    RouteTree,
    _anycast,
    _shortest_path,
    _spanning,
    _steiner,
    as_weights,
    orient_tree,
)
from .topology import ActivationSet, ActivationVector, Graph
from .traffic import TrafficClass
from .virtual_net import VirtualQueues, virtual_arrival_vector

POLICY_NAMES = ("umw", "umw-heuristic", "bp")

# Most weight vectors a MaxWeightState's slot memo remembers. It bounds the
# memory of runs whose queues keep producing new weight vectors (they
# diverge, or never settle); stable runs revisit few enough vectors to fit.
ROUTE_MEMO_CAP = 1024


# What one policy step hands back to the slot loop, the plain tuple
# (completed, total_q, total_vq):
#   completed  (class id, sojourn) per packet fully delivered this slot
#   total_q    physical copies or packets still queued
#   total_vq   sum of the virtual queues (0 for bp)
# A tuple rather than a NamedTuple: building one each slot costs time the
# loop, which unpacks it at once, has no use for.
SlotOutcome = tuple[list[tuple[int, int]], int, int]


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
    trees: dict[RouteKey, RouteTree] | None = None,
) -> RouteTree:
    """Min-cost admissible route for one class under the given weights.

    The one public way to solve a route, and the one place its weights are
    checked: w must be a list, tuple or 1-D array of g.m nonnegative ints.
    Given an intern table trees, it returns the tree already there for the
    solved route and adds the ones it builds.
    """
    if steiner_mode not in STEINER_MODES:
        raise TopologyError(f"unknown Steiner mode {steiner_mode!r}")
    solved = _route_edges(g, as_weights(w, g.m), cls, steiner_mode)
    trees = {} if trees is None else trees
    tree = trees.get(solved)
    if tree is None:
        root, edge_ids, covered = solved
        tree = trees[solved] = orient_tree(g, edge_ids, root, covered)
    return tree


class MaxWeightState:
    """One slot of UMW or its heuristic.

    Routes this slot's arrivals by min-cost solves and activates links by
    the max-weight rule, both under one weight vector (see weights()).
    Then admits and forwards the physical copies and applies the Lindley
    update. A diag checker, if given, gets each slot's deposit, service,
    queues and arrival count (engine._DiagnosticState).

    A slot's activation and routes are pure functions of its integer weight
    vector, so the state keeps a slot memo: ``memo`` maps the weight tuple
    to ``(activation, routes by class id)``, whose route table fills as
    classes with arrivals need routes. It holds at most ROUTE_MEMO_CAP
    weight vectors and evicts the oldest first. ``hits`` counts the route
    lookups the memo answers and ``misses`` the route solves. The intern
    table ``trees``, which solve_route fills, hands back the tree already
    built for the same solved edge set, so each distinct tree is oriented
    and validated once and shared by every packet routed along it.
    """

    def __init__(self, g: Graph, aset: ActivationSet, classes: list[TrafficClass],
                 policy: str, steiner_mode: str, checkpoints: frozenset[int], diag=None):
        if policy not in ("umw", "umw-heuristic"):
            raise ConfigError(f"MaxWeightState policy must be 'umw' or 'umw-heuristic', got {policy!r}")
        self.graph = g
        self.aset = aset
        self.class_of = {c.id: c for c in classes}
        self.steiner_mode = steiner_mode
        self.checkpoints = checkpoints
        self.net = PhysicalNetwork(g)
        self.vq = VirtualQueues(g.m)
        self.virtual_weights = policy == "umw"
        self.uid = 0
        self.violations = {"delivery": 0, "layer_identity": 0}
        self.diag = diag
        self.memo: dict[tuple[int, ...], tuple[ActivationVector, dict[int, RouteTree]]] = {}
        # The memo's keys, oldest first. Evicting through the dict's own
        # order (next(iter(memo))) steps over the slots of every entry
        # deleted since its last resize, about 1 µs at the cap.
        self.order: deque[tuple[int, ...]] = deque()
        self.trees: dict[RouteKey, RouteTree] = {}
        self.hits = 0
        self.misses = 0

    def route_stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "distinct_trees": len(self.trees)}

    def weights(self) -> list[int]:
        """The slot's weight vector: the virtual queues for "umw", the
        physical buffer sizes at the start of the slot for "umw-heuristic".
        For "umw" it is the live list, which the slot's Lindley update
        changes in place."""
        return self.vq.q if self.virtual_weights else self.net.lengths

    def step(self, t: int, arrivals: dict[int, int]) -> SlotOutcome:
        """One slot. arrivals maps class id to its arrival count in slot t;
        a class with no arrivals may be absent. Packets are admitted, and
        their uids given, in the order arrivals lists the classes (the run
        loop lists them in config order). A slot without arrivals needs
        only the activation: it solves no route, admits nothing and
        deposits nothing."""
        net, vq = self.net, self.vq
        # The weights are Python ints, so the memo key skips as_weights;
        # solve_route checks them on a miss.
        weights = self.weights()
        key = tuple(weights)
        entry = self.memo.get(key)
        if entry is None:
            # A new entry stays usable for this slot after its eviction.
            entry = self.memo[key] = (max_weight_activation(self.aset, weights), {})
            self.order.append(key)
            if len(self.order) > ROUTE_MEMO_CAP:
                del self.memo[self.order.popleft()]
        act, known = entry

        if arrivals:
            routes: dict[int, RouteTree] = {}
            completed: list[Packet] = []
            uid = self.uid
            for cid, count in arrivals.items():
                if count <= 0:
                    continue
                tree = known.get(cid)
                if tree is None:
                    tree = known[cid] = solve_route(self.graph, weights, self.class_of[cid],
                                                    self.steiner_mode, self.trees)
                    self.misses += 1
                else:
                    self.hits += 1
                routes[cid] = tree
                for _ in range(count):
                    completed += net.admit(Packet(uid, cid, t, tree), t)
                    uid += 1
            self.uid = uid
            completed += net.forward(act, t)
            deposit = virtual_arrival_vector(routes, arrivals)
        else:
            completed = net.forward(act, t)
            deposit = ()
        for pkt in completed:
            if pkt.delivered != pkt.route.covered:
                self.violations["delivery"] += 1

        vq.lindley_update(deposit, act.edge_ids)
        if self.diag is not None:
            self.diag.step(deposit, act.service, vq.q, sum(arrivals.values()))

        total_q = net.total_copies
        if t in self.checkpoints and int(net.layer_counters().sum()) != total_q:
            self.violations["layer_identity"] += 1
        return [(pkt.class_id, pkt.full_delivery_slot - pkt.arrival_slot) for pkt in completed], total_q, vq.total


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

    def route_stats(self) -> dict[str, int]:
        """Back-pressure solves no routes, so its memo counts are all 0."""
        return {"hits": 0, "misses": 0, "distinct_trees": 0}

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
