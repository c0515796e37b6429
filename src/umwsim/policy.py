"""Control policies: UMW and its heuristic, and back-pressure.

A run picks its policy once and then calls ``policy.run_block(start,
rows)`` once per block of slots. ``rows`` holds the arrival counts of
slots start, start + 1, ..., one row per slot and one count per class in
config class order. The policy runs the block's slots itself, one after
another: each makes every decision of its slot and applies it to the
policy's own queues. The call returns a BlockOutcome. Each policy also
keeps a ``violations`` dict of its own invariant counts (``delivery``
and ``layer_identity``) and reports its route memo's counts through
``route_stats()``, so the run never asks which policy it is driving.
There are two implementations:

  ``MaxWeightState`` serves "umw" and "umw-heuristic": min-cost routing
      and max-weight activation under the virtual queues ("umw") or the
      physical buffer lengths ("umw-heuristic"), both looked up once per
      slot by the weight tuple in the state's own slot memo and computed
      only when the memo does not hold them; on a route miss it calls
      ``solve_route`` and stores the tree. The optimal policy's weights
      are the virtual counters alone; it never reads physical state, so
      its memo also stores each slot's whole virtual transition.
      Given a diagnostics checker, it feeds it every slot; the checker
      keeps its own counts.
  ``BPState`` serves "bp", classical back-pressure (unicast baseline).
      Each slot enqueues the arrivals and moves one packet along each edge
      that ``decide`` plans from the max-weight activation over per-class
      backlog differentials. Packets carry no route, so they may wander
      and cycle.

A block binds the functions it calls to locals when it starts, never at
import: a tracer that rebinds ``solve_route``, ``max_weight_activation``,
``virtual_arrival_vector``, a ``PhysicalNetwork`` or ``VirtualQueues``
method, the diagnostics step or ``BPState.decide`` before a run sees
every call. Like ``solve_route`` and ``max_weight_activation``, which run
only on memo misses, ``virtual_arrival_vector`` and ``lindley_update``
run only in the "umw" slots that take no stored transition.
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
    _nearest,
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


# What one run_block call hands back, the plain tuple (total_q, total_vq, done):
#   total_q    per slot, the physical copies or packets still queued
#   total_vq   per slot, the sum of the virtual queues (0 for bp)
#   done       (slot, class id, sojourn) per packet fully delivered in the
#              block, in the order the packets complete
BlockOutcome = tuple[list[int], list[int], list[tuple[int, int, int]]]


def _route_edges(g: Graph, w: list, cls: TrafficClass, steiner_mode: str) -> RouteKey:
    """Min-cost admissible route for one class, before orientation; w has
    passed as_weights."""
    if cls.kind == "broadcast":
        return _spanning(g, w, cls.source)
    if cls.kind == "multicast":
        return _steiner(g, w, cls.source, cls.destinations, steiner_mode)
    # A unicast class's one destination is its nearest.
    return _nearest(g, w, cls.source, cls.destinations)


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
    """UMW or its heuristic, a block of slots at a time.

    Each slot routes its arrivals by min-cost solves and activates links
    by the max-weight rule, both under one weight vector (see weights()).
    Then it admits and forwards the physical copies and applies the
    Lindley update. A diag checker, if given, gets each slot's deposit,
    service, queues and arrival count (engine._DiagnosticState).

    A slot's activation and routes are pure functions of its integer weight
    vector, so the state keeps a slot memo: ``memo`` maps the weight tuple
    to ``[activation, routes by class id, transitions by arrival row]``,
    whose route table fills as classes with arrivals need routes. It holds
    at most ROUTE_MEMO_CAP weight vectors and evicts the oldest first,
    transitions and all. ``hits`` counts the route lookups the memo
    answers and ``misses`` the route solves.

    For "umw" the weights are the virtual queues, so a slot's whole
    virtual half (activation, routes, deposit, Lindley update) is a pure
    function of the vector and the slot's arrival row. A slot under a
    vector seen before stores its transition under the row, as a tuple:
    ``(queues after, their total, deposit, admissions)``, the admissions
    being ``(class id, tree, count)`` in config class order. A later slot
    with the same vector and row takes it: it writes the queues into the
    live list, counts a route hit per admitted class and admits those
    copies, with no route lookup, deposit or Lindley update. A vector's
    first slot stores nothing, and its transition table is made only at
    its second (None until then), so overloaded runs, whose vectors rarely
    come back, pay almost nothing. A table holds at most one transition
    per distinct arrival row, of which binomial arrivals have
    (trials + 1) ** classes (81 for 4 classes at 2 trials), so the memo
    holds at most ROUTE_MEMO_CAP times that many; only Poisson arrivals,
    whose counts are unbounded, leave the tables unbounded. The
    heuristic's weights, the buffer lengths, are not its state, so its
    tables stay None. The intern table ``trees``, which solve_route fills,
    hands back the tree already built for the same solved edge set, so
    each distinct tree is oriented and validated once and shared by every
    packet routed along it.
    """

    def __init__(self, g: Graph, aset: ActivationSet, classes: list[TrafficClass],
                 policy: str, steiner_mode: str, checkpoints: frozenset[int], diag=None):
        if policy not in ("umw", "umw-heuristic"):
            raise ConfigError(f"MaxWeightState policy must be 'umw' or 'umw-heuristic', got {policy!r}")
        self.graph = g
        self.aset = aset
        self.classes = list(classes)
        self.steiner_mode = steiner_mode
        self.checkpoints = checkpoints
        self.net = PhysicalNetwork(g)
        self.vq = VirtualQueues(g.m)
        self.virtual_weights = policy == "umw"
        self.uid = 0
        self.violations = {"delivery": 0, "layer_identity": 0}
        self.diag = diag
        self.memo: dict[tuple[int, ...], list] = {}
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

    def run_block(self, start: int, rows: list[list[int]]) -> BlockOutcome:
        """Slots start, start + 1, ..., one per row of arrival counts in
        config class order. Each slot's packets are admitted, and their
        uids given, class by class in that order. A slot without arrivals
        needs only the activation: it solves no route, admits nothing and
        deposits nothing. A "umw" slot that takes a stored transition makes
        no route lookup, deposit or Lindley update (see the class)."""
        g, aset, classes, mode = self.graph, self.aset, self.classes, self.steiner_mode
        net, vq, memo, order, trees = self.net, self.vq, self.memo, self.order, self.trees
        checkpoints, violations, cap = self.checkpoints, self.violations, ROUTE_MEMO_CAP
        solve, activate, deposit_of = solve_route, max_weight_activation, virtual_arrival_vector
        admit, forward, update = net.admit, net.forward, vq.lindley_update
        # weights() without a call per slot: the live virtual queues for
        # "umw", the buffer lengths at the start of each slot otherwise.
        live = vq.q if self.virtual_weights else None
        diag_step = None if self.diag is None else self.diag.step
        uid, hits, misses = self.uid, self.hits, self.misses
        total_q: list[int] = []
        total_vq: list[int] = []
        done: list[tuple[int, int, int]] = []
        add_q, add_vq, add_done = total_q.append, total_vq.append, done.append
        for t, row in enumerate(rows, start):
            # The weights are Python ints, so the memo key skips as_weights;
            # solve_route checks them on a miss.
            weights = net.lengths if live is None else live
            key = tuple(weights)
            entry = memo.get(key)
            taken = step = None
            if entry is None:
                # A new entry stays usable for this slot after its eviction.
                entry = memo[key] = [activate(aset, weights), {}, None]
                order.append(key)
                if len(order) > cap:
                    del memo[order.popleft()]
            elif live is not None:
                # "umw" under a vector seen before: this row's transition
                # is stored, or is stored once this slot has taken it.
                taken = entry[2]
                if taken is None:
                    taken = entry[2] = {}
                arrived = tuple(row)
                step = taken.get(arrived)
            act, known, _ = entry

            if step is not None:
                after, vq.total, deposit, admitted = step
                live[:] = after
                hits += len(admitted)
            else:
                if any(row):
                    admitted = []
                    for cls, count in zip(classes, row):
                        if count <= 0:
                            continue
                        cid = cls.id
                        tree = known.get(cid)
                        if tree is None:
                            tree = known[cid] = solve(g, weights, cls, mode, trees)
                            misses += 1
                        else:
                            hits += 1
                        admitted.append((cid, tree, count))
                    deposit = deposit_of(admitted)
                else:
                    deposit = admitted = ()
                update(deposit, act.edge_ids)
                if taken is not None:
                    taken[arrived] = (tuple(live), vq.total, deposit, admitted)
            completed: list[Packet] = []
            for cid, tree, count in admitted:
                for _ in range(count):
                    completed += admit(Packet(uid, cid, t, tree))
                    uid += 1
            completed += forward(act)
            for pkt in completed:
                if pkt.reached != pkt.route.covered_mask:
                    violations["delivery"] += 1
                add_done((t, pkt.class_id, t - pkt.arrival_slot))

            if diag_step is not None:
                diag_step(deposit, act.service, vq.q, sum(row))

            copies = net.total_copies
            if t in checkpoints and sum(map(len, net.buffers)) != copies:
                violations["layer_identity"] += 1
            add_q(copies)
            add_vq(vq.total)
        self.uid, self.hits, self.misses = uid, hits, misses
        return total_q, total_vq, done


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

    def run_block(self, start: int, rows: list[list[int]]) -> BlockOutcome:
        """Slots start, start + 1, ..., one per row of arrival counts in
        config class order. Each slot enqueues its arrivals at their
        sources (a packet born at its destination exits at once), then
        moves the oldest packet along each edge that decide() plans, if
        one is still queued there."""
        queues, dest, decide = self.queues, self.dest, self.decide
        # Per class: its id, whether its packets are born at their
        # destination, and its queue at the source.
        sources = [(cls.id, cls.source == cls.destination, queues[cls.id][cls.source])
                   for cls in self.classes]
        total = self.total_packets
        total_q: list[int] = []
        done: list[tuple[int, int, int]] = []
        for t, row in enumerate(rows, start):
            for (cid, born_there, source_queue), n in zip(sources, row):
                if not n:
                    continue
                if born_there:
                    done += [(t, cid, 0)] * n
                else:
                    source_queue.extend([BPPacket(cid, t)] * n)
                    total += n
            for fwd in decide():
                class_queues = queues[fwd.class_id]
                if not class_queues[fwd.from_node]:
                    continue  # drained by an earlier edge this slot
                pkt = class_queues[fwd.from_node].popleft()
                if fwd.to_node == dest[fwd.class_id]:
                    done.append((t, pkt.class_id, t - pkt.arrival_slot))
                    total -= 1
                else:
                    class_queues[fwd.to_node].append(pkt)
            total_q.append(total)
        self.total_packets = total
        return total_q, [0] * len(rows), done

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
