"""The multi-hop physical network: packet copies, per-edge priority buffers.

Forwarding follows the nearest-to-origin rule extended to route trees:
each edge keeps one priority buffer and always transmits the waiting copy
that has traversed the fewest hops from its origin, breaking ties FIFO by
admission slot and then by packet uid. Crossing a tree edge duplicates the
copy into every child edge's buffer, so broadcast and multicast packets
fan out exactly along their frozen route tree.

A packet records the nodes it has reached in one int bitmask, ``reached``
(bit v for node v), and is complete when it equals its route's
``covered_mask``. An int, not a set of nodes, keeps an in-flight packet
small, which matters in overloaded runs whose backlog grows without bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .routing import RouteTree
from .topology import ActivationVector, Graph


@dataclass(eq=False, slots=True)
class Packet:
    """One admitted packet; its route, frozen at admission, covers the nodes
    it must reach. Bit v of ``reached`` is set once node v is delivered."""

    uid: int
    class_id: int
    arrival_slot: int
    route: RouteTree
    reached: int = 0


class PhysicalNetwork:
    """Per-edge ENTO buffers plus delivery bookkeeping for one run.

    Copies move by their route's forwarding table (RouteTree.next_hops);
    an edge's waiting copies are the entries of its buffer.
    """

    def __init__(self, g: Graph):
        self.graph = g
        # Heap entries are (hops, arrival_slot, uid, packet); the leading
        # triple is the ENTO priority and is unique per entry via uid.
        self.buffers: list[list[tuple[int, int, int, Packet]]] = [[] for _ in range(g.m)]
        self.total_copies = 0

    @property
    def lengths(self) -> list[int]:
        """Copies waiting per edge, as a new list."""
        return [len(buf) for buf in self.buffers]

    def _deliver(self, packet: Packet, node: int, completed: list[Packet]) -> None:
        """Record node as reached; the packet is complete once its mask is
        the route's covered_mask. A second delivery to a node raises
        before the mask changes."""
        bit = 1 << node
        reached = packet.reached
        if reached & bit:
            raise RuntimeError(f"packet {packet.uid} delivered twice to node {node}")
        reached |= bit
        packet.reached = reached
        if reached == packet.route.covered_mask:
            completed.append(packet)

    def admit(self, packet: Packet) -> list[Packet]:
        """Insert fresh copies (priority 0) into every root edge of the route;
        returns [packet] if the packet completes on admission, else [].

        If the source itself is a required destination it is served
        immediately; a route with no edges therefore completes on admission.
        """
        route = packet.route
        completed: list[Packet] = []
        if route.root in route.covered:
            self._deliver(packet, route.root, completed)
        entry = (0, packet.arrival_slot, packet.uid, packet)
        for e in route.root_edge_ids:
            heappush(self.buffers[e], entry)
        self.total_copies += len(route.root_edge_ids)
        return completed

    def forward(self, act: ActivationVector) -> list[Packet]:
        """One slot of ENTO forwarding over act's active edges, crossed in
        increasing edge id; returns the packets it completes, each once, in
        the order they complete.

        Transmissions are simultaneous: every active nonempty edge pops its
        top copy first, and only then are the crossed copies duplicated
        into child buffers, so a copy cannot traverse two edges in one slot.
        """
        buffers = self.buffers
        crossed = [(e, heappop(buffers[e])) for e in act.edge_ids if buffers[e]]
        completed: list[Packet] = []
        pushed = 0
        for e, (hops, arr, uid, packet) in crossed:
            hop = packet.route.next_hops.get(e)
            if hop is None:
                raise RuntimeError(f"edge {e} is not on packet {uid}'s route")
            child, covered, out = hop
            if covered:
                # a tree reaches each node once; _deliver enforces that
                self._deliver(packet, child, completed)
            if out:
                entry = (hops + 1, arr, uid, packet)
                for c in out:
                    heappush(buffers[c], entry)
                pushed += len(out)
        self.total_copies += pushed - len(crossed)
        return completed

    def layer_counters(self) -> np.ndarray:
        """Copies per hop count: R_k = number of copies that traversed k edges.
        Counted in a list, whose item update costs a fraction of a numpy
        element's, and returned as one int64 array."""
        counts = [0] * max(self.graph.node_count - 1, 1)
        for buf in self.buffers:
            for hops, _, _, _ in buf:
                counts[hops] += 1
        return np.array(counts, dtype=np.int64)
