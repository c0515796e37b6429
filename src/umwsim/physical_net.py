"""The multi-hop physical network: packet copies, per-edge priority buffers.

Forwarding follows the nearest-to-origin rule extended to route trees:
each edge keeps one priority buffer and always transmits the waiting copy
that has traversed the fewest hops from its origin, breaking ties FIFO by
admission slot and then by packet uid. Crossing a tree edge duplicates the
copy into every child edge's buffer, so broadcast and multicast packets
fan out exactly along their frozen route tree.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .routing import RouteTree
from .topology import Graph


@dataclass(eq=False)
class Packet:
    """One admitted packet; its route, frozen at admission, covers the nodes it must reach."""

    uid: int
    class_id: int
    arrival_slot: int
    route: RouteTree
    delivered: set[int] = field(default_factory=set)
    full_delivery_slot: int | None = None

    @property
    def complete(self) -> bool:
        return self.full_delivery_slot is not None


class DeliveryEvent(NamedTuple):
    packet: Packet
    node: int
    slot: int


class PhysicalNetwork:
    """Per-edge ENTO buffers plus delivery bookkeeping for one run."""

    def __init__(self, g: Graph):
        self.graph = g
        # Heap entries are (hops, arrival_slot, uid, packet); the leading
        # triple is the ENTO priority and is unique per entry via uid.
        self.buffers: list[list[tuple[int, int, int, Packet]]] = [[] for _ in range(g.m)]
        self.lengths = np.zeros(g.m, dtype=np.int64)
        self.total_copies = 0

    def _deliver(self, packet: Packet, node: int, slot: int, events: list[DeliveryEvent]) -> None:
        if node in packet.delivered:
            raise RuntimeError(f"packet {packet.uid} delivered twice to node {node}")
        packet.delivered.add(node)
        events.append(DeliveryEvent(packet, node, slot))
        if packet.delivered == packet.route.covered:
            packet.full_delivery_slot = slot

    def admit(self, packet: Packet, slot: int) -> list[DeliveryEvent]:
        """Insert fresh copies (priority 0) into every root edge of the route.

        If the source itself is a required destination it is served
        immediately; a route with no edges therefore completes on admission.
        """
        events: list[DeliveryEvent] = []
        if packet.route.root in packet.route.covered:
            self._deliver(packet, packet.route.root, slot, events)
        for te in packet.route.root_edges():
            heapq.heappush(self.buffers[te.edge_id], (0, packet.arrival_slot, packet.uid, packet))
            self.lengths[te.edge_id] += 1
            self.total_copies += 1
        return events

    def forward(self, active: frozenset[int], slot: int) -> list[DeliveryEvent]:
        """One slot of ENTO forwarding over the active edges.

        Transmissions are simultaneous: every active nonempty edge pops its
        top copy first, and only then are the crossed copies duplicated
        into child buffers, so a copy cannot traverse two edges in one slot.
        """
        crossed: list[tuple[int, int, int, int, Packet]] = []
        for e in sorted(active):
            buf = self.buffers[e]
            if buf:
                hops, arr, uid, packet = heapq.heappop(buf)
                self.lengths[e] -= 1
                self.total_copies -= 1
                crossed.append((e, hops, arr, uid, packet))
        events: list[DeliveryEvent] = []
        for e, hops, arr, uid, packet in crossed:
            tree = packet.route
            child = tree.child_node_of.get(e)
            if child is None:
                raise RuntimeError(f"edge {e} is not on packet {uid}'s route")
            if child in tree.covered:
                # a tree reaches each node once; _deliver enforces that
                self._deliver(packet, child, slot, events)
            for te in tree.children_of.get(child, ()):
                heapq.heappush(self.buffers[te.edge_id], (hops + 1, arr, uid, packet))
                self.lengths[te.edge_id] += 1
                self.total_copies += 1
        return events

    def layer_counters(self) -> np.ndarray:
        """Copies per hop count: R_k = number of copies that traversed k edges."""
        counts = np.zeros(max(self.graph.node_count - 1, 1), dtype=np.int64)
        for buf in self.buffers:
            for hops, _, _, _ in buf:
                counts[hops] += 1
        return counts
