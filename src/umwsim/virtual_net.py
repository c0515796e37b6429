"""Virtual queues of the precedence-relaxed network.

One integer counter per edge. A packet admitted on a route deposits one
virtual arrival at *every* edge of the route in the admission slot; the
counters then follow the Lindley recursion q <- (q + A - mu)^+ with the
allocated (not necessarily used) service vector mu. A slot touches only
the edges of its routes and its active edges, so the update is applied
sparsely, in place. ``reflected_walk`` rebuilds that state from a raw
dense history of increments A - mu, the diagnostics' Skorokhod form.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable

import numpy as np

from .routing import RouteTree


def virtual_arrival_vector(admitted: Iterable[tuple[int, RouteTree, int]]
                           ) -> list[tuple[frozenset[int], int]]:
    """The slot's virtual arrivals as a deposit: one (edge ids, count) pair
    per ``(class id, route, count)`` admission, in their order, the count
    landing on every edge of the route chosen for that class this slot.
    The admissions list only classes with arrivals, each count > 0."""
    return [(tree.edge_ids, count) for _, tree, count in admitted]


def _integers(edge_ids: Collection) -> bool:
    """Whether every id is an integer, a numpy one included."""
    return all(isinstance(e, (int, np.integer)) for e in edge_ids)


class VirtualQueues:
    """State of the m virtual queues, a list of Python ints, and their sum."""

    def __init__(self, m: int):
        self.q = [0] * m
        self.total = 0
        self.edge_ids = frozenset(range(m))

    def lindley_update(self, deposit: Collection[tuple[Collection[int], int]], served: Collection[int]) -> None:
        """One slot of q <- (q + A - mu)^+, in place. A is the deposit's
        counts summed per edge, and mu[e] is the number of times served
        lists edge e (an activation's edge_ids: once per active edge).

        Every edge id must be an integer (a numpy one included) in 0..m-1
        and every count an int >= 0 (a bool or a numpy integer is not one),
        else ValueError is raised before anything changes."""
        # Membership passes 1.0 for 1, so the ids' types are checked one by
        # one only when their sum is not a Python int.
        q, total, ids = self.q, self.total, self.edge_ids
        for edge_ids, count in deposit:
            if (type(count) is not int or count < 0 or not ids.issuperset(edge_ids)
                    or type(sum(edge_ids)) is not int and not _integers(edge_ids)):
                raise ValueError(f"deposit needs integer edge ids in 0..{len(q) - 1} and an int "
                                 f"count >= 0, got ({edge_ids!r}, {count!r})")
        if not ids.issuperset(served) or type(sum(served)) is not int and not _integers(served):
            raise ValueError(f"served edge ids must be integers in 0..{len(q) - 1}, got {served!r}")
        for edge_ids, count in deposit:
            for e in edge_ids:
                q[e] += count
            total += count * len(edge_ids)
        for e in served:
            if q[e]:
                q[e] -= 1
                total -= 1
        self.total = total


def reflected_walk(increments: np.ndarray, start: np.ndarray | int) -> np.ndarray:
    """Rows q_1..q_n of the Lindley recursion q_t = max(q_{t-1} + x_t, 0)
    from q_0 = start >= 0, one column per queue, as int64: with S the
    cumulative sum of the increments, q_t = max(start + S_t, S_t - min_{k<=t} S_k).
    Started from its last row, the walk of the next block continues it."""
    walk = np.cumsum(increments, axis=0, dtype=np.int64)
    drop = walk - np.minimum.accumulate(walk, axis=0)
    walk += start
    return np.maximum(walk, drop, out=walk)
