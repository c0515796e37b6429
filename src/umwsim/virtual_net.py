"""Virtual queues of the precedence-relaxed network.

One integer counter per edge. A packet admitted on a route deposits one
virtual arrival at *every* edge of the route in the admission slot; the
counters then follow the Lindley recursion q <- (q + A - mu)^+ with the
allocated (not necessarily used) service vector mu. The Skorokhod
functions, the oracles for that state, read a raw (A, mu) history.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .routing import RouteTree


def virtual_arrival_vector(routes: dict[int, RouteTree], arrivals: dict[int, int], m: int) -> list[int]:
    """Per-edge virtual arrivals: every class-c arrival hits each edge of the
    single route chosen for class c this slot. routes holds a route for
    every class with arrivals."""
    A = [0] * m
    for cid, count in arrivals.items():
        if count > 0:
            for e in routes[cid].edge_ids:
                A[e] += count
    return A


class VirtualQueues:
    """State of the m virtual queues, a list of Python ints."""

    def __init__(self, m: int):
        self.q = [0] * m

    def lindley_update(self, A: Sequence[int], mu: Sequence[int]) -> None:
        """One slot: q <- (q + A - mu)^+, as a new list."""
        self.q = [x + a - s if x + a > s else 0 for x, a, s in zip(self.q, A, mu, strict=True)]

    def total(self) -> int:
        return sum(self.q)


def skorokhod_value(arrivals: np.ndarray, service: np.ndarray, e: int, t: int) -> int:
    """Queue value at slot t recomputed from raw history, one window at a time.

    Evaluates (sup over window lengths tau=1..t of arrivals-minus-service on
    the window [t - tau, t))^+ directly; the independent oracle for the
    Lindley state.
    """
    if t > len(arrivals):
        raise ValueError(f"history has {len(arrivals)} slots, asked for t={t}")
    best = 0
    acc = 0
    for tau in range(1, t + 1):
        acc += int(arrivals[t - tau, e]) - int(service[t - tau, e])
        if acc > best:
            best = acc
    return best


def skorokhod_profile(arrivals: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Queue trajectory for all edges and slots from raw history.

    Uses the running-minimum form of the same supremum: with G(t) the
    cumulative arrivals-minus-service, the queue at t is
    (G(t) - min_{k<t} G(k))^+. Returns shape (slots, m); row t-1 is the
    state after slot t-1, i.e. the value at time t.
    """
    G = np.cumsum(arrivals - service, axis=0, dtype=np.int64)
    prev = np.vstack([np.zeros((1, arrivals.shape[1]), np.int64), G[:-1]])
    running_min = np.minimum.accumulate(np.minimum(prev, 0), axis=0)
    return np.maximum(G - running_min, 0)

