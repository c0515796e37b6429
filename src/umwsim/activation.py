"""Max-weight link activation over an activation set."""
from __future__ import annotations

import numpy as np

from .errors import TopologyError
from .topology import ActivationSet, ActivationVector


def max_weight_activation(aset: ActivationSet, w) -> ActivationVector:
    """Member of the activation set maximizing total edge weight.

    Wired sets activate every edge (dominant under nonnegative weights).
    Ties resolve to the first maximizing member, which is the smallest
    member index for explicit sets and the lexicographically smallest
    edge set for materialized matchings (members are stored sorted).
    The result is the set's shared vector for that member.
    """
    w = np.asarray(w)
    if w.shape != (aset.edge_count,):
        raise TopologyError(f"expected {aset.edge_count} weights, got {w.shape}")
    if aset.kind == "wired":
        return aset.vectors[0]
    return aset.vectors[int(np.argmax(aset.member_matrix @ w))]


def activation_weight(a: ActivationVector, w) -> float:
    return sum(w[e] for e in a.active)
