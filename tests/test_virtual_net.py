import numpy as np
import pytest

import umwsim
from helpers import AssociatedQueues, loading_slack, skorokhod_value
from umwsim import virtual_net
from umwsim.policy import solve_route
from umwsim.routing import RouteTree, TreeEdge
from umwsim.topology import ActivationVector, Graph
from umwsim.traffic import TrafficClass
from umwsim.virtual_net import (
    VirtualQueues,
    reflected_walk,
    virtual_arrival_vector,
)


def _v(*xs):
    return np.array(xs, dtype=np.int64)


def _sparse(A, mu):
    """The (deposit, served) arguments of lindley_update for dense vectors
    A and mu: one single-edge deposit per edge with arrivals, and each edge
    id listed once per unit of its service."""
    deposit = [((e,), int(a)) for e, a in enumerate(A) if a]
    served = [e for e, s in enumerate(mu) for _ in range(int(s))]
    return deposit, served


def _update(vq, A, mu):
    """One slot of vq under dense A and mu; its running total must stay
    the sum of its queues, each a Python int."""
    vq.lindley_update(*_sparse(A, mu))
    assert vq.total == sum(vq.q) and all(type(x) is int for x in vq.q)


def test_lindley_nonnegative_part():
    vq = VirtualQueues(1)
    _update(vq, _v(0), _v(1))
    assert vq.q == [0]


def test_lindley_arithmetic():
    vq = VirtualQueues(1)
    _update(vq, _v(3), _v(0))
    _update(vq, _v(2), _v(1))
    assert vq.q == [4]


def test_lindley_absorbing_at_zero():
    vq = VirtualQueues(1)
    _update(vq, _v(1), _v(0))
    _update(vq, _v(0), _v(1))
    assert vq.q == [0]
    _update(vq, _v(0), _v(1))
    assert vq.q == [0]


def test_skorokhod_zero_history():
    A = np.zeros((3, 1), np.int64)
    S = np.zeros((3, 1), np.int64)
    assert skorokhod_value(A, S, 0, 3) == 0


def test_skorokhod_hand_unrolled():
    A = np.array([[2], [0]], np.int64)
    S = np.array([[1], [1]], np.int64)
    assert skorokhod_value(A, S, 0, 1) == 1
    assert skorokhod_value(A, S, 0, 2) == 0


def test_skorokhod_pure_accumulation():
    A = np.ones((3, 1), np.int64)
    S = np.zeros((3, 1), np.int64)
    assert skorokhod_value(A, S, 0, 3) == 3


def test_profile_matches_pointwise_oracle():
    rng = np.random.default_rng(21)
    A = rng.integers(0, 4, size=(60, 3)).astype(np.int64)
    S = rng.integers(0, 2, size=(60, 3)).astype(np.int64)
    prof = reflected_walk(A - S, 0)
    for t in range(1, 61):
        for e in range(3):
            assert prof[t - 1, e] == skorokhod_value(A, S, e, t)


def test_lindley_equals_skorokhod_every_slot():
    rng = np.random.default_rng(22)
    m = 4
    vq = VirtualQueues(m)
    hist_A, hist_S = [], []
    for _ in range(200):
        A = rng.integers(0, 3, size=m).astype(np.int64)
        mu = rng.integers(0, 2, size=m).astype(np.int64)
        _update(vq, A, mu)
        hist_A.append(A)
        hist_S.append(mu)
        expect = reflected_walk(np.stack(hist_A) - np.stack(hist_S), 0)[-1]
        assert np.array_equal(vq.q, expect)


def test_the_brute_force_reference_is_not_exported():
    # The one-edge brute-force form is a test reference in helpers, and
    # reflected_walk(A - S, 0) gives the whole profile.
    for name in ("skorokhod_value", "skorokhod_profile"):
        assert not hasattr(umwsim, name) and not hasattr(virtual_net, name)


def _stepped_walk(increments, start):
    """Rows of q_t = max(q_{t-1} + x_t, 0) from q_0 = start, stepped in Python."""
    q, rows = list(start), []
    for x in increments:
        q = [max(a + b, 0) for a, b in zip(q, x)]
        rows.append(q)
    return rows


def test_reflected_walk_from_a_nonzero_start_and_in_blocks():
    rng = np.random.default_rng(25)
    for _ in range(60):
        n, m = int(rng.integers(1, 150)), int(rng.integers(1, 6))
        increments = rng.integers(-3, 4, size=(n, m))
        start = rng.integers(1, 9, size=m)
        walk = reflected_walk(increments, start)
        assert walk.dtype == np.int64
        assert walk.tolist() == _stepped_walk(increments.tolist(), start.tolist())
        # Cut into blocks, each started from the last row of the one before.
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 4), replace=False)) if n > 1 else []
        carried, rows = start, []
        for block in np.split(increments, cuts):
            part = reflected_walk(block, carried)
            rows += part.tolist()
            carried = part[-1]
        assert rows == walk.tolist()


def test_associated_queue_examples():
    aq = AssociatedQueues(1)
    aq.update(_v(0), _v(1))
    assert aq.qhat.tolist() == [0]
    aq2 = AssociatedQueues(1)
    aq2.update(_v(2), _v(1))
    assert aq2.qhat.tolist() == [2]  # the Lindley queue would hold 1; gap <= A_max
    aq3 = AssociatedQueues(1)
    aq3.qhat = _v(5)
    aq3.update(_v(1), _v(2))
    assert aq3.qhat.tolist() == [4]


def test_sandwich_property_random():
    rng = np.random.default_rng(23)
    m, amax = 3, 4
    vq = VirtualQueues(m)
    aq = AssociatedQueues(m)
    for _ in range(500):
        A = rng.integers(0, amax + 1, size=m).astype(np.int64)
        A = np.minimum(A, amax)
        mu = rng.integers(0, 2, size=m).astype(np.int64)
        _update(vq, A, mu)
        aq.update(A, mu)
        q = np.array(vq.q)
        assert np.all(q <= aq.qhat)
        assert np.all(aq.qhat <= q + amax)


def test_loading_slack_examples():
    A = np.zeros((5, 1), np.int64)
    S = np.zeros((5, 1), np.int64)
    assert loading_slack(A, S, 0, 0, 5) == 0
    A2 = np.array([[2], [3], [0]], np.int64)
    S2 = np.array([[1], [1], [1]], np.int64)
    assert loading_slack(A2, S2, 0, 0, 3) == 2
    with pytest.raises(ValueError):
        loading_slack(A2, S2, 0, 2, 2)


def test_slack_bounded_by_running_max_queue():
    rng = np.random.default_rng(24)
    vq = VirtualQueues(2)
    peak = 0
    arrivals, service = [], []
    for t in range(1, 121):
        A = rng.integers(0, 3, size=2).astype(np.int64)
        mu = rng.integers(0, 2, size=2).astype(np.int64)
        _update(vq, A, mu)
        peak = max(peak, max(vq.q))
        arrivals.append(A)
        service.append(mu)
        hist_A, hist_S = np.stack(arrivals), np.stack(service)
        for e in range(2):
            for t0 in range(0, t, 7):
                assert loading_slack(hist_A, hist_S, e, t0, t) <= peak


def _route(edge_ids_with_nodes, root, covered):
    edges = tuple(TreeEdge(*rec) for rec in edge_ids_with_nodes)
    return RouteTree(root, edges, frozenset(covered))


def _dense(deposit, m: int) -> list[int]:
    A = [0] * m
    for edge_ids, count in deposit:
        for e in edge_ids:
            A[e] += count
    return A


def test_virtual_arrival_vector_examples():
    assert virtual_arrival_vector([]) == []
    path = _route([(0, 0, 1, 0), (1, 1, 2, 1)], 0, {2})
    deposit = virtual_arrival_vector([(0, path, 2)])
    assert deposit == [(frozenset({0, 1}), 2)]
    assert _dense(deposit, 4) == [2, 2, 0, 0]
    one_edge = _route([(0, 0, 1, 0)], 0, {1})
    forked = _route([(0, 0, 1, 0), (2, 1, 2, 1)], 0, {2})
    # One pair per admission, in admission order.
    deposit2 = virtual_arrival_vector([(1, forked, 1), (0, one_edge, 1)])
    assert deposit2 == [(frozenset({0, 2}), 1), (frozenset({0}), 1)]
    assert _dense(deposit2, 4) == [2, 0, 1, 0]


# ---------------------------------------------------------------------------
# The list kernels of the slot path against numpy references

def _graph_with_edges(rng, m: int) -> Graph:
    """Random connected undirected graph with exactly m edges."""
    n = int(rng.integers(2, m + 2))
    while n * (n - 1) // 2 < m:
        n += 1
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(spare)
    edges += spare[:m - len(edges)]
    return Graph(n, tuple(edges))


def _classes(rng, n: int) -> list[TrafficClass]:
    kinds = ["unicast", "broadcast", "multicast", "anycast"]
    out = []
    for cid in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(4))]
        dests = frozenset(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        if kind == "unicast":
            dests = frozenset({max(dests)})
        if kind == "broadcast":
            dests = frozenset(range(n))
        out.append(TrafficClass(cid, kind, int(rng.integers(n)), dests, 1.0))
    return out


@pytest.mark.parametrize("m", range(1, 13))
def test_list_kernels_match_numpy_references(m):
    rng = np.random.default_rng(100 + m)
    g = _graph_with_edges(rng, m)
    assert g.m == m
    classes = _classes(rng, g.node_count)
    vq = VirtualQueues(m)
    ref_q = np.zeros(m, dtype=np.int64)
    for t in range(150):
        # About one slot in three has no arrival at all.
        arrivals = {c.id: int(rng.integers(0, 4)) if rng.random() < 0.6 else 0 for c in classes}
        routes = {c.id: solve_route(g, vq.q, c) for c in classes if arrivals[c.id] > 0}
        deposit = virtual_arrival_vector([(cid, tree, arrivals[cid]) for cid, tree in routes.items()])
        assert len(deposit) == len(routes) and all(type(n) is int and n > 0 for _, n in deposit)
        ref_A = np.zeros(m, dtype=np.int64)
        for cid, tree in routes.items():
            ref_A[sorted(tree.edge_ids)] += arrivals[cid]
        # 0/1 service as the activation gives it (each active edge listed
        # once, in increasing order), and some service up to 3, an edge
        # listed once per unit in shuffled order.
        mu = rng.integers(0, 2 if t % 2 else 4, size=m)
        served = [e for e in range(m) for _ in range(int(mu[e]))]
        if t % 2 == 0:
            rng.shuffle(served)
        vq.lindley_update(deposit, served)
        ref_q = np.maximum(ref_q + ref_A - mu, 0)
        assert vq.q == ref_q.tolist() and all(type(x) is int for x in vq.q)
        assert vq.total == sum(vq.q) == int(ref_q.sum())


def test_lindley_update_serves_a_multiset():
    # Edge 1 listed three times gets three units of service: (q + A - 3)^+.
    vq = VirtualQueues(3)
    vq.lindley_update([((0, 1), 2), ((1, 2), 3)], [1, 1, 1, 2])
    assert vq.q == [2, 2, 2] and vq.total == 6
    vq.lindley_update([], [1, 1, 1, 0, 0])
    assert vq.q == [0, 0, 2] and vq.total == 2


@pytest.mark.parametrize("deposit, served", [
    ([((-1,), 2)], [-3]),          # negative ids would index from the end
    ([((0, 5), 2)], []),           # edge 5 of 3, after edge 0 is valid
    ([((0,), 2)], [3]),            # a served id out of range
    ([((0,), 2)], [-1]),
    ([((0,), -4)], []),            # a negative count would drive q below 0
    ([((0,), True)], []),          # bools are not counts
    ([((0,), 2.0)], []),
    ([((0,), np.int64(2))], []),   # q must stay Python ints
    ([((0, 1.0), 2)], []),         # 1.0 passes membership in frozenset(range(3))
    ([((0,), 2)], [1.0]),
    ([((0,), 2)], [np.float64(1)]),
], ids=["negative-ids", "id-past-m", "served-past-m", "served-negative",
        "negative-count", "bool-count", "float-count", "numpy-count",
        "float-id", "float-served", "numpy-float-served"])
def test_lindley_update_rejects_bad_ids_and_counts_before_any_change(deposit, served):
    vq = VirtualQueues(3)
    vq.lindley_update([((1, 2), 3)], [2])
    with pytest.raises(ValueError):
        vq.lindley_update(deposit, served)
    assert vq.q == [0, 3, 2] and vq.total == 5


def test_lindley_update_rejects_a_float_edge_id_before_any_change():
    vq = VirtualQueues(3)
    with pytest.raises(ValueError):
        vq.lindley_update([((0, 1.0), 2)], [])
    assert vq.q == [0, 0, 0] and vq.total == 0


def test_lindley_update_takes_numpy_integer_ids():
    # An explicit ActivationSet may hold numpy ints, and so may its vectors.
    served = ActivationVector(frozenset({np.int64(2)}), 3).edge_ids
    vq = VirtualQueues(3)
    vq.lindley_update([((np.int64(0), np.int32(2)), 2)], served)
    assert vq.q == [2, 0, 1] and vq.total == 3
    assert all(type(x) is int for x in vq.q)
