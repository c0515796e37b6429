import numpy as np
import pytest

from helpers import AssociatedQueues, loading_slack
from umwsim.routing import RouteTree, TreeEdge
from umwsim.virtual_net import (
    VirtualQueues,
    skorokhod_profile,
    skorokhod_value,
    virtual_arrival_vector,
)


def _v(*xs):
    return np.array(xs, dtype=np.int64)


def test_lindley_nonnegative_part():
    vq = VirtualQueues(1)
    vq.lindley_update(_v(0), _v(1))
    assert vq.q.tolist() == [0]


def test_lindley_arithmetic():
    vq = VirtualQueues(1)
    vq.lindley_update(_v(3), _v(0))
    vq.lindley_update(_v(2), _v(1))
    assert vq.q.tolist() == [4]


def test_lindley_absorbing_at_zero():
    vq = VirtualQueues(1)
    vq.lindley_update(_v(1), _v(0))
    vq.lindley_update(_v(0), _v(1))
    assert vq.q.tolist() == [0]
    vq.lindley_update(_v(0), _v(1))
    assert vq.q.tolist() == [0]


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
    prof = skorokhod_profile(A, S)
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
        vq.lindley_update(A, mu)
        hist_A.append(A)
        hist_S.append(mu)
        expect = skorokhod_profile(np.stack(hist_A), np.stack(hist_S))[-1]
        assert np.array_equal(vq.q, expect)


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
        vq.lindley_update(A, mu)
        aq.update(A, mu)
        assert np.all(vq.q <= aq.qhat)
        assert np.all(aq.qhat <= vq.q + amax)


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
        vq.lindley_update(A, mu)
        peak = max(peak, int(vq.q.max()))
        arrivals.append(A)
        service.append(mu)
        hist_A, hist_S = np.stack(arrivals), np.stack(service)
        for e in range(2):
            for t0 in range(0, t, 7):
                assert loading_slack(hist_A, hist_S, e, t0, t) <= peak


def _route(edge_ids_with_nodes, root, covered):
    edges = tuple(TreeEdge(*rec) for rec in edge_ids_with_nodes)
    return RouteTree(root, edges, frozenset(covered))


def test_virtual_arrival_vector_examples():
    assert virtual_arrival_vector({}, {}, 4).tolist() == [0, 0, 0, 0]
    path = _route([(0, 0, 1, 0), (1, 1, 2, 1)], 0, {2})
    A = virtual_arrival_vector({0: path}, {0: 2}, 4)
    assert A.tolist() == [2, 2, 0, 0]
    one_edge = _route([(0, 0, 1, 0)], 0, {1})
    forked = _route([(0, 0, 1, 0), (2, 1, 2, 1)], 0, {2})
    A2 = virtual_arrival_vector({0: one_edge, 1: forked}, {0: 1, 1: 1}, 4)
    assert A2.tolist() == [2, 0, 1, 0]
