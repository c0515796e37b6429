import numpy as np
import pytest

from helpers import random_connected_graph, random_rooted_digraph
from umwsim import policy
from umwsim.errors import ConfigError
from umwsim.policy import (
    BPState,
    RouteCache,
    bp_absorb,
    bp_decide,
    solve_route,
    umw_decide,
    umw_heuristic_decide,
)
from umwsim.topology import ActivationSet, Graph, enumerate_matchings
from umwsim.traffic import TrafficClass

CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
LINE3 = Graph(3, ((0, 1), (1, 2)))
WIRED2 = ActivationSet("wired", 2)
WIRED4 = ActivationSet("wired", 4)


def test_umw_zero_queues_fewest_hops():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    decision = umw_decide(np.zeros(4, np.int64), {0: 1}, CYCLE4, WIRED4, [cls])
    # all-zero weights: hop tie-break picks a two-edge side, lexicographic first
    assert decision.routes[0].edge_ids == {0, 1}
    assert decision.activation.active == {0, 1, 2, 3}


def test_umw_routes_around_congestion():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    w = np.array([50, 50, 0, 0], np.int64)   # virtual backlog on edges 0,1
    decision = umw_decide(w, {0: 1}, CYCLE4, WIRED4, [cls])
    assert decision.routes[0].edge_ids == {2, 3}


def test_umw_no_arrival_no_route():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    decision = umw_decide(np.zeros(4, np.int64), {0: 0}, CYCLE4, WIRED4, [cls])
    assert decision.routes == {}


def test_umw_broadcast_line3_unique_tree():
    cls = TrafficClass(0, "broadcast", 0, frozenset({0, 1, 2}), 1.0)
    for w in ([0, 0], [9, 1], [3, 7]):
        decision = umw_decide(np.array(w, np.int64), {0: 1}, LINE3, WIRED2, [cls])
        assert decision.routes[0].edge_ids == {0, 1}


def test_heuristic_matches_umw_when_all_empty():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    a = umw_decide(np.zeros(4, np.int64), {0: 1}, CYCLE4, WIRED4, [cls])
    b = umw_heuristic_decide(np.zeros(4, np.int64), {0: 1}, CYCLE4, WIRED4, [cls])
    assert a.routes[0].edge_ids == b.routes[0].edge_ids
    assert a.activation.active == b.activation.active


def test_heuristic_steers_around_physical_backlog():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    q_phys = np.array([0, 40, 0, 0], np.int64)
    decision = umw_heuristic_decide(q_phys, {0: 1}, CYCLE4, WIRED4, [cls])
    assert decision.routes[0].edge_ids == {2, 3}


def test_heuristic_activation_maximizes_physical_weight():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    aset = enumerate_matchings(g)
    cls = TrafficClass(0, "unicast", 0, frozenset({3}), 1.0)
    decision = umw_heuristic_decide(np.array([3, 1, 3], np.int64), {0: 0}, g, aset, [cls])
    assert decision.activation.active == {0, 2}


def test_solve_route_cache_shares_objects():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    cache = RouteCache()
    t1 = solve_route(LINE3, np.zeros(2, np.int64), cls, cache=cache)
    t2 = solve_route(LINE3, np.ones(2, np.int64), cls, cache=cache)
    assert t1 is t2


def test_bp_requires_unicast():
    bc = TrafficClass(0, "broadcast", 0, frozenset({0, 1, 2}), 1.0)
    with pytest.raises(ConfigError):
        BPState(LINE3, [bc])


def test_bp_idle_when_empty():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    bp = BPState(LINE3, [cls])
    _, forwards = bp_decide(bp, WIRED2)
    assert forwards == []


def test_bp_lone_edge_differential():
    g = Graph(2, ((0, 1),))
    c0 = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    bp = BPState(g, [c0])
    bp_absorb(bp, {0: 3}, 0)
    activation, forwards = bp_decide(bp, ActivationSet("wired", 1))
    # backlog difference 3 - 0: one class-0 packet crosses and exits
    assert len(forwards) == 1 and forwards[0].class_id == 0
    delivered = bp.apply(forwards, 0)
    assert len(delivered) == 1
    assert bp.total_packets == 2


def test_bp_destination_absorbs():
    cls = TrafficClass(0, "unicast", 0, frozenset({0}), 1.0)
    bp = BPState(LINE3, [cls])
    done = bp_absorb(bp, {0: 2}, 5)
    assert len(done) == 2 and bp.total_packets == 0


def test_bp_never_forwards_nonpositive_differential():
    from umwsim.policy import BPPacket

    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    bp = BPState(LINE3, [cls])
    bp_absorb(bp, {0: 1}, 0)
    bp.queues[(1, 0)].append(BPPacket(99, 0, 0))
    bp.total_packets += 1
    # edge 0 sees equal backlogs (diff 0) and must idle; edge 1 forwards
    _, forwards = bp_decide(bp, WIRED2)
    assert [(f.from_node, f.to_node) for f in forwards] == [(1, 2)]


def test_bp_fifo_order():
    g = Graph(2, ((0, 1),))
    cls = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    bp = BPState(g, [cls])
    bp_absorb(bp, {0: 2}, 0)
    bp_absorb(bp, {0: 1}, 1)
    _, forwards = bp_decide(bp, ActivationSet("wired", 1))
    delivered = bp.apply(forwards, 1)
    assert delivered[0].arrival_slot == 0  # oldest first


def test_bp_undirected_uses_better_direction():
    cls = TrafficClass(0, "unicast", 2, frozenset({0}), 1.0)  # flows right to left
    bp = BPState(LINE3, [cls])
    bp_absorb(bp, {0: 4}, 0)
    _, forwards = bp_decide(bp, WIRED2)
    assert any(f.from_node == 2 and f.to_node == 1 for f in forwards)


# ---------------------------------------------------------------------------
# Route memo: the uncached solve is the oracle

def _kind_classes(g: Graph) -> list[TrafficClass]:
    last = g.node_count - 1
    return [
        TrafficClass(0, "unicast", 0, frozenset({last}), 1.0),
        TrafficClass(1, "broadcast", 0, frozenset(range(g.node_count)), 1.0),
        TrafficClass(2, "multicast", 0, frozenset({last, g.node_count // 2}), 1.0),
        TrafficClass(3, "anycast", 0, frozenset({1, last}), 1.0),
    ]


def _weight_sequence(rng, m: int, length: int = 40) -> list[np.ndarray]:
    """Random weights in which earlier vectors recur, as copies."""
    pool = [rng.integers(0, 4, m).astype(np.int64) for _ in range(5)]
    seq = []
    for _ in range(length):
        if rng.random() < 0.3:
            pool.append(rng.integers(0, 4, m).astype(np.int64))
        seq.append(pool[int(rng.integers(len(pool)))].copy())
    return seq


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_cached_solve_matches_uncached(mode):
    rng = np.random.default_rng(21)
    for directed in (False, True):
        for _ in range(8):
            g = random_rooted_digraph(rng)[0] if directed else random_connected_graph(rng)
            cache = RouteCache()
            trees = []
            for cls in _kind_classes(g):
                for w in _weight_sequence(rng, g.m):
                    cached = solve_route(g, w, cls, mode, cache)
                    assert cached == solve_route(g, w, cls, mode)  # same root, edges, covered
                    trees.append(cached)
            assert cache.hits > 0 and cache.hits + cache.misses == len(trees)
            # Interning: one object per distinct tree.
            by_key = {t.cache_key(): t for t in trees}
            assert all(t is by_key[t.cache_key()] for t in trees)
            assert cache.stats()["distinct_trees"] == len(by_key)


def test_route_memo_stays_within_cap(monkeypatch):
    monkeypatch.setattr(policy, "ROUTE_MEMO_CAP", 3)
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    cls = _kind_classes(g)[1]
    cache = RouteCache()
    ws = []
    for i in range(12):
        w = rng.integers(0, 9, g.m).astype(np.int64)
        w[0] = 100 + i   # all distinct
        ws.append(w)
    for w in ws + ws[::-1]:
        assert solve_route(g, w, cls, cache=cache) == solve_route(g, w, cls)
        assert len(cache.memo) <= 3
    # Oldest first out: only the three most recent insertions hit on the
    # way back, and the memo ends with the last three solved.
    assert (cache.hits, cache.misses) == (3, 21)
    solve_route(g, ws[0], cls, cache=cache)
    solve_route(g, ws[3], cls, cache=cache)
    assert (cache.hits, cache.misses) == (4, 22)
