import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ReferenceBPState,
    bp_slot,
    max_weight_slot,
    one_slot,
    random_connected_graph,
    random_rooted_digraph,
)
from umwsim import policy
from umwsim.activation import max_weight_activation
from umwsim.engine import BLOCK, MetricsOptions, _DiagnosticState, load_config
from umwsim.errors import ConfigError
from umwsim.policy import BPPacket, BPState, Forward, MaxWeightState, solve_route
from umwsim.topology import ActivationSet, Graph, enumerate_matchings
from umwsim.traffic import TrafficClass, arrival_table, effective_amax
from umwsim.virtual_net import VirtualQueues, virtual_arrival_vector

CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
LINE3 = Graph(3, ((0, 1), (1, 2)))
WIRED1 = ActivationSet("wired", 1)
WIRED2 = ActivationSet("wired", 2)
WIRED4 = ActivationSet("wired", 4)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _stepper(policy_name, g, aset, classes, steiner_mode="exact"):
    return MaxWeightState(g, aset, classes, policy_name, steiner_mode, frozenset())


@pytest.mark.parametrize("name", ["bp", "UMW", "nonsense"])
def test_max_weight_state_rejects_other_policies(name):
    # Any name but "umw" would otherwise run the heuristic's weights.
    with pytest.raises(ConfigError, match="got " + repr(name)):
        _stepper(name, CYCLE4, WIRED4, [])


def test_umw_zero_queues_fewest_hops():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    w = np.zeros(4, np.int64)
    # all-zero weights: hop tie-break picks a two-edge side, lexicographic first
    assert solve_route(CYCLE4, w, cls).edge_ids == {0, 1}
    assert max_weight_activation(WIRED4, w).active == {0, 1, 2, 3}


def test_umw_routes_around_congestion():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    w = np.array([50, 50, 0, 0], np.int64)   # virtual backlog on edges 0,1
    assert solve_route(CYCLE4, w, cls).edge_ids == {2, 3}


def test_umw_no_arrival_no_route(monkeypatch):
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    real = policy.virtual_arrival_vector
    deposits = []

    def recording(*args):
        deposits.append(real(*args))
        return deposits[-1]

    # The wired service would cancel a deposit in the queues themselves, so
    # the deposit is read where the stepper builds it.
    monkeypatch.setattr(policy, "virtual_arrival_vector", recording)
    stepper = _stepper("umw", CYCLE4, WIRED4, [cls])
    assert one_slot(stepper, 0, {0: 0}) == ([], 0, 0)
    # no route solved and no virtual arrival deposited: a row of zero
    # counts is a slot without arrivals, which builds no deposit
    assert stepper.hits + stepper.misses == 0
    assert deposits == []
    # A class with no arrivals may be absent from the dict one_slot turns
    # into a row; the slot is the same one.
    assert one_slot(stepper, 1, {}) == ([], 0, 0)
    assert stepper.hits + stepper.misses == 0
    assert deposits == []
    # The recorder is in place: a slot with an arrival deposits on its route.
    one_slot(stepper, 2, {0: 1})
    assert stepper.misses == 1
    assert deposits == [[(frozenset({0, 1}), 1)]]


def test_umw_broadcast_line3_unique_tree():
    cls = TrafficClass(0, "broadcast", 0, frozenset({0, 1, 2}), 1.0)
    for w in ([0, 0], [9, 1], [3, 7]):
        assert solve_route(LINE3, np.array(w, np.int64), cls).edge_ids == {0, 1}


def test_heuristic_matches_umw_when_all_empty():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    umw = _stepper("umw", CYCLE4, WIRED4, [cls])
    heur = _stepper("umw-heuristic", CYCLE4, WIRED4, [cls])
    a, b = umw.weights(), heur.weights()
    assert solve_route(CYCLE4, a, cls).edge_ids == solve_route(CYCLE4, b, cls).edge_ids
    assert max_weight_activation(WIRED4, a).active == max_weight_activation(WIRED4, b).active
    # Once copies wait, UMW still weighs by its virtual queues and the
    # heuristic by the copies waiting in each edge's buffer.
    one_slot(umw, 0, {0: 2})
    one_slot(heur, 0, {0: 2})
    assert umw.weights() is umw.vq.q
    assert heur.weights() == [len(buf) for buf in heur.net.buffers] == [1, 1, 0, 0]


def test_heuristic_steers_around_physical_backlog():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    q_phys = np.array([0, 40, 0, 0], np.int64)
    assert solve_route(CYCLE4, q_phys, cls).edge_ids == {2, 3}


def test_heuristic_activation_maximizes_physical_weight():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    aset = enumerate_matchings(g)
    assert max_weight_activation(aset, np.array([3, 1, 3], np.int64)).active == {0, 2}


def test_solve_route_cache_shares_objects():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    trees = {}
    t1 = solve_route(LINE3, np.zeros(2, np.int64), cls, trees=trees)
    t2 = solve_route(LINE3, np.ones(2, np.int64), cls, trees=trees)
    assert t1 is t2 and list(trees.values()) == [t1]


def test_bp_requires_unicast():
    bc = TrafficClass(0, "broadcast", 0, frozenset({0, 1, 2}), 1.0)
    with pytest.raises(ConfigError):
        BPState(LINE3, WIRED2, [bc])


def test_bp_idle_when_empty():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    bp = BPState(LINE3, WIRED2, [cls])
    assert bp.decide() == []
    assert one_slot(bp, 0, {0: 0}) == ([], 0, 0)


def test_bp_lone_edge_differential():
    g = Graph(2, ((0, 1),))
    c0 = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    bp = BPState(g, WIRED1, [c0])
    # backlog difference 3 - 0: one class-0 packet crosses and exits
    assert one_slot(bp, 0, {0: 3}) == ([(0, 0)], 2, 0)
    assert bp.total_packets == 2
    assert bp.decide() == [Forward(0, 1, 0)]


def test_bp_destination_absorbs():
    cls = TrafficClass(0, "unicast", 0, frozenset({0}), 1.0)
    bp = BPState(LINE3, WIRED2, [cls])
    assert one_slot(bp, 5, {0: 2}) == ([(0, 0), (0, 0)], 0, 0)
    assert bp.total_packets == 0


@pytest.mark.parametrize("config, policy_name, diagnostics", [
    ("mixed_kinds.json", "umw", True),
    ("grid3x3_broadcast.json", "umw", False),
    ("grid3x3_broadcast.json", "umw-heuristic", False),
    ("twinpath_compare.json", "bp", False),
])
def test_run_block_on_dense_rows_matches_slot_reference_on_sparse_dicts(config, policy_name, diagnostics):
    # Two fresh policies on the same arrivals: run_block gets every class's
    # count as block rows of engine.BLOCK slots, and the per-slot reference
    # (max_weight_slot or bp_slot) gets only the classes with arrivals ({}
    # for a slot without any). They must agree slot by slot and end in the
    # same state.
    cfg = load_config(CONFIGS / config, horizon=600, policy=policy_name,
                      metrics=MetricsOptions(diagnostics=diagnostics))
    g, aset, classes = cfg.resolve()
    ids = [c.id for c in classes]
    checkpoints = frozenset({299, 599})
    if policy_name == "bp":
        block, reference, slot = BPState(g, aset, classes), BPState(g, aset, classes), bp_slot
    else:
        def state():
            diag = None
            if diagnostics:
                diag = _DiagnosticState(g.m, effective_amax(classes, cfg.arrival), cfg.horizon)
            return MaxWeightState(g, aset, classes, policy_name, cfg.steiner_mode, checkpoints, diag)

        block, reference, slot = state(), state(), max_weight_slot
    rows = arrival_table(classes, cfg.arrival, cfg.horizon, cfg.seed).tolist()
    want_q, want_vq, want_done = [], [], []
    empty = 0
    for t, row in enumerate(rows):
        few = {cid: n for cid, n in zip(ids, row) if n}
        empty += not few
        done, total_q, total_vq = slot(reference, t, few)
        want_done += [(t, cid, sojourn) for cid, sojourn in done]
        want_q.append(total_q)
        want_vq.append(total_vq)
    assert 0 < empty < cfg.horizon
    got_q, got_vq, got_done = [], [], []
    for start in range(0, cfg.horizon, BLOCK):
        total_q, total_vq, done = block.run_block(start, rows[start:start + BLOCK])
        got_q += total_q
        got_vq += total_vq
        got_done += done
    assert (got_q, got_vq, got_done) == (want_q, want_vq, want_done)
    assert block.violations == reference.violations
    if policy_name == "bp":
        assert block.queues == reference.queues and block.total_packets == reference.total_packets
    else:
        assert (block.vq.q, block.vq.total) == (reference.vq.q, reference.vq.total)
        assert block.net.lengths == reference.net.lengths
        assert block.net.total_copies == reference.net.total_copies
        assert block.route_stats() == reference.route_stats()
        assert block.uid == reference.uid
        if diagnostics:
            assert block.diag.violations == reference.diag.violations


def test_bp_never_forwards_nonpositive_differential():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    bp = BPState(LINE3, WIRED2, [cls])
    one_slot(bp, 0, {0: 1})   # the packet crosses edge 0 to node 1
    # Slot 1: nodes 0 and 1 hold one packet each, so edge 0 sees a
    # differential of 0 and must idle; edge 1 forwards the slot-0 packet.
    assert one_slot(bp, 1, {0: 1}) == ([(0, 1)], 1, 0)
    assert [len(q) for q in bp.queues[0]] == [1, 0, 0]


def test_bp_fifo_order():
    g = Graph(2, ((0, 1),))
    cls = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    bp = BPState(g, WIRED1, [cls])
    one_slot(bp, 0, {0: 2})
    # the slot-0 packet left behind goes before the slot-1 arrival
    completed, _, _ = one_slot(bp, 1, {0: 1})
    assert completed == [(0, 1)]  # oldest first
    assert list(bp.queues[0][0]) == [BPPacket(0, 1)]


def test_bp_undirected_uses_better_direction():
    cls = TrafficClass(0, "unicast", 2, frozenset({0}), 1.0)  # flows right to left
    bp = BPState(LINE3, WIRED2, [cls])
    one_slot(bp, 0, {0: 4})
    assert [len(q) for q in bp.queues[0]] == [0, 1, 3]
    # Both edges forward against their u->v orientation.
    assert bp.decide() == [Forward(1, 0, 0), Forward(2, 1, 0)]


def test_bp_tie_goes_to_the_lower_class_id():
    g = Graph(2, ((0, 1),))
    # Listed out of id order, so the tie-break cannot come from list order.
    c7 = TrafficClass(7, "unicast", 0, frozenset({1}), 1.0)
    c3 = TrafficClass(3, "unicast", 0, frozenset({1}), 1.0)
    bp = BPState(g, WIRED1, [c7, c3])
    assert one_slot(bp, 0, {7: 2, 3: 2}) == ([(3, 0)], 3, 0)
    # The larger differential wins over the lower id...
    assert bp.decide() == [Forward(0, 1, 7)]
    # ...and with the differentials tied at 2 again, class 3 forwards.
    assert one_slot(bp, 1, {7: 0, 3: 1}) == ([(3, 1)], 3, 0)


def _recorded_decide(monkeypatch, bp) -> list:
    """Calls of bp.decide() during its steps; each call's forwards are
    appended to the returned list."""
    calls = []
    real = bp.decide

    def recording():
        calls.append(real())
        return calls[-1]

    monkeypatch.setattr(bp, "decide", recording)
    return calls


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("interference", [False, True])
def test_bp_matches_reference(monkeypatch, directed, interference):
    # The reference splits a slot over absorb_arrivals, decide and apply and
    # breaks ties with (-differential, class id, direction) tuples. Heavy
    # arrivals on small graphs make backlogs tie often.
    rng = np.random.default_rng(17 + 2 * directed + interference)
    for _ in range(20):
        g = random_rooted_digraph(rng)[0] if directed else random_connected_graph(rng)
        aset = enumerate_matchings(g) if interference else ActivationSet("wired", g.m)
        ids = rng.permutation(9)[:int(rng.integers(1, 5))].tolist()   # out of id order
        classes = [TrafficClass(cid, "unicast", int(rng.integers(g.node_count)),
                                frozenset({int(rng.integers(g.node_count))}), 1.0) for cid in ids]
        ref, bp = ReferenceBPState(g, aset, classes), BPState(g, aset, classes)
        forwards = _recorded_decide(monkeypatch, bp)
        for t in range(120):
            arrivals = {cid: int(rng.integers(0, 4)) for cid in ids}
            done = ref.absorb_arrivals(arrivals, t)
            _, ref_forwards = ref.decide()
            done += ref.apply(ref_forwards, t)
            want = ([(p.class_id, t - p.arrival_slot) for p in done], ref.total_packets, 0)
            assert one_slot(bp, t, arrivals) == want
            assert len(forwards) == t + 1 and forwards[-1] == [(f.from_node, f.to_node, f.class_id) for f in ref_forwards]
        for cid in ids:
            for u in range(g.node_count):
                assert list(bp.queues[cid][u]) == [(p.class_id, p.arrival_slot) for p in ref.queues[(u, cid)]]


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


def _memo_state(g: Graph, classes: list[TrafficClass], mode: str = "exact") -> MaxWeightState:
    """A UMW state on g whose weights a test sets through _memo_route."""
    return _stepper("umw", g, ActivationSet("wired", g.m), classes, steiner_mode=mode)


def _memo_route(state: MaxWeightState, t: int, w: list[int], cls: TrafficClass):
    """The route of cls's one arrival in slot t, under weights w, as the
    state's memo holds it after the slot. The weights are written into the
    state's virtual queues, which a "umw" state weighs by."""
    state.vq.q[:] = w
    state.vq.total = sum(w)
    one_slot(state, t, {cls.id: 1})
    return state.memo[tuple(w)][1][cls.id]


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_cached_solve_matches_uncached(mode):
    rng = np.random.default_rng(21)
    for directed in (False, True):
        for _ in range(8):
            g = random_rooted_digraph(rng)[0] if directed else random_connected_graph(rng)
            state = _memo_state(g, _kind_classes(g), mode)
            trees = []
            for cls in _kind_classes(g):
                for w in _weight_sequence(rng, g.m):
                    cached = _memo_route(state, len(trees), w.tolist(), cls)
                    assert cached == solve_route(g, w, cls, mode)  # same root, edges, covered
                    trees.append(cached)
            assert state.hits > 0 and state.hits + state.misses == len(trees)
            # Interning: one object per distinct tree.
            by_key = {(t.root, t.edge_ids, t.covered): t for t in trees}
            assert all(t is by_key[t.root, t.edge_ids, t.covered] for t in trees)
            assert len(state.trees) == state.route_stats()["distinct_trees"] == len(by_key)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_cached_solve_on_lists_matches_uncached_on_arrays(mode):
    # The slot path solves on lists of Python ints; the reference is the
    # uncached solve on the same weights as an int64 array. Arrays, lists
    # and tuples of equal ints intern one tree.
    rng = np.random.default_rng(31)
    for directed in (False, True):
        for _ in range(8):
            g = random_rooted_digraph(rng)[0] if directed else random_connected_graph(rng)
            state = _memo_state(g, _kind_classes(g), mode)
            trees = {}
            t = 0
            for cls in _kind_classes(g):
                for arr in _weight_sequence(rng, g.m, 12):
                    ref = solve_route(g, arr, cls, mode)
                    w = arr.tolist()
                    assert solve_route(g, w, cls, mode) == ref
                    assert _memo_route(state, t, w, cls) == ref
                    t += 1
                    interned = [solve_route(g, x, cls, mode, trees) for x in (w, arr, tuple(w))]
                    assert interned[0] == ref and all(x is interned[0] for x in interned)


def test_route_memo_solves_2_53_int_weights_exactly():
    # Unicast 0->2: edge 0 directly, or edges 1 and 2. The two-edge path
    # costs 2**53 + 3 < 2**53 + 4, a difference that floats would round away.
    g = Graph(3, ((0, 2), (0, 1), (1, 2)))
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    ints = [2**53 + 4, 2**53 + 2, 1]
    state = _memo_state(g, [cls])
    assert _memo_route(state, 0, ints, cls).edge_ids == {1, 2}
    assert _memo_route(state, 1, ints, cls).edge_ids == {1, 2}
    assert (state.hits, state.misses) == (1, 1)


def test_route_memo_stays_within_cap(monkeypatch):
    monkeypatch.setattr(policy, "ROUTE_MEMO_CAP", 3)
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    cls = _kind_classes(g)[1]
    state = _memo_state(g, [cls])
    ws = []
    for i in range(12):
        w = rng.integers(0, 9, g.m).tolist()
        w[0] = 100 + i   # all distinct
        ws.append(w)
    for t, w in enumerate(ws + ws[::-1]):
        assert _memo_route(state, t, w, cls) == solve_route(g, w, cls)
        assert len(state.memo) == len(state.order) <= 3
    # Oldest first out: only the three most recent insertions hit on the
    # way back, and the memo ends with the last three solved.
    assert (state.hits, state.misses) == (3, 21)
    _memo_route(state, 24, ws[0], cls)
    _memo_route(state, 25, ws[3], cls)
    assert (state.hits, state.misses) == (4, 22)


@pytest.mark.parametrize("policy_name, cap", [("umw", 8), ("umw", policy.ROUTE_MEMO_CAP), ("umw-heuristic", 8)])
def test_stored_transitions_replay_the_lindley_update(policy_name, cap, monkeypatch):
    # A "umw" slot's virtual half is a function of its weight vector and its
    # arrival row, so the memo entry of the vector stores the transition per
    # row; each must be what the uncached deposit and Lindley update give.
    # The heuristic's weights, the buffer lengths, are not its state, so it
    # stores none. Transitions go with their vector, so the cap still holds.
    monkeypatch.setattr(policy, "ROUTE_MEMO_CAP", cap)
    cfg = load_config(CONFIGS / "twinpath_compare.json", horizon=3000, policy=policy_name)
    g, aset, classes = cfg.resolve()
    state = _stepper(policy_name, g, aset, classes)
    table = arrival_table(classes, cfg.arrival, cfg.horizon, cfg.seed)
    for start in range(0, cfg.horizon, BLOCK):
        state.run_block(start, table[start:start + BLOCK].tolist())
        assert len(state.memo) == len(state.order) <= cap
    stored = [(key, act, known, row, step)
              for key, (act, known, taken) in state.memo.items() for row, step in (taken or {}).items()]
    if policy_name == "umw-heuristic":
        assert stored == []
        return
    assert stored
    for key, act, known, row, (after, total, deposit, admitted) in stored:
        want = [(cls.id, known[cls.id], n) for cls, n in zip(classes, row) if n > 0]
        assert list(admitted) == want
        assert deposit == (virtual_arrival_vector(want) if want else ())
        vq = VirtualQueues(g.m)
        vq.q[:], vq.total = key, sum(key)
        vq.lindley_update(deposit, act.edge_ids)
        assert (after, total) == (tuple(vq.q), vq.total)


def test_stored_transitions_stay_small_on_a_long_stable_run():
    # A stable run revisits few weight vectors and few rows under each, so
    # its transitions stay few, and each holds a tuple of m ints, the
    # slot's deposit and its admissions: at 20,000 twinpath slots the memo
    # held 84 vectors and 535 transitions in 0.13 MB, and the state's
    # traced peak was 0.42 MB.
    cfg = load_config(CONFIGS / "twinpath_compare.json", horizon=20_000, policy="umw")
    g, aset, classes = cfg.resolve()
    table = arrival_table(classes, cfg.arrival, cfg.horizon, cfg.seed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = _stepper("umw", g, aset, classes)
        for start in range(0, cfg.horizon, BLOCK):
            state.run_block(start, table[start:start + BLOCK].tolist())
        held, peak = tracemalloc.get_traced_memory()
        vectors = len(state.memo)
        transitions = sum(len(taken or ()) for _, _, taken in state.memo.values())
        state.memo.clear()
        memo_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert transitions > 2 * vectors
    assert memo_bytes < 512 * (vectors + transitions)
    assert peak - base < 1_000_000
