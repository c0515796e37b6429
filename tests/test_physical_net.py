import re
import tracemalloc

import numpy as np
import pytest

from helpers import TreeWalkNetwork, flow, node_mask, random_connected_graph, random_rooted_digraph, random_weights
from umwsim.physical_net import Packet, PhysicalNetwork
from umwsim.policy import solve_route
from umwsim.topology import ActivationVector, Graph, builtin_topology

LINE3 = Graph(3, ((0, 1), (1, 2)))
STAR = Graph(4, ((0, 1), (0, 2), (0, 3)))  # root 0 branches three ways


def _packet(uid, route, slot=0):
    return Packet(uid, 0, slot, route)


def _act(net, *edges):
    return ActivationVector(frozenset(edges), net.graph.m)


def test_admit_unicast_single_copy():
    net = PhysicalNetwork(LINE3)
    route = solve_route(LINE3, [0, 0], flow("unicast", 0, {2}))
    completed = net.admit(_packet(1, route))
    assert completed == []
    assert net.lengths == [1, 0]
    assert net.buffers[0][0][0] == 0  # hops priority 0


def test_admit_branching_root():
    net = PhysicalNetwork(STAR)
    route = solve_route(STAR, [1, 1, 1], flow("broadcast", 0, range(STAR.node_count)))
    net.admit(_packet(1, route))
    assert net.lengths == [1, 1, 1]


def test_admit_degenerate_source_destination():
    net = PhysicalNetwork(LINE3)
    route = solve_route(LINE3, [0, 0], flow("unicast", 1, {1}))
    pkt = _packet(7, route, slot=3)
    completed = net.admit(pkt)  # admission completes it
    assert completed == [pkt] and pkt.reached == node_mask({1}) == 1 << 1
    assert net.total_copies == 0


def test_forward_delivers_at_leaf():
    net = PhysicalNetwork(LINE3)
    route = solve_route(LINE3, [0, 0], flow("unicast", 0, {2}))
    pkt = _packet(1, route)
    net.admit(pkt)
    completed = net.forward(_act(net, 0, 1))
    assert completed == []  # copy moved from edge 0 to edge 1, no delivery yet
    assert net.lengths == [0, 1]
    completed = net.forward(_act(net, 0, 1))  # the second forward completes it
    assert completed == [pkt] and pkt.reached == node_mask({2})


def test_lowest_hops_copy_crosses_first():
    net = PhysicalNetwork(LINE3)
    far = solve_route(LINE3, [0, 0], flow("unicast", 0, {2}))
    veteran = _packet(1, far)
    net.admit(veteran)
    net.forward(_act(net, 0))  # veteran copy now waits at edge 1 with hops=1
    near = Packet(2, 0, 1, solve_route(LINE3, [0, 0], flow("unicast", 1, {2})))
    net.admit(near)              # fresh copy at edge 1 with hops=0
    completed = net.forward(_act(net, 1))
    assert [pkt.uid for pkt in completed] == [2]  # the fewest-hops copy wins


def test_crossing_duplicates_to_children():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    net = PhysicalNetwork(g)
    route = solve_route(g, [1, 1, 1], flow("broadcast", 0, range(g.node_count)))
    pkt = _packet(1, route)
    net.admit(pkt)
    net.forward(_act(net, 0))
    assert net.lengths == [0, 1, 1]
    # both copies carry hops=1
    assert net.buffers[1][0][0] == 1 and net.buffers[2][0][0] == 1
    assert pkt.reached == node_mask({0, 1})  # node 1 reached (0 is the root, required for broadcast)


def test_broadcast_delivery_bookkeeping():
    net = PhysicalNetwork(STAR)
    route = solve_route(STAR, [0, 0, 0], flow("broadcast", 0, range(STAR.node_count)))
    pkt = _packet(1, route)
    net.admit(pkt)
    assert pkt.reached == node_mask({0})  # the source holds its own broadcast packet
    assert net.forward(_act(net, 0, 1, 2)) == [pkt]
    assert pkt.reached == node_mask({0, 1, 2, 3}) == route.covered_mask == 0b1111
    assert net.total_copies == 0


def test_star_broadcast_reaching_both_leaves_in_one_slot_returned_once():
    # Both leaves of the two-leaf star are reached in slot 0; the packet
    # comes back once, from the crossing that completes it.
    star = Graph(3, ((0, 1), (0, 2)))
    net = PhysicalNetwork(star)
    pkt = _packet(1, solve_route(star, [0, 0], flow("broadcast", 0, range(star.node_count))))
    assert net.admit(pkt) == []
    assert net.forward(_act(net, 0, 1)) == [pkt]
    assert pkt.reached == node_mask({0, 1, 2})
    assert net.forward(_act(net, 0, 1)) == []


def test_edges_cross_in_increasing_id_order():
    # frozenset({1, 8}) iterates as [8, 1]; the crossing order, and so the
    # order of completions, must still follow the edge ids.
    star = Graph(10, tuple((0, v) for v in range(1, 10)))
    net = PhysicalNetwork(star)
    assert list(frozenset({1, 8})) == [8, 1]
    far = _packet(0, solve_route(star, [0] * star.m, flow("unicast", 0, {9})))   # edge 8
    near = _packet(1, solve_route(star, [0] * star.m, flow("unicast", 0, {2})))  # edge 1
    for pkt in (far, near):
        net.admit(pkt)
    act = ActivationVector(frozenset({1, 8}), star.m)
    assert act.edge_ids == (1, 8)
    assert net.forward(act) == [near, far]


def test_multicast_relay_nodes_are_never_delivered():
    # Multicast 0 -> {2, 4} relays through nodes 1 and 3; a relay's bit
    # never enters the packet's mask, so completion is mask equality.
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)))
    route = solve_route(g, [0] * g.m, flow("multicast", 0, {2, 4}))
    assert route.covered == {2, 4} and route.edge_ids == {0, 1, 3, 4}
    net = PhysicalNetwork(g)
    pkt = _packet(1, route)
    assert net.admit(pkt) == []
    assert net.forward(_act(net, 0)) == [] and pkt.reached == 0                # reached relay 1
    assert net.forward(_act(net, 1, 4)) == [] and pkt.reached == node_mask({2})   # 2, and relay 3
    assert net.forward(_act(net, 3)) == [pkt] and pkt.reached == node_mask({2, 4})
    assert pkt.reached == route.covered_mask == 0b10100 and net.total_copies == 0


def test_active_empty_edge_is_noop():
    net = PhysicalNetwork(LINE3)
    completed = net.forward(_act(net, 0, 1))
    assert completed == [] and net.total_copies == 0


def test_one_copy_per_active_edge_per_slot():
    net = PhysicalNetwork(LINE3)
    r = solve_route(LINE3, [0, 0], flow("unicast", 0, {1}))
    for uid in range(5):
        net.admit(_packet(uid, r))
    assert net.lengths == [5, 0]
    net.forward(_act(net, 0))
    assert net.lengths == [4, 0]


def test_no_multi_hop_teleport_within_slot():
    # wired networks activate every edge; a copy must still advance one hop per slot
    net = PhysicalNetwork(LINE3)
    pkt = _packet(1, solve_route(LINE3, [0, 0], flow("unicast", 0, {2})))
    net.admit(pkt)
    assert net.forward(_act(net, 0, 1)) == []
    assert pkt.reached == 0


def test_ento_pop_order_audit():
    # over a random run, every forwarded copy is one that held the minimum
    # hop count in its buffer at pop time
    rng = np.random.default_rng(9)
    net = PhysicalNetwork(LINE3)
    path01 = solve_route(LINE3, [0, 0], flow("unicast", 0, {2}))
    path12 = solve_route(LINE3, [0, 0], flow("unicast", 1, {2}))
    uid = 0
    for slot in range(200):
        for _ in range(int(rng.integers(0, 3))):
            net.admit(_packet(uid, path01, slot))
            uid += 1
        for _ in range(int(rng.integers(0, 2))):
            net.admit(_packet(uid, path12, slot))
            uid += 1
        active = frozenset({int(rng.integers(0, 2))})
        scan_min = {
            e: min((c[0] for c in net.buffers[e]), default=None) for e in active
        }
        heap_top = {e: net.buffers[e][0][0] if net.buffers[e] else None for e in active}
        net.forward(ActivationVector(active, LINE3.m))
        for e in active:
            # the heap pops its top, and the top really is the fewest-hops copy
            assert heap_top[e] == scan_min[e]


def test_exactly_once_delivery_guard():
    net = PhysicalNetwork(STAR)
    route = solve_route(STAR, [0, 0, 0], flow("broadcast", 0, range(STAR.node_count)))
    pkt = _packet(1, route)
    net.admit(pkt)
    pkt.reached |= 1 << 1  # plant a delivery to node 1 before its copy crosses
    planted = pkt.reached
    with pytest.raises(RuntimeError, match=re.escape("packet 1 delivered twice to node 1")):
        net.forward(_act(net, 0))
    assert pkt.reached == planted  # the second delivery left the mask as it was


def test_broadcast_past_one_machine_word_completes_once():
    # A 70-node path: the mask needs bits 0..69, past one 64-bit word. Every
    # slot every edge is active, so the copy reaches node k + 1 in slot k and
    # the packet completes exactly once, in slot 68.
    n = 70
    g = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
    route = solve_route(g, [0] * g.m, flow("broadcast", 0, range(n)))
    assert route.covered_mask == (1 << n) - 1
    net = PhysicalNetwork(g)
    pkt = _packet(1, route)
    assert net.admit(pkt) == []
    returned = [(slot, net.forward(_act(net, *range(g.m)))) for slot in range(n + 5)]
    assert [(slot, done) for slot, done in returned if done] == [(n - 2, [pkt])]
    assert pkt.reached == route.covered_mask == node_mask(range(n))
    assert net.total_copies == 0


def test_in_flight_packet_memory_stays_small():
    # The backlog of an overloaded run grows without bound, so what each
    # in-flight packet holds sets its memory: 2000 broadcast packets on the
    # 3x3 grid, partly delivered by 3 slots over the root edges, must hold
    # under 300 traced bytes each (the packet, its heap entries, its uid).
    g, _, classes = builtin_topology("grid3x3_broadcast")
    (cls,) = classes
    route = solve_route(g, [0] * g.m, cls)
    act = ActivationVector(frozenset(route.root_edge_ids), g.m)
    count = 2000
    tracemalloc.start()
    try:
        net = PhysicalNetwork(g)
        base = tracemalloc.get_traced_memory()[0]
        completed = []
        for uid in range(count):
            completed += net.admit(Packet(uid, cls.id, 0, route))
        for _ in range(3):
            completed += net.forward(act)
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    in_flight = count - len(completed)
    assert in_flight == count and net.total_copies > count
    assert traced / in_flight < 300


def test_forward_rejects_an_edge_off_the_route():
    net = PhysicalNetwork(LINE3)
    pkt = _packet(4, solve_route(LINE3, [0, 0], flow("unicast", 0, {1})))
    net.buffers[1].append((0, 0, 4, pkt))  # edge 1 is not on the 0->1 path
    with pytest.raises(RuntimeError, match=re.escape("edge 1 is not on packet 4's route")):
        net.forward(_act(net, 1))


def test_layer_counters():
    net = PhysicalNetwork(LINE3)
    pkt = _packet(1, solve_route(LINE3, [0, 0], flow("unicast", 0, {2})))
    net.admit(pkt)
    assert net.layer_counters().tolist() == [1, 0]
    net.forward(_act(net, 0))
    assert net.layer_counters().tolist() == [0, 1]
    assert net.layer_counters().sum() == sum(net.lengths)


def _per_copy_layer_counts(net) -> np.ndarray:
    """Reference for PhysicalNetwork.layer_counters: one numpy element
    update per waiting copy."""
    counts = np.zeros(max(net.graph.node_count - 1, 1), dtype=np.int64)
    for buf in net.buffers:
        for hops, _, _, _ in buf:
            counts[hops] += 1
    return counts


def test_layer_counters_match_a_per_copy_count_on_random_buffers():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = random_connected_graph(rng)
        net = PhysicalNetwork(g)
        route = solve_route(g, [0] * g.m, flow("broadcast", 0, range(g.node_count)))
        layers = max(g.node_count - 1, 1)
        for uid in range(int(rng.integers(0, 40))):
            entry = (int(rng.integers(layers)), 0, uid, Packet(uid, 0, 0, route))
            net.buffers[int(rng.integers(g.m))].append(entry)
        got, want = net.layer_counters(), _per_copy_layer_counts(net)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    # A copy past the last layer is an IndexError, as in the per-copy count.
    net.buffers[0].append((layers, 0, 99, Packet(99, 0, 0, route)))
    with pytest.raises(IndexError):
        _per_copy_layer_counts(net)
    with pytest.raises(IndexError):
        net.layer_counters()


def test_conservation_random_traffic():
    rng = np.random.default_rng(10)
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)))
    net = PhysicalNetwork(g)
    packets = []
    completed = []
    route = solve_route(g, [0] * g.m, flow("multicast", 0, {2, 4}), "exact")
    for slot in range(200):
        if rng.random() < 0.4:
            packets.append(Packet(len(packets), 0, slot, route))
            completed += net.admit(packets[-1])
        active = frozenset(int(x) for x in rng.choice(g.m, size=2, replace=False))
        completed += net.forward(ActivationVector(active, g.m))
        assert int(net.layer_counters().sum()) == net.total_copies
        assert min(net.lengths) >= 0
    # every packet that completed was returned, and only once
    assert sorted(pkt.uid for pkt in completed) == [pkt.uid for pkt in packets if pkt.reached == node_mask(route.covered)]
    assert completed


def _trees_of_every_kind(rng, g, root):
    """Unicast, broadcast, multicast and anycast routes out of root under
    random weights, plus the edgeless route of a packet born at its target."""
    n = g.node_count
    trees = [solve_route(g, [0] * g.m, flow("unicast", root, {root}))]
    for _ in range(3):
        w = random_weights(rng, g.m)
        target = int(rng.choice([v for v in range(n) if v != root]))
        terminals = [int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        trees.append(solve_route(g, w, flow("unicast", root, {target})))
        trees.append(solve_route(g, w, flow("broadcast", root, range(g.node_count))))
        trees.append(solve_route(g, w, flow("multicast", root, terminals)))
        trees.append(solve_route(g, w, flow("anycast", root, terminals)))
    return trees


def _network_state(net):
    return ([[(hops, arr, uid, pkt.uid) for hops, arr, uid, pkt in buf] for buf in net.buffers],
            [int(x) for x in net.lengths], net.total_copies)


@pytest.mark.parametrize("seed", range(12))
def test_forwarding_matches_tree_walk_reference(seed):
    # Random admissions along trees of all four kinds and random active
    # sets; both forwarders must return the same completed packets, in the
    # same order, and agree on every buffer. Each packet's delivered nodes
    # and the slot whose call returned it must match the reference's own
    # record of them.
    rng = np.random.default_rng(seed)
    if seed % 2:
        g, root = random_rooted_digraph(rng)
    else:
        g = random_connected_graph(rng)
        root = int(rng.integers(0, g.node_count))
    trees = _trees_of_every_kind(rng, g, root)
    net, ref = PhysicalNetwork(g), TreeWalkNetwork(g)
    packets = []
    done_at: dict[int, int] = {}  # uid -> slot of the call that returned it
    for slot in range(300):
        completed, ref_completed = [], []
        for _ in range(int(rng.integers(0, 4))):
            tree = trees[int(rng.integers(0, len(trees)))]
            pair = (Packet(len(packets), 0, slot, tree), Packet(len(packets), 0, slot, tree))
            packets.append(pair)
            completed += net.admit(pair[0])
            ref_completed += ref.admit(pair[1], slot)
        active = frozenset(int(e) for e in np.flatnonzero(rng.random(g.m) < 0.5))
        completed += net.forward(ActivationVector(active, g.m))
        ref_completed += ref.forward(active, slot)
        assert [pkt.uid for pkt in completed] == [pkt.uid for pkt in ref_completed]
        for pkt in completed:
            assert pkt.uid not in done_at
            done_at[pkt.uid] = slot
        assert _network_state(net) == _network_state(ref)
        for pkt, _ in packets:
            assert pkt.reached == node_mask(ref.delivered.get(pkt.uid, ()))
        assert done_at == ref.completed_at
    assert done_at and net.total_copies > 0
