import math

import numpy as np
import pytest

from helpers import bfs_depths, random_connected_graph, random_rooted_digraph, random_weights
from umwsim.capacity import enumerate_routes
from umwsim.errors import CapExceededError, DisconnectedError, TopologyError, UnreachableError
from umwsim.policy import RouteCache, solve_route
from umwsim.routing import (
    RouteTree,
    anycast_edges,
    as_weights,
    build_route,
    route_cost,
    shortest_path_edges,
    spanning_edges,
    steiner_edges,
)
from umwsim.topology import Graph
from umwsim.traffic import TrafficClass

LINE3 = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
STAR = Graph(4, ((0, 1), (1, 2), (1, 3)))  # center 1, leaves 0, 2, 3


def test_shortest_path_line3_zero_weights():
    tree = build_route(LINE3, shortest_path_edges(LINE3, [0, 0], 0, 2))
    assert [te.edge_id for te in tree.edges] == [0, 1]
    assert route_cost(tree, [0, 0]) == 0
    assert [te.depth for te in tree.edges] == [0, 1]


def test_shortest_path_avoids_heavy_side():
    tree = build_route(CYCLE4, shortest_path_edges(CYCLE4, [1, 1, 1, 10], 0, 2))
    assert tree.edge_ids == {0, 1}
    assert route_cost(tree, [1, 1, 1, 10]) == 2


def test_shortest_path_degenerate_source_is_destination():
    tree = build_route(LINE3, shortest_path_edges(LINE3, [1, 1], 1, 1))
    assert tree.edges == () and tree.covered == {1}
    assert route_cost(tree, [1, 1]) == 0


def test_shortest_path_unreachable():
    g = Graph(3, ((0, 1),))
    with pytest.raises(UnreachableError):
        build_route(g, shortest_path_edges(g, [1], 0, 2))


def test_shortest_path_tiebreak_prefers_fewer_hops():
    # two zero-cost routes; the 1-hop edge must win over the 2-hop detour
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    tree = build_route(g, shortest_path_edges(g, [0, 0, 0], 0, 2))
    assert tree.edge_ids == {2}


def test_shortest_path_tiebreak_lexicographic():
    # equal cost, equal hops: lexicographically smallest edge-id sequence
    g = Graph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    tree = build_route(g, shortest_path_edges(g, [1, 1, 1, 1], 0, 3))
    assert [te.edge_id for te in tree.edges] == [0, 2]


def test_spanning_line3():
    tree = build_route(LINE3, spanning_edges(LINE3, [5, 7], 0))
    assert tree.edge_ids == {0, 1}
    assert [te.depth for te in sorted(tree.edges)] == [0, 1]


def test_spanning_triangle():
    tree = build_route(TRIANGLE, spanning_edges(TRIANGLE, [1, 2, 3], 0))
    assert tree.edge_ids == {0, 1}
    assert route_cost(tree, [1, 2, 3]) == 3


def test_spanning_tiebreak_four_cycle():
    tree = build_route(CYCLE4, spanning_edges(CYCLE4, [1, 1, 1, 1], 0))
    assert tree.edge_ids == {0, 1, 2}


def test_spanning_disconnected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        build_route(g, spanning_edges(g, [1, 1], 0))


def test_arborescence_respects_direction():
    g = Graph(3, ((0, 1), (1, 2), (2, 0)), directed=True)
    tree = build_route(g, spanning_edges(g, [4, 1, 9], 0))
    assert tree.edge_ids == {0, 1}
    g2 = Graph(3, ((1, 0), (1, 2)), directed=True)
    with pytest.raises(DisconnectedError):
        build_route(g2, spanning_edges(g2, [1, 1], 0))


# Arcs 0->2 (edge 0) and 1->2 (edge 1) both enter node 2; 0->1 (edge 2)
# is free. As floats, 2**53 + 1 rounds to 2**53 and the two arcs tie.
BIG = 2**53
FORK = Graph(3, ((0, 2), (1, 2), (0, 1)), directed=True)


def test_arborescence_arc_costs_are_exact():
    w = [BIG + 1, BIG, 0]
    tree = build_route(FORK, spanning_edges(FORK, w, 0))
    assert tree.edge_ids == {1, 2}
    assert route_cost(tree, w) == BIG


def test_steiner_exact_costs_are_exact():
    # The same two ways into node 2, as a Steiner tree for terminals {1, 2}:
    # the DP's costs stay ints, so the cheaper arc wins.
    w = [BIG + 1, BIG, 0]
    tree = build_route(FORK, steiner_edges(FORK, w, 0, {1, 2}, mode="exact"))
    assert tree.edge_ids == {1, 2}


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("bad, message", [
    ([1, -1, 0], "nonnegative"),
    ([1, 1], "expected 3 edge weights"),
    ([[1, 1, 1], [1, 1, 1]], None),
    ([[1], [1], [1]], None),
])
def test_as_weights_rejects_malformed_weights(kind, bad, message):
    w = kind(bad)
    for check in (lambda: as_weights(w, 3),
                  lambda: solve_route(TRIANGLE, w, TrafficClass(0, "unicast", 0, frozenset({2}), 1.0))):
        with pytest.raises(TopologyError, match=message):
            check()


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("bad", [
    [math.nan, 0, 5],
    [0, math.nan, 5],
    [0.0, 0.0, math.inf],
    [1, 2, math.nan],
])
def test_solvers_reject_non_finite_weights(kind, bad):
    # NaN passes the sign test, and the solvers then ordered paths by NaN
    # comparisons: both of the first two returned the direct edge 0-2.
    triangle = Graph(3, ((0, 1), (1, 2), (0, 2)))
    w = kind(bad)
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    for check in (lambda: as_weights(w, 3),
                  lambda: solve_route(triangle, w, cls),
                  lambda: solve_route(triangle, w, cls, cache=RouteCache())):
        with pytest.raises(TopologyError, match="finite"):
            check()


def test_as_weights_accepts_large_finite_floats():
    # Their sum overflows to inf; each weight is finite, and so is accepted.
    assert as_weights([1e308, 1e308, 0.0], 3) == [1e308, 1e308, 0.0]


@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_as_weights_returns_a_list_of_python_numbers(kind):
    for values in ([3, 0, 2], [0.5, 1.0, 2.0]):
        w = as_weights(kind(values), 3)
        assert type(w) is list and w == values
        assert [type(x) for x in w] == [type(x) for x in values]


def test_steiner_all_nodes_matches_spanning_cost():
    w = [3, 1, 4, 1]
    exact = build_route(CYCLE4, steiner_edges(CYCLE4, w, 0, {0, 1, 2, 3}, mode="exact"))
    spanning = build_route(CYCLE4, spanning_edges(CYCLE4, w, 0))
    assert route_cost(exact, w) == route_cost(spanning, w)


def test_steiner_singleton_matches_shortest_path():
    w = [1, 1, 1, 10]
    tree = build_route(CYCLE4, steiner_edges(CYCLE4, w, 0, {2}, mode="exact"))
    sp = build_route(CYCLE4, shortest_path_edges(CYCLE4, w, 0, 2))
    assert route_cost(tree, w) == route_cost(sp, w)


def test_steiner_star_example():
    # root = leaf 0, terminals = the other two leaves; the whole star is optimal
    w = [1, 1, 1]
    tree = build_route(STAR, steiner_edges(STAR, w, 0, {2, 3}, mode="exact"))
    assert tree.edge_ids == {0, 1, 2}
    assert route_cost(tree, w) == 3


def test_steiner_root_in_terminals():
    tree = build_route(LINE3, steiner_edges(LINE3, [1, 1], 0, {0, 2}, mode="exact"))
    assert tree.covered == {0, 2}
    assert tree.edge_ids == {0, 1}


def test_steiner_terminal_cap():
    # nine terminals, one past the exact solver's cap of eight
    g = Graph(10, tuple((0, v) for v in range(1, 10)))
    with pytest.raises(CapExceededError, match="size 9 exceeds enumeration cap 8"):
        steiner_edges(g, np.zeros(g.m), 0, set(range(1, 10)), mode="exact")


def test_anycast_single_destination_matches_shortest_path():
    w = [1, 1, 1, 10]
    anycast = build_route(CYCLE4, anycast_edges(CYCLE4, w, 0, {2}))
    assert anycast.edge_ids == build_route(CYCLE4, shortest_path_edges(CYCLE4, w, 0, 2)).edge_ids


def test_anycast_nearer_destination_wins():
    tree = build_route(LINE3, anycast_edges(LINE3, [1, 1], 0, {1, 2}))
    assert tree.covered == {1}
    assert route_cost(tree, [1, 1]) == 1


def test_anycast_tie_smaller_node_id():
    g = Graph(3, ((0, 1), (0, 2)))
    tree = build_route(g, anycast_edges(g, [1, 1], 0, {2, 1}))
    assert tree.covered == {1}


def test_anycast_no_reachable_destination():
    g = Graph(3, ((0, 1),))
    with pytest.raises(UnreachableError):
        build_route(g, anycast_edges(g, [1], 0, {2}))


def test_route_cost_examples():
    assert route_cost(RouteTree(0, (), frozenset({0})), []) == 0
    tree = build_route(LINE3, spanning_edges(LINE3, [2, 3], 0))
    assert route_cost(tree, [2, 3]) == 5
    assert route_cost(tree, [0, 0]) == 0


def test_depth_consistency_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_connected_graph(rng)
        w = random_weights(rng, g.m)
        tree = build_route(g, spanning_edges(g, w, int(rng.integers(g.node_count))))
        assert bfs_depths(g, tree) == {te.edge_id: te.depth for te in tree.edges}


def test_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(rng)
        w = random_weights(rng, g.m).astype(float)
        t = int(rng.integers(1, g.node_count))
        base = build_route(g, shortest_path_edges(g, w, 0, t))
        scaled = build_route(g, shortest_path_edges(g, w * 7.5, 0, t))
        assert base.edge_ids == scaled.edge_ids
        spanning = build_route(g, spanning_edges(g, w, 0))
        assert spanning.edge_ids == build_route(g, spanning_edges(g, w * 3.0, 0)).edge_ids


def _brute_min_cost(routes, w):
    return min(route_cost(tree, w) for tree in routes)


def test_solvers_match_enumeration_small():
    # light version of the acceptance oracle: every solver's cost equals the
    # brute-force minimum over the enumerated admissible routes
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_connected_graph(rng)
        w = random_weights(rng, g.m)
        n = g.node_count
        t = int(rng.integers(1, n))
        uni = TrafficClass(0, "unicast", 0, frozenset({t}), 1.0)
        assert route_cost(solve_route(g, w, uni), w) == _brute_min_cost(enumerate_routes(g, uni), w)
        bc = TrafficClass(1, "broadcast", 0, frozenset(range(n)), 1.0)
        assert route_cost(solve_route(g, w, bc), w) == _brute_min_cost(enumerate_routes(g, bc), w)
        if n > 2:
            k = int(rng.integers(2, min(n - 1, 3) + 1))
            dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=k, replace=False))
            if 2 <= len(dests) < n:
                mc = TrafficClass(2, "multicast", 0, dests, 1.0)
                opt = _brute_min_cost(enumerate_routes(g, mc), w)
                assert route_cost(solve_route(g, w, mc, "exact"), w) == opt
                assert route_cost(solve_route(g, w, mc, "approx"), w) <= 2 * opt
            ac = TrafficClass(3, "anycast", 0, dests, 1.0)
            assert route_cost(solve_route(g, w, ac), w) == _brute_min_cost(enumerate_routes(g, ac), w)


def test_directed_solvers_match_enumeration():
    # denser digraphs exercise nested cycle contractions in the
    # arborescence solver
    rng = np.random.default_rng(6)
    for _ in range(60):
        g, root = random_rooted_digraph(rng)
        w = random_weights(rng, g.m)
        n = g.node_count
        bc = TrafficClass(0, "broadcast", root, frozenset(range(n)), 1.0)
        routes = enumerate_routes(g, bc)
        assert route_cost(solve_route(g, w, bc), w) == _brute_min_cost(routes, w)
        t = int(rng.integers(1, n))
        uni = TrafficClass(1, "unicast", root, frozenset({t}), 1.0)
        assert route_cost(solve_route(g, w, uni), w) == _brute_min_cost(enumerate_routes(g, uni), w)
        if n > 3:
            k = int(rng.integers(2, min(n - 1, 3) + 1))
            dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=k, replace=False))
            mc = TrafficClass(2, "multicast", root, dests, 1.0)
            opt = _brute_min_cost(enumerate_routes(g, mc), w)
            assert route_cost(solve_route(g, w, mc, "exact"), w) == opt
