import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    bfs_depths,
    contraction_arborescence,
    flow,
    full_shortest_labels,
    pruned_sp_tree,
    random_connected_graph,
    random_rooted_digraph,
    random_weights,
)
from umwsim import routing
from umwsim.capacity import enumerate_routes
from umwsim.errors import CapExceededError, DisconnectedError, TopologyError, UnreachableError
from umwsim.policy import solve_route
from umwsim.routing import RouteTree, TreeEdge, as_weights, route_cost
from umwsim.topology import Graph, builtin_topology
from umwsim.traffic import TrafficClass

LINE3 = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
STAR = Graph(4, ((0, 1), (1, 2), (1, 3)))  # center 1, leaves 0, 2, 3


def _spanning(g: Graph, w, root: int) -> RouteTree:
    return solve_route(g, w, flow("broadcast", root, range(g.node_count)))


def test_shortest_path_line3_zero_weights():
    tree = solve_route(LINE3, [0, 0], flow("unicast", 0, {2}))
    assert [te.edge_id for te in tree.edges] == [0, 1]
    assert route_cost(tree, [0, 0]) == 0
    assert [te.depth for te in tree.edges] == [0, 1]


def test_shortest_path_avoids_heavy_side():
    tree = solve_route(CYCLE4, [1, 1, 1, 10], flow("unicast", 0, {2}))
    assert tree.edge_ids == {0, 1}
    assert route_cost(tree, [1, 1, 1, 10]) == 2


def test_shortest_path_degenerate_source_is_destination():
    tree = solve_route(LINE3, [1, 1], flow("unicast", 1, {1}))
    assert tree.edges == () and tree.covered == {1}
    assert route_cost(tree, [1, 1]) == 0


def test_shortest_path_unreachable():
    g = Graph(3, ((0, 1),))
    with pytest.raises(UnreachableError):
        solve_route(g, [1], flow("unicast", 0, {2}))


def test_shortest_path_tiebreak_prefers_fewer_hops():
    # two zero-cost routes; the 1-hop edge must win over the 2-hop detour
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    tree = solve_route(g, [0, 0, 0], flow("unicast", 0, {2}))
    assert tree.edge_ids == {2}


def test_shortest_path_tiebreak_lexicographic():
    # equal cost, equal hops: lexicographically smallest edge-id sequence
    g = Graph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    tree = solve_route(g, [1, 1, 1, 1], flow("unicast", 0, {3}))
    assert [te.edge_id for te in tree.edges] == [0, 2]


def test_spanning_line3():
    tree = _spanning(LINE3, [5, 7], 0)
    assert tree.edge_ids == {0, 1}
    assert [te.depth for te in sorted(tree.edges)] == [0, 1]


def test_spanning_triangle():
    tree = _spanning(TRIANGLE, [1, 2, 3], 0)
    assert tree.edge_ids == {0, 1}
    assert route_cost(tree, [1, 2, 3]) == 3


def test_spanning_tiebreak_four_cycle():
    tree = _spanning(CYCLE4, [1, 1, 1, 1], 0)
    assert tree.edge_ids == {0, 1, 2}


def test_spanning_disconnected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedError):
        _spanning(g, [1, 1], 0)


def test_arborescence_respects_direction():
    g = Graph(3, ((0, 1), (1, 2), (2, 0)), directed=True)
    tree = _spanning(g, [4, 1, 9], 0)
    assert tree.edge_ids == {0, 1}
    g2 = Graph(3, ((1, 0), (1, 2)), directed=True)
    with pytest.raises(DisconnectedError):
        _spanning(g2, [1, 1], 0)


# Arcs 0->2 (edge 0) and 1->2 (edge 1) both enter node 2; 0->1 (edge 2)
# is free. As floats, 2**53 + 1 would round to 2**53 and the two arcs tie.
BIG = 2**53
FORK = Graph(3, ((0, 2), (1, 2), (0, 1)), directed=True)


def test_arborescence_arc_costs_are_exact():
    w = [BIG + 1, BIG, 0]
    tree = _spanning(FORK, w, 0)
    assert tree.edge_ids == {1, 2}
    assert route_cost(tree, w) == BIG
    assert _same_as_reference(FORK, w, 0)


def test_steiner_exact_costs_are_exact():
    # The same two ways into node 2, as a Steiner tree for terminals {1, 2}:
    # the DP's costs stay ints, so the cheaper arc wins.
    w = [BIG + 1, BIG, 0]
    tree = solve_route(FORK, w, flow("multicast", 0, {1, 2}), "exact")
    assert tree.edge_ids == {1, 2}


def _assert_rejected(w, message, cls=flow("unicast", 0, {2}), mode="exact"):
    # Through plain and interning solves, and through the weight check alone
    # when the mode is valid; a rejected call leaves the intern table as it
    # was.
    trees = {}
    solve_route(TRIANGLE, [0, 0, 0], cls, trees=trees)
    before = dict(trees)
    checks = [lambda: solve_route(TRIANGLE, w, cls, mode),
              lambda: solve_route(TRIANGLE, w, cls, mode, trees)]
    if mode in routing.STEINER_MODES:
        checks.append(lambda: as_weights(w, 3))
    for check in checks:
        with pytest.raises(TopologyError, match=message):
            check()
    assert trees == before


@pytest.mark.parametrize("kind", ["unicast", "broadcast", "multicast", "anycast"])
def test_solve_route_rejects_unknown_steiner_mode(kind):
    # Only a multicast solve reads the mode, yet every kind must reject it.
    cls = flow(kind, 0, {"unicast": {2}, "broadcast": {0, 1, 2}}.get(kind, {1, 2}))
    _assert_rejected([1, 1, 1], "unknown Steiner mode 'bogus'", cls, "bogus")


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("bad, message", [
    ([1, -1, 0], "nonnegative"),
    ([1, 1], "expected 3 edge weights"),
    ([[1, 1, 1], [1, 1, 1]], None),
    ([[1], [1], [1]], None),
    ([0.0, 1.0, 2.0], "integers"),
    ([0, Fraction(1, 2), 1], "integers"),
    (np.zeros(3), "integers"),  # a float64 array, or its np.float64 entries
    ([True, False, True], "integers"),  # a sum of bools is an int; a bool array
])
def test_as_weights_rejects_malformed_weights(kind, bad, message):
    _assert_rejected(kind(bad), message)


@pytest.mark.parametrize("kind", [list, tuple])
def test_as_weights_rejects_a_bool_among_ints(kind):
    _assert_rejected(kind([0, True, 2]), "integers")
    # numpy reads the same list as an int array, which is legal.
    assert as_weights(np.array([0, True, 2]), 3) == [0, 1, 2]


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("bad", [
    [math.nan, 0, 5],
    [0, math.nan, 5],
    [0.0, 0.0, math.inf],
    [1, 2, math.nan],
])
def test_solvers_reject_non_finite_weights(kind, bad):
    # NaN passes a sign test and would leave the solvers ordering paths by
    # NaN comparisons; like every float, it fails the integer check.
    _assert_rejected(kind(bad), "integers")


@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_as_weights_returns_a_list_of_python_numbers(kind):
    w = as_weights(kind([3, 0, 2]), 3)
    assert type(w) is list and w == [3, 0, 2]
    assert [type(x) for x in w] == [int, int, int]


def test_steiner_all_nodes_matches_spanning_cost():
    w = [3, 1, 4, 1]
    exact = solve_route(CYCLE4, w, flow("multicast", 0, {0, 1, 2, 3}), "exact")
    assert route_cost(exact, w) == route_cost(_spanning(CYCLE4, w, 0), w)


def test_steiner_singleton_matches_shortest_path():
    w = [1, 1, 1, 10]
    tree = solve_route(CYCLE4, w, flow("multicast", 0, {2}), "exact")
    sp = solve_route(CYCLE4, w, flow("unicast", 0, {2}))
    assert route_cost(tree, w) == route_cost(sp, w)


def test_steiner_star_example():
    # root = leaf 0, terminals = the other two leaves; the whole star is optimal
    w = [1, 1, 1]
    tree = solve_route(STAR, w, flow("multicast", 0, {2, 3}), "exact")
    assert tree.edge_ids == {0, 1, 2}
    assert route_cost(tree, w) == 3


def test_steiner_root_in_terminals():
    tree = solve_route(LINE3, [1, 1], flow("multicast", 0, {0, 2}), "exact")
    assert tree.covered == {0, 2}
    assert tree.edge_ids == {0, 1}


def test_steiner_terminal_cap():
    # nine terminals, one past the exact solver's cap of eight
    g = Graph(10, tuple((0, v) for v in range(1, 10)))
    with pytest.raises(CapExceededError, match="size 9 exceeds enumeration cap 8"):
        solve_route(g, [0] * g.m, flow("multicast", 0, range(1, 10)), "exact")


def test_anycast_single_destination_matches_shortest_path():
    w = [1, 1, 1, 10]
    anycast = solve_route(CYCLE4, w, flow("anycast", 0, {2}))
    assert anycast.edge_ids == solve_route(CYCLE4, w, flow("unicast", 0, {2})).edge_ids


def test_anycast_nearer_destination_wins():
    tree = solve_route(LINE3, [1, 1], flow("anycast", 0, {1, 2}))
    assert tree.covered == {1}
    assert route_cost(tree, [1, 1]) == 1


def test_anycast_tie_smaller_node_id():
    g = Graph(3, ((0, 1), (0, 2)))
    tree = solve_route(g, [1, 1], flow("anycast", 0, {2, 1}))
    assert tree.covered == {1}


def test_anycast_no_reachable_destination():
    g = Graph(3, ((0, 1),))
    with pytest.raises(UnreachableError):
        solve_route(g, [1], flow("anycast", 0, {2}))


# ---------------------------------------------------------------------------
# Searches that stop once their answer is final

def _random_graphs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        g = random_rooted_digraph(rng)[0] if i % 2 else random_connected_graph(rng)
        yield rng, g, rng.integers(0, 3, g.m).tolist()


def test_early_exit_routes_match_full_labels():
    # Weights in {0, 1, 2} force ties. Every label the stopped search keeps is
    # the one a run to exhaustion gives, and unicast and anycast routes are
    # those the full labels give.
    for rng, g, w in _random_graphs(21, 300):
        n = g.node_count
        for s in range(n):
            full = full_shortest_labels(g, w, s)
            for t in range(n):
                labels = routing._shortest_labels(g, w, s, (t,))
                assert all(full[v] == label for v, label in labels.items())
                assert (t in labels) == (t in full)
                if t == s or t not in full:
                    continue
                tree = solve_route(g, w, flow("unicast", s, {t}))
                assert (tree.edge_ids, tree.covered) == (frozenset(full[t][2]), {t})
            if n < 3:
                continue
            dests = {int(x) for x in rng.choice(n, size=int(rng.integers(2, n)), replace=False)} - {s}
            reached = [(full[t][0], t) for t in dests if t in full]
            if not dests or not reached:
                continue
            _, t = min(reached)
            tree = solve_route(g, w, flow("anycast", s, dests))
            assert (tree.edge_ids, tree.covered) == (frozenset(full[t][2]), {t})


@pytest.mark.parametrize("mode", routing.STEINER_MODES)
def test_subgraph_sp_tree_matches_pruned_full_tree(monkeypatch, mode):
    # The Steiner cleanup keeps the union of the kept nodes' label paths;
    # pruning the full shortest-path tree's branches must give the same set.
    calls = []
    solve = routing._subgraph_sp_tree

    def recorded(g, w, root, edge_ids, keep):
        calls.append((g, list(w), root, set(edge_ids), set(keep)))
        return solve(g, w, root, edge_ids, keep)

    monkeypatch.setattr(routing, "_subgraph_sp_tree", recorded)
    for rng, g, w in _random_graphs(22, 300):
        n = g.node_count
        if n < 3:
            continue
        dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=int(rng.integers(2, n)), replace=False))
        solve_route(g, w, flow("multicast", 0, dests), mode)
    assert len(calls) > 100
    for g, w, root, edge_ids, keep in calls:
        assert solve(g, w, root, edge_ids, keep) == pruned_sp_tree(g, w, root, edge_ids, keep)


def test_steiner_exact_cleanup_cost_is_checked(monkeypatch):
    # A cleanup whose tree does not cost the DP optimum is a bug, and must
    # raise also under python -O.
    monkeypatch.setattr(routing, "_subgraph_sp_tree", lambda *args: {0, 1})
    with pytest.raises(RuntimeError, match="Steiner cleanup cost 2 differs from the optimum 3"):
        solve_route(STAR, [1, 1, 1], flow("multicast", 0, {2, 3}), "exact")


@pytest.mark.parametrize("edges, covered, message", [
    ((TreeEdge(0, 0, 1, 0), TreeEdge(1, 0, 1, 0)), {1}, "node 1 has two parents"),
    ((TreeEdge(1, 1, 2, 0),), {2}, "edge 1 dangles from node 1"),
    ((TreeEdge(0, 0, 1, 1),), {1}, "edge 0 has depth 1, expected 0"),
    ((TreeEdge(0, 0, 1, 0),), {2}, "covered destinations outside the tree"),
], ids=["two_parents", "dangling_edge", "wrong_depth", "covered_outside"])
def test_route_tree_rejects_malformed_trees(edges, covered, message):
    with pytest.raises(TopologyError, match=message):
        RouteTree(0, edges, frozenset(covered))


def test_route_cost_examples():
    assert route_cost(RouteTree(0, (), frozenset({0})), []) == 0
    tree = _spanning(LINE3, [2, 3], 0)
    assert route_cost(tree, [2, 3]) == 5
    assert route_cost(tree, [0, 0]) == 0


def test_depth_consistency_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_connected_graph(rng)
        w = random_weights(rng, g.m)
        tree = _spanning(g, w, int(rng.integers(g.node_count)))
        assert bfs_depths(g, tree) == {te.edge_id: te.depth for te in tree.edges}


def test_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_connected_graph(rng)
        w = random_weights(rng, g.m)
        t = int(rng.integers(1, g.node_count))
        base = solve_route(g, w, flow("unicast", 0, {t}))
        scaled = solve_route(g, w * 7, flow("unicast", 0, {t}))
        assert base.edge_ids == scaled.edge_ids
        assert _spanning(g, w, 0).edge_ids == _spanning(g, w * 3, 0).edge_ids


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


# ---------------------------------------------------------------------------
# The arborescence solver against the contraction-only reference

def _first_pass_has_cycle(g: Graph, w, root: int) -> bool:
    """Whether the cheapest in-arcs, by (weight, edge id), close a cycle."""
    tail = {v: min(g.in_adjacency[v], key=lambda arc: (w[arc[0]], arc[0]))[1]
            for v in range(g.node_count) if v != root}
    for v in tail:
        seen = set()
        while v != root and v not in seen:
            seen.add(v)
            v = tail[v]
        if v != root:
            return True
    return False


def _same_as_reference(g: Graph, w, root: int) -> bool:
    return _spanning(g, w, root).edge_ids == frozenset(contraction_arborescence(g, w, root))


def _has_directed_cycle(g: Graph) -> bool:
    """Whether some node reaches itself along arcs, by search from each node."""
    for start in range(g.node_count):
        stack, seen = [start], set()
        while stack:
            for _, u in g.adjacency[stack.pop()]:
                if u == start:
                    return True
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return False


def test_arborescence_matches_contraction_reference_on_random_digraphs():
    # Weights in {0, 1, 2} force ties, so the edge sets, not just the costs,
    # must agree. Some digraphs have no directed cycle, so the solver skips
    # the cycle search; of the rest, some first passes close a cycle and some
    # do not, so the contraction, the search and the skip all run.
    rng = np.random.default_rng(15)
    cyclic = acyclic = 0
    for _ in range(1200):
        g, root = random_rooted_digraph(rng)
        w = rng.integers(0, 3, g.m).tolist()
        assert _same_as_reference(g, w, root)
        cyclic += _first_pass_has_cycle(g, w, root)
        assert g.acyclic == (not _has_directed_cycle(g))
        acyclic += g.acyclic
    assert 0 < cyclic < 1200
    assert 0 < acyclic < 1200 - cyclic


def test_arborescence_matches_contraction_reference_on_the_grid():
    g = builtin_topology("grid3x3_broadcast")[0]
    rng = np.random.default_rng(16)
    for _ in range(200):
        assert _same_as_reference(g, rng.integers(0, 11, g.m).tolist(), 0)
        assert _same_as_reference(g, rng.integers(0, 3, g.m).tolist(), 0)
        assert _same_as_reference(g, rng.integers(0, 2**40, g.m).tolist(), 0)


def test_arborescence_contracts_nested_cycles():
    # Cheapest in-arcs 2->1, 1->2 and 2->3 close the cycle {1, 2}; with it
    # contracted, its cheapest way in (3->2, at 1 over the cycle arc it
    # displaces) and 3's (2->3) close a second cycle around it. The optimum
    # 0->3->2->1 costs 6.
    g = Graph(4, ((1, 2), (2, 1), (2, 3), (3, 2), (0, 1), (0, 3), (3, 1)), directed=True)
    w = [0, 0, 0, 1, 10, 5, 3]
    assert _first_pass_has_cycle(g, w, 0)
    tree = _spanning(g, w, 0)
    assert tree.edge_ids == {1, 3, 5}
    assert [(te.parent, te.child) for te in tree.edges] == [(0, 3), (3, 2), (2, 1)]
    bc = TrafficClass(0, "broadcast", 0, frozenset(range(4)), 1.0)
    assert route_cost(tree, w) == 6 == _brute_min_cost(enumerate_routes(g, bc), w)
    assert frozenset(contraction_arborescence(g, w, 0)) == tree.edge_ids


def test_directed_steiner_approx_matches_contraction_reference(monkeypatch):
    # _steiner_approx solves an arborescence of its metric closure on
    # directed graphs. Interning solves with the solver must give the trees
    # of plain solves with the contraction-only reference.
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(120):
        g, root = random_rooted_digraph(rng)
        n = g.node_count
        if n < 4:
            continue
        k = int(rng.integers(2, n))
        dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=k, replace=False))
        cls = TrafficClass(0, "multicast", root, dests, 1.0)
        ws = [rng.integers(0, 3, g.m).tolist() for _ in range(4)] * 2
        trees = {}
        solved = [solve_route(g, w, cls, "approx", trees) for w in ws]
        assert all(a is b for a, b in zip(solved[:4], solved[4:]))   # repeats share a tree
        cases.append((g, cls, ws, solved))
    closures = []

    def reference(g, w, root):
        closures.append(_first_pass_has_cycle(g, w, root))
        return contraction_arborescence(g, w, root)

    monkeypatch.setattr(routing, "_min_arborescence", reference)
    for g, cls, ws, cached in cases:
        assert [solve_route(g, w, cls, "approx") for w in ws] == cached
    assert 0 < sum(closures) < len(closures)
