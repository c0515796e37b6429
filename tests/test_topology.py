import json
import re

import numpy as np
import pytest

from helpers import all_matchings, brute_force_max_weight, random_connected_graph, random_weights
from umwsim.errors import CapExceededError, TopologyError
from umwsim.topology import (
    ActivationSet,
    Graph,
    builtin_topology,
    _grid_graph,
    enumerate_matchings,
    load_topology,
    save_topology,
    validate_activation,
)


def test_smallest_graph(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"directed": False, "nodes": 2, "edges": [[0, 1]]}))
    g, aset = load_topology(path)
    assert g.node_count == 2 and g.m == 1 and not g.directed
    assert aset == ActivationSet("wired", 1)  # no activation block: wired


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"nodes": 4, "edges": [[3, 3]]}))
    with pytest.raises(TopologyError):
        load_topology(path)


def test_duplicate_edge_rejected():
    with pytest.raises(TopologyError):
        Graph(3, ((0, 1), (1, 0)))
    # directed graphs may carry both orientations
    Graph(3, ((0, 1), (1, 0)), directed=True)


def test_bad_node_id_rejected():
    with pytest.raises(TopologyError):
        Graph(2, ((0, 2),))


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(TopologyError):
        load_topology(path)
    path.write_text(json.dumps({"nodes": 2}))
    with pytest.raises(TopologyError):
        load_topology(path)


@pytest.mark.parametrize("args, message", [
    ((3.0, ((0, 1),)), "node_count must be an integer >= 1, got 3.0"),
    ((3, ((0, 1.5),)), "edges[0] must be a pair of integers in 0..2, got (0, 1.5)"),
    ((3, ((0, 1), (True, 2))), "edges[1] must be a pair of integers in 0..2, got (True, 2)"),
    ((3, ((0, 1),), "false"), "directed must be true or false, got 'false'"),
    ((3, ((0, 1),), 1), "directed must be true or false, got 1"),
], ids=["float_nodes", "float_endpoint", "bool_endpoint", "text_directed", "int_directed"])
def test_graph_checks_its_values(args, message):
    # Graph used to truncate endpoints with int() and never read directed's type.
    with pytest.raises(TopologyError, match=re.escape(message)):
        Graph(*args)


def test_activation_member_must_hold_edge_ids():
    with pytest.raises(TopologyError, match=re.escape("members[1] must be a set of edge ids in 0..1")):
        ActivationSet("explicit", 2, (frozenset({0}), frozenset({1.5})))


@pytest.mark.parametrize("doc, message", [
    ({"nodes": 3.9, "edges": [[0, 1]]}, "nodes must be an integer >= 1, got 3.9"),
    ({"nodes": 0, "edges": []}, "nodes must be an integer >= 1, got 0"),
    ({"nodes": 3, "edges": [[0, 1.7]]}, "edges[0] must be a pair of integers in 0..2, got [0, 1.7]"),
    ({"nodes": 3, "edges": [[0, 1]], "directed": "false"}, "directed must be true or false, got 'false'"),
    ({"nodes": 2, "edges": [[0, 1]], "activation": {"kind": "explicit", "members": [[0.0]]}},
     "activation members[0] must be a set of edge ids in 0..0, got [0.0]"),
], ids=["float_nodes", "zero_nodes", "float_endpoint", "text_directed", "float_member"])
def test_topology_file_values_name_the_file(tmp_path, doc, message):
    # These files used to load with int()/bool() applied: "nodes": 3.9 as 3 nodes,
    # edge [0, 1.7] as (0, 1) and "directed": "false" as a directed graph. A
    # bad node count is named by its file key, not by Graph's node_count.
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match=re.escape(f"{path}: {message}")):
        load_topology(path)


@pytest.mark.parametrize("doc, message", [
    ({"nodes": 2, "edges": [[0, 1]], "direced": True}, "unknown topology key(s): 'direced'"),
    ({"nodes": 2, "edges": [[0, 1]], "activaton": {"kind": "primary_interference"}},
     "unknown topology key(s): 'activaton'"),
    ({"nodes": 2, "edges": [[0, 1]], "activation": {"kind": "explicit", "membres": [[0]]}},
     "unknown topology key(s): 'activation.membres'"),
], ids=["top_level", "activation_block", "inside_activation"])
def test_unknown_topology_file_key_rejected(tmp_path, doc, message):
    # The first file used to load as an undirected graph, the second as wired.
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match=re.escape(f"{path}: {message}")):
        load_topology(path)


def test_non_object_activation_rejected(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]], "activation": [1]}))
    with pytest.raises(TopologyError, match=f"{path}: activation must be a JSON object"):
        load_topology(path)


def test_round_trip_identical(tmp_path):
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_topology(g, p1)
    g2, _ = load_topology(p1)
    assert g2 == g
    save_topology(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_with_activation(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    aset = ActivationSet("explicit", 2, (frozenset({0}), frozenset({1})))
    path = tmp_path / "net.json"
    save_topology(g, path, aset)
    g2, a2 = load_topology(path)
    assert g2 == g
    assert a2.kind == "explicit" and a2.members == aset.members


def test_primary_interference_without_members_lists_maximal_matchings(tmp_path):
    g = _grid_graph(3, 3)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"nodes": 9, "edges": [list(e) for e in g.edges],
                                "activation": {"kind": "primary_interference"}}))
    g2, aset = load_topology(path)
    assert g2 == g and aset == enumerate_matchings(g)


def test_grid_builtin_shape():
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    # a 3x3 lattice has 2*3*2 = 12 edges, counted by hand
    assert g.node_count == 9 and g.m == 12
    assert classes[0].kind == "broadcast" and classes[0].source == 0
    # every activation member is a matching of the grid
    validate_activation(aset, g)
    for member in aset.members:
        nodes = [n for e in member for n in g.edges[e]]
        assert len(nodes) == len(set(nodes))


def test_line3_builtin():
    g, aset, classes = builtin_topology("line3")
    assert g.node_count == 3 and g.m == 2 and aset.kind == "wired"
    assert classes[0].destinations == frozenset({2})


def test_twinpath_builtin_structure():
    g, aset, classes = builtin_topology("twinpath_unicast")
    assert g.node_count == 8 and aset.kind == "wired"
    assert [c.rate for c in classes] == [2.0, 1.0]


def test_unknown_builtin():
    with pytest.raises(TopologyError):
        builtin_topology("mystery9")


def test_enumerate_matchings_single_edge():
    aset = enumerate_matchings(Graph(2, ((0, 1),)))
    assert aset.members == (frozenset({0}),)


def test_enumerate_matchings_triangle():
    aset = enumerate_matchings(Graph(3, ((0, 1), (1, 2), (2, 0))))
    assert set(aset.members) == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_enumerate_matchings_four_cycle():
    aset = enumerate_matchings(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
    assert set(aset.members) == {frozenset({0, 2}), frozenset({1, 3})}


def test_matching_cap():
    # The undirected 5x5 grid has 40 edges; the cap check comes before any
    # enumeration, so this is cheap.
    g = _grid_graph(5, 5)
    assert g.m == 40
    with pytest.raises(CapExceededError, match="size 40 exceeds enumeration cap 24"):
        enumerate_matchings(g)


def test_maximal_matchings_cover_all_max_weights():
    # max over maximal matchings == max over all matchings, any w >= 0
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng)
        aset = enumerate_matchings(g)
        members = set(aset.members)
        assert members <= set(all_matchings(g))
        for _ in range(4):
            w = random_weights(rng, g.m)
            best = max(sum(w[e] for e in s) for s in aset.members)
            assert best == brute_force_max_weight(g, w)


def test_activation_set_validation():
    with pytest.raises(TopologyError):
        ActivationSet("explicit", 2, ())
    with pytest.raises(TopologyError):
        ActivationSet("explicit", 2, (frozenset({5}),))
    with pytest.raises(TopologyError):
        ActivationSet("wired", 2, (frozenset({0}),))
    g = Graph(3, ((0, 1), (1, 2)))
    bad = ActivationSet("primary_interference", 2, (frozenset({0, 1}),))
    with pytest.raises(TopologyError):
        validate_activation(bad, g)


@pytest.mark.parametrize("g, acyclic", [
    (builtin_topology("grid3x3_broadcast")[0], True),   # arcs point away from corner 0
    (_grid_graph(3, 3), False),                           # undirected: every edge both ways
    (Graph(3, ((0, 1), (1, 2))), False),
    (Graph(2, ((0, 1),)), False),
    (Graph(3, ((0, 1), (1, 2), (0, 2)), directed=True), True),
    (Graph(3, ((0, 1), (1, 2), (2, 0)), directed=True), False),
    (Graph(1, (), directed=True), True),
    # The directed CI smoke topology: arc pairs 1<->2 and 2<->3, and 3->1.
    (Graph(4, ((0, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (0, 3)), directed=True), False),
], ids=["directed_grid", "undirected_grid", "line3", "one_edge", "dag", "triangle_cycle",
        "single_node", "ci_digraph"])
def test_graph_acyclic(g, acyclic):
    assert g.acyclic is acyclic
