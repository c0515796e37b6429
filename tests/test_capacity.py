from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_force_lp, random_connected_graph
from umwsim.capacity import (
    CapacityCertificate,
    enumerate_routes,
    max_scaling,
    verify_certificate,
)
from umwsim.errors import CapExceededError, ConfigError
from umwsim.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from umwsim.topology import ActivationSet, Graph, builtin_topology, enumerate_matchings
from umwsim.traffic import TrafficClass

LINE3 = Graph(3, ((0, 1), (1, 2)))
CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))


# --- exact LP solver ---------------------------------------------------------

def test_lp_simple_max():
    status, value, x = solve_lp([1, 1], a_ub=[[1, 1]], b_ub=[1])
    assert status == OPTIMAL and value == 1 and x[0] + x[1] == 1


def test_lp_equality_and_bounds():
    # max x0 with x0 = 2 x1, x1 <= 3
    status, value, x = solve_lp([1, 0], a_ub=[[0, 1]], b_ub=[3], a_eq=[[1, -2]], b_eq=[0])
    assert status == OPTIMAL and value == 6 and x == [Fraction(6), Fraction(3)]


def test_lp_infeasible():
    status, _, _ = solve_lp([1], a_ub=[[1], [-1]], b_ub=[1, -2])
    assert status == INFEASIBLE


def test_lp_unbounded():
    status, _, _ = solve_lp([1], a_ub=[[-1]], b_ub=[0])
    assert status == UNBOUNDED


def test_lp_exact_rationals():
    status, value, _ = solve_lp([1], a_ub=[[Fraction(3)]], b_ub=[Fraction(1)])
    assert status == OPTIMAL and value == Fraction(1, 3)


def test_lp_degenerate_ties_terminate():
    status, value, _ = solve_lp(
        [1, 1, 1],
        a_ub=[[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        b_ub=[1, 1, 1],
    )
    assert status == OPTIMAL and value == Fraction(3, 2)


def test_lp_without_rows_reads_every_column():
    # No constraint row, or only redundant ones that phase 1 drops: the
    # tableau ends up with no rows and must still price every column.
    assert solve_lp([0, 1]) == (UNBOUNDED, None, None)
    assert solve_lp([2], a_eq=[[0]], b_eq=[0]) == (UNBOUNDED, None, None)
    assert solve_lp([-1, 0], a_eq=[[0, 0]], b_eq=[0]) == (OPTIMAL, 0, [0, 0])


def _random_lp(rng: np.random.Generator, number: str):
    """A random LP of at most 4 variables. Rows with a negative bound become
    ">=" rows inside solve_lp; some LPs repeat an equality scaled by 2 (a
    redundant row phase 1 must drop). Entries are ints, Fractions or floats."""
    def value(lo, hi):
        k = int(rng.integers(lo, hi + 1))
        if number == "fraction":
            return Fraction(k, int(rng.integers(1, 5)))
        if number == "float":
            return k * float(rng.choice([0.25, 0.1, 1.0]))
        return k

    n = int(rng.integers(1, 5))
    objective = [value(-2, 3) for _ in range(n)]
    m_ub, m_eq = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    a_ub = [[value(-3, 3) for _ in range(n)] for _ in range(m_ub)]
    b_ub = [value(-3, 6) for _ in range(m_ub)]
    a_eq = [[value(-2, 3) for _ in range(n)] for _ in range(m_eq)]
    b_eq = [value(-2, 4) for _ in range(m_eq)]
    if m_eq and rng.random() < 0.4:
        a_eq.append([2 * v for v in a_eq[0]])
        b_eq.append(2 * b_eq[0])
    return objective, a_ub, b_ub, a_eq, b_eq


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(77)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for i in range(240):
        lp = _random_lp(rng, ("int", "fraction", "float")[i % 3])
        objective, a_ub, b_ub, a_eq, b_eq = lp
        status, value, x = solve_lp(*lp)
        want_status, want_value = brute_force_lp(*lp)
        assert (status, value) == (want_status, want_value), lp
        seen[status] += 1
        if status == OPTIMAL:
            c = [Fraction(v) for v in objective]
            assert sum(a * v for a, v in zip(c, x)) == value and all(v >= 0 for v in x)
            for row, b in zip(a_ub, b_ub):
                assert sum(Fraction(a) * v for a, v in zip(row, x)) <= Fraction(b)
            for row, b in zip(a_eq, b_eq):
                assert sum(Fraction(a) * v for a, v in zip(row, x)) == Fraction(b)
    assert min(seen.values()) >= 20, seen


# --- route enumeration -------------------------------------------------------

def test_enumerate_line3_unicast_single_path():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    routes = enumerate_routes(LINE3, cls)
    assert len(routes) == 1 and routes[0].edge_ids == {0, 1}


def test_enumerate_cycle4_two_paths():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    routes = enumerate_routes(CYCLE4, cls)
    assert len(routes) == 2
    assert {frozenset(r.edge_ids) for r in routes} == {frozenset({0, 1}), frozenset({2, 3})}


def test_enumerate_cycle4_broadcast_four_trees():
    cls = TrafficClass(0, "broadcast", 0, frozenset(range(4)), 1.0)
    routes = enumerate_routes(CYCLE4, cls)
    assert len(routes) == 4  # a cycle on 4 edges has 4 spanning trees


def test_enumerate_multicast_minimal_trees_only():
    cls = TrafficClass(0, "multicast", 0, frozenset({2, 3}), 1.0)
    routes = enumerate_routes(CYCLE4, cls)
    for tree in routes:
        leaves = set(tree.child_node_of.values()) - set(tree.children_of)
        assert leaves <= {2, 3}


def test_enumerate_anycast_union_of_paths():
    cls = TrafficClass(0, "anycast", 0, frozenset({1, 2}), 1.0)
    routes = enumerate_routes(CYCLE4, cls)
    by_cover = {}
    for r in routes:
        by_cover.setdefault(next(iter(r.covered)), []).append(r)
    assert set(by_cover) == {1, 2}


def test_enumerate_degenerate_source_in_destinations():
    cls = TrafficClass(0, "anycast", 0, frozenset({0, 2}), 1.0)
    routes = enumerate_routes(LINE3, cls)
    assert any(r.edges == () for r in routes)


def test_enumeration_caps():
    big = Graph(8, tuple((u, v) for u in range(8) for v in range(u + 1, 8))[:13])
    cls = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    with pytest.raises(CapExceededError):
        enumerate_routes(big, cls)


def test_positive_rate_needs_route():
    g = Graph(3, ((0, 1),))
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    with pytest.raises(ConfigError):
        max_scaling(g, ActivationSet("wired", 1), [cls])


def test_unbounded_scaling_rejected():
    cls = TrafficClass(0, "anycast", 0, frozenset({0, 2}), 1.0)
    with pytest.raises(ConfigError):
        max_scaling(LINE3, ActivationSet("wired", 2), [cls])


def test_all_zero_rates_rejected():
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 0.0)
    with pytest.raises(ConfigError):
        max_scaling(LINE3, ActivationSet("wired", 2), [cls])


# --- the oracle itself -------------------------------------------------------

def test_line3_wired_unicast_unit_capacity():
    g, aset, classes = builtin_topology("line3")
    cert = max_scaling(g, aset, classes)
    assert cert.rho_star == 1
    assert verify_certificate(cert, g, aset, classes)


def test_certificate_verifies_and_rejects_perturbations():
    g, aset, classes = builtin_topology("twinpath_unicast")
    cert = max_scaling(g, aset, classes)
    assert cert.rho_star == 1
    assert verify_certificate(cert, g, aset, classes)

    bumped = CapacityCertificate(
        rho_star=cert.rho_star,
        rates=cert.rates,
        flows=tuple(
            (cid, edges, v + Fraction(1, 10)) if i == 0 else (cid, edges, v)
            for i, (cid, edges, v) in enumerate(cert.flows)
        ),
        activation_mix=cert.activation_mix,
    )
    assert not verify_certificate(bumped, g, aset, classes)

    broken_mix = CapacityCertificate(
        rho_star=cert.rho_star,
        rates=cert.rates,
        flows=cert.flows,
        activation_mix=tuple(
            (edges, p / 2) for edges, p in cert.activation_mix
        ),
    )
    assert not verify_certificate(broken_mix, g, aset, classes)


def test_json_round_trip():
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    cert = max_scaling(g, aset, classes)
    doc = cert.to_json_dict()
    back = CapacityCertificate.from_json_dict(doc)
    assert back == cert
    assert verify_certificate(back, g, aset, classes)


def test_monotone_in_catalog_and_members():
    rng = np.random.default_rng(31)
    for _ in range(6):
        g = random_connected_graph(rng, max_edges=8)
        n = g.node_count
        t = int(rng.integers(1, n))
        cls = TrafficClass(0, "unicast", 0, frozenset({t}), 1.0)
        aset = enumerate_matchings(g)
        catalog = {0: enumerate_routes(g, cls)}
        full = max_scaling(g, aset, [cls], catalog)
        if len(catalog[0]) > 1:
            smaller = {0: catalog[0][:-1]}
            assert max_scaling(g, aset, [cls], smaller).rho_star <= full.rho_star
        if len(aset.members) > 1:
            fewer = ActivationSet("explicit", g.m, aset.members[:-1])
            assert max_scaling(g, fewer, [cls], catalog).rho_star <= full.rho_star


def test_soundness_random_mixed_traffic():
    rng = np.random.default_rng(32)
    for _ in range(8):
        g = random_connected_graph(rng, max_edges=9)
        n = g.node_count
        classes = [TrafficClass(0, "broadcast", 0, frozenset(range(n)), 0.5)]
        if n >= 3:
            classes.append(TrafficClass(1, "unicast", 1, frozenset({n - 1}), 1.0))
        aset = enumerate_matchings(g)
        cert = max_scaling(g, aset, classes)
        assert cert.rho_star > 0
        assert verify_certificate(cert, g, aset, classes)
