import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    brute_force_lp,
    certificate_from_json_dict,
    random_connected_graph,
    random_rooted_digraph,
    row_scaled_certificate,
    solve_on_tableau_path,
    subset_scan,
    subset_scan_routes,
)
from umwsim import capacity, simplex
from umwsim.capacity import (
    PATHS_PER_PAIR_CAP,
    ROUTE_CAP,
    CapacityCertificate,
    enumerate_routes,
    max_scaling,
    verify_certificate,
)
from umwsim.cli import main as cli_main
from umwsim.engine import load_config
from umwsim.errors import CapExceededError, ConfigError
from umwsim.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from umwsim.topology import ActivationSet, Graph, _grid_graph, builtin_topology, enumerate_matchings
from umwsim.traffic import TrafficClass

LINE3 = Graph(3, ((0, 1), (1, 2)))
CYCLE4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# --- exact LP solver ---------------------------------------------------------

def test_lp_simple_max():
    status, value, x = solve_lp([1, 1], a_ub=[[1, 1]], b_ub=[1])
    assert status == OPTIMAL and value == 1 and x[0] + x[1] == 1


def test_lp_equality_and_bounds():
    # max x0 with x0 = 2 x1, x1 <= 3
    status, value, x = solve_lp([1, 0], a_ub=[[0, 1]], b_ub=[3], a_eq=[[1, -2]], b_eq=[0])
    assert status == OPTIMAL and value == 6 and x == [Fraction(6), Fraction(3)]


def test_lp_infeasible():
    # x = 2 against x <= 1
    status, _, _ = solve_lp([1], a_ub=[[1]], b_ub=[1], a_eq=[[1]], b_eq=[2])
    assert status == INFEASIBLE


def test_lp_unbounded():
    status, _, _ = solve_lp([1], a_ub=[[-1]], b_ub=[0])
    assert status == UNBOUNDED


def test_lp_exact_rationals():
    status, value, x = solve_lp([1], a_ub=[[3]], b_ub=[1])
    assert status == OPTIMAL and value == Fraction(1, 3) and x == [Fraction(1, 3)]


@pytest.mark.parametrize("lp", [
    ([1], [[Fraction(3)]], [1]),
    ([1], [[3]], [1.0]),
    ([1], [[3]], [-1]),
    ([1], [], [], [[1]], [-2]),
    ([Fraction(1, 2)], [[3]], [1]),
    ([1, 1], [[1]], [1]),
    ([1, 1], [[1, 1, 1]], [1]),
    ([1], [[1], [1]], [5]),
], ids=["fraction_coefficient", "float_bound", "negative_bound", "negative_eq_bound",
        "fraction_objective", "short_row", "long_row", "row_without_bound"])
def test_lp_rejects_all_but_int_rows_with_bounds_at_least_zero(lp):
    # Only the one form max_scaling builds: one bound and one int
    # coefficient per column in each row. A rational LP scales its rows
    # first (see _int_lp).
    with pytest.raises(ValueError):
        solve_lp(*lp)


@pytest.mark.parametrize("lp, want", [
    (([2, True], [[True, True]], [3], [[True, False]], [False]), (OPTIMAL, 3)),
    (([1, 1], [[1, 1]], [0]), (OPTIMAL, 0)),
    (([0, 0],), (OPTIMAL, 0)),
    (([1, -1],), (UNBOUNDED, None)),
    (([], [[]], [0], [[]], [0]), (OPTIMAL, 0)),
    (([1, 1], [[1, 1]], [2], [[0, 0]], [0]), (OPTIMAL, 2)),
], ids=["bool_entries", "zero_bound", "no_rows", "no_rows_unbounded", "no_columns",
        "all_zero_eq_row"])
def test_lp_accepts_the_edges_of_its_int_form(lp, want):
    # Bools are ints, a bound may be 0, and a row or column list may be
    # empty; an all-zero equality row with bound 0 is redundant and dropped.
    status, value, x = solve_lp(*lp)
    assert (status, value) == want == brute_force_lp(*lp)
    if status == OPTIMAL:
        objective, a_ub, b_ub, a_eq, b_eq = (*lp, (), (), (), ())[:5]
        assert all(type(v) is Fraction and v >= 0 for v in x) and len(x) == len(objective)
        assert sum(c * v for c, v in zip(objective, x)) == value
        assert all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(a_ub, b_ub))
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(a_eq, b_eq))


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


def test_lp_phase_one_result_is_checked(monkeypatch):
    # Phase 1 is always bounded; a tableau that says otherwise is a bug, and
    # must raise also under python -O. The equality row needs phase 1.
    monkeypatch.setattr(simplex._Tableau, "maximize", lambda self, eligible: UNBOUNDED)
    with pytest.raises(RuntimeError, match="simplex phase 1 ended unbounded"):
        solve_lp([1, 0], a_ub=[[0, 1]], b_ub=[3], a_eq=[[1, -2]], b_eq=[0])


def _random_lp(rng: np.random.Generator, number: str):
    """A random LP of at most 4 variables, every bound >= 0; some LPs repeat
    an equality scaled by 2 (a redundant row phase 1 must drop). Entries are
    ints, Fractions or floats: _int_lp scales them for solve_lp."""
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
    b_ub = [value(0, 6) for _ in range(m_ub)]
    a_eq = [[value(-2, 3) for _ in range(n)] for _ in range(m_eq)]
    b_eq = [value(0, 4) for _ in range(m_eq)]
    if m_eq and rng.random() < 0.4:
        a_eq.append([2 * v for v in a_eq[0]])
        b_eq.append(2 * b_eq[0])
    return objective, a_ub, b_ub, a_eq, b_eq


def _scaled(values) -> tuple[list[int], int]:
    """The values as exact ints, times the lcm of their denominators, and
    that lcm."""
    exact = [Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in exact))
    return [int(v * d) for v in exact], d


def _int_lp(lp):
    """The LP in solve_lp's int form, each row scaled with its bound, and the
    objective's scale, by which the optimum is multiplied."""
    objective, a_ub, b_ub, a_eq, b_eq = lp
    cost, scale = _scaled(objective)
    ub = [_scaled([*row, b])[0] for row, b in zip(a_ub, b_ub)]
    eq = [_scaled([*row, b])[0] for row, b in zip(a_eq, b_eq)]
    return (cost, [r[:-1] for r in ub], [r[-1] for r in ub],
            [r[:-1] for r in eq], [r[-1] for r in eq]), scale


def _random_int_lp(rng: np.random.Generator, i: int):
    return _int_lp(_random_lp(rng, ("int", "fraction", "float")[i % 3]))[0]


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(77)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for i in range(240):
        lp = _random_lp(rng, ("int", "fraction", "float")[i % 3])
        objective, a_ub, b_ub, a_eq, b_eq = lp
        int_lp, scale = _int_lp(lp)
        status, value, x = solve_lp(*int_lp)
        if value is not None:
            value /= scale
        assert (status, value) == brute_force_lp(*lp), lp
        seen[status] += 1
        if status == OPTIMAL:
            c = [Fraction(v) for v in objective]
            assert sum(a * v for a, v in zip(c, x)) == value and all(v >= 0 for v in x)
            for row, b in zip(a_ub, b_ub):
                assert sum(Fraction(a) * v for a, v in zip(row, x)) <= Fraction(b)
            for row, b in zip(a_eq, b_eq):
                assert sum(Fraction(a) * v for a, v in zip(row, x)) == Fraction(b)
    assert min(seen.values()) >= 20, seen


def test_tableau_paths_agree_on_random_lps(monkeypatch):
    # The LPs of test_lp_matches_vertex_enumeration, each solved on the int64
    # array and on Python-int rows: the same result, basis, det and entries.
    rng = np.random.default_rng(77)
    on_array = 0
    for i in range(240):
        lp = _random_int_lp(rng, i)
        got, state, pivots = solve_on_tableau_path(monkeypatch, "array", solve_lp, *lp)
        want, want_state, want_pivots = solve_on_tableau_path(monkeypatch, "rows", solve_lp, *lp)
        assert (got, state) == (want, want_state), lp
        assert set(want_pivots) <= {"rows"}
        on_array += "array" in pivots
    assert on_array >= 80, on_array  # float rows start past the bound


def _growing_lp():
    """Six rows of 40 coefficients near 10**6: every entry fits in 31 bits,
    but the minors that later tableaus hold do not."""
    a_ub = [[(j * 7919 + i * 104729) % 999_983 + 1 for j in range(40)] for i in range(6)]
    return [1 + j % 5 for j in range(40)], a_ub, [10**6] * 6


def test_tableau_leaves_the_array_mid_solve_exactly(monkeypatch):
    lp = _growing_lp()
    got, state, pivots = solve_on_tableau_path(monkeypatch, None, solve_lp, *lp)
    assert pivots[0] == "array" and pivots[-1] == "rows", pivots
    assert got == solve_on_tableau_path(monkeypatch, "rows", solve_lp, *lp)[0]
    assert state == solve_on_tableau_path(monkeypatch, "rows", solve_lp, *lp)[1]
    status, value, x = got
    objective, a_ub, b_ub = lp
    assert status == OPTIMAL and value == sum(c * v for c, v in zip(objective, x))
    for row, b in zip(a_ub, b_ub):
        assert sum(a * v for a, v in zip(row, x)) <= b
    # A small LP of the same kind, checked against vertex enumeration.
    small = ([1, 1, 1], [[999_983, 3, 7], [5, 1_000_003, 11], [13, 17, 999_979]], [10**6] * 3)
    got, _, pivots = solve_on_tableau_path(monkeypatch, "array", solve_lp, *small)
    assert pivots[0] == "array" and pivots[-1] == "rows", pivots
    assert got[:2] == brute_force_lp(*small)


def test_tableau_leaves_the_array_for_a_large_objective(monkeypatch):
    # Costs of 2**70 put the objective row out of int64's reach before any pivot.
    objective, a_ub, b_ub = _growing_lp()
    lp = ([c << 70 for c in objective], a_ub, b_ub)
    got, state, pivots = solve_on_tableau_path(monkeypatch, None, solve_lp, *lp)
    assert set(pivots) == {"rows"}
    want, want_state, _ = solve_on_tableau_path(monkeypatch, "rows", solve_lp, *lp)
    assert (got, state) == (want, want_state)
    assert got[1] == solve_lp(*_growing_lp())[1] * 2**70


@pytest.mark.parametrize("top, first_pivot", [(2**31 - 1, "array"), (2**31, "rows")])
def test_tableau_int64_bound_is_tight(monkeypatch, top, first_pivot):
    # Two entries of 2**31 can make q*a - f*b reach 2**63; 2**31 - 1 cannot.
    lp = ([1, 1], [[top, 1], [1, top]], [top, top])
    got, state, pivots = solve_on_tableau_path(monkeypatch, "array", solve_lp, *lp)
    assert pivots[0] == first_pivot and pivots[-1] == "rows", pivots
    want, want_state, _ = solve_on_tableau_path(monkeypatch, "rows", solve_lp, *lp)
    assert (got, state) == (want, want_state)
    assert got[:2] == brute_force_lp(*lp)


def _sylvester(n: int) -> np.ndarray:
    """The n x n Sylvester-Hadamard matrix of +-1 entries (n a power of 2),
    whose |det| is n**(n/2), Hadamard's bound met with equality."""
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _exact_det(rows) -> Fraction:
    m = [[Fraction(int(v)) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        p = next(r for r in range(i, len(m)) if m[r][i])
        if p != i:
            m[i], m[p] = m[p], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


@pytest.mark.parametrize("n", [2, 4, 8])
def test_minor_bound_is_met_by_sylvester_hadamard_matrices(n):
    # n - 1 constraint rows and either cost row holding H's last row: the
    # one minor of order rows + 1 is det H, and the bound is exactly det**2.
    # A bound over `rows` columns only, or one missing either cost row,
    # falls below it.
    h = _sylvester(n)
    det = _exact_det(h)
    assert abs(det) == n ** (n // 2)
    zero = np.zeros(n, dtype=np.int64)
    for costs in ([h[-1], zero], [zero, h[-1]]):
        assert simplex._minor_bound_sq(h[:-1], np.array(costs)) == det * det


class _BoundChecked(simplex._Tableau):
    """A tableau that, once proven, checks every entry against the square
    of its Hadamard bound after each pivot and objective load."""

    seen: list = []

    def __init__(self, rows, basis, costs):
        super().__init__(rows, basis, costs)
        self.bound_sq = None
        if self.proven:
            self.bound_sq = simplex._minor_bound_sq(self.t[:-1], np.array(costs, dtype=np.int64))
            assert self.bound_sq < simplex.INT64_BOUND ** 2
            self.seen.append(self)
            self.check()

    def check(self) -> None:
        if self.bound_sq is not None:
            assert self.t is not None, "a proven tableau left the array"
            top = max(int(self.t.max()), -int(self.t.min()), self.det)
            assert top * top <= self.bound_sq

    def set_objective(self, cost):
        super().set_objective(cost)
        self.check()

    def pivot(self, r, c):
        super().pivot(r, c)
        self.check()


def test_proven_tableaus_stay_within_their_bound(monkeypatch):
    # The random LPs of test_tableau_paths_agree_on_random_lps, every one
    # on the array, and the capacity LPs of criterion 9's instances.
    monkeypatch.setattr(simplex, "_Tableau", _BoundChecked)
    monkeypatch.setattr(_BoundChecked, "seen", [])
    monkeypatch.setattr(simplex, "ARRAY_MIN_ENTRIES", 0)
    rng = np.random.default_rng(77)
    for i in range(240):
        solve_lp(*_random_int_lp(rng, i))
    random_proven = len(_BoundChecked.seen)
    monkeypatch.undo()
    monkeypatch.setattr(simplex, "_Tableau", _BoundChecked)
    monkeypatch.setattr(_BoundChecked, "seen", [])
    instances = 0
    for g, aset, classes in _four_kind_instances():
        max_scaling(g, aset, classes)
        instances += 1
    assert random_proven >= 80 and len(_BoundChecked.seen) >= instances // 2, (
        random_proven, len(_BoundChecked.seen))


def test_proven_capacity_lp_scans_only_at_build(monkeypatch):
    # The builtin grid's broadcast LP is proven when its array is built, so
    # no pivot and no objective load scans the array again.
    calls = {"build": 0, "solve": 0}
    phase = ["solve"]
    tabs = []
    fits = simplex._fits

    def counted_fits(*args):
        calls[phase[0]] += 1
        return fits(*args)

    class Counted(simplex._Tableau):
        def __init__(self, *args):
            phase[0] = "build"
            super().__init__(*args)
            phase[0] = "solve"
            self.pivots = 0
            tabs.append(self)

        def pivot(self, r, c):
            super().pivot(r, c)
            self.pivots += 1

    monkeypatch.setattr(simplex, "_fits", counted_fits)
    monkeypatch.setattr(simplex, "_Tableau", Counted)
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    cert = max_scaling(g, aset, classes)
    assert cert.rho_star == Fraction(2, 5)
    (tab,) = tabs
    assert tab.proven and tab.t is not None and tab.pivots >= 10, tab.pivots
    assert calls["build"] >= 1 and calls["solve"] == 0, calls


def test_tiny_rate_fails_the_proof_closed(monkeypatch):
    # Rate 5e-324 = 2**-1074 puts D = 2**1074 in the phase-2 cost row, past
    # int64: the proof fails closed (no OverflowError), and the certificate
    # is the one for rate 1 with rho* scaled by 2**1074, as before the proof.
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    one = [dataclasses.replace(c, rate=1) for c in classes]
    tiny = [dataclasses.replace(c, rate=5e-324) for c in classes]
    tabs = []

    class Kept(simplex._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tabs.append(self)

    monkeypatch.setattr(simplex, "_Tableau", Kept)
    want = max_scaling(g, aset, one)
    assert tabs[-1].proven
    cert = max_scaling(g, aset, tiny)
    assert not tabs[-1].proven
    assert cert == dataclasses.replace(want, rho_star=want.rho_star * 2**1074,
                                       rates=((0, Fraction(5e-324)),))
    assert verify_certificate(cert, g, aset, tiny)


def test_tiny_rate_certificate_writes_null_past_float_range(tmp_path, capsys):
    # rho* = (2/5) * 2**1074 does not fit a float: its float field is null,
    # its exact string is kept, and the CLI writes a verified certificate.
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    tiny = [dataclasses.replace(c, rate=5e-324) for c in classes]
    cert = max_scaling(g, aset, tiny)
    doc = cert.to_json_dict()
    assert doc["rho_star"] is None and doc["rho_star_exact"] == str(Fraction(2, 5) * 2**1074)
    assert doc["rates"] == [{"class": 0, "rate": 5e-324, "rate_exact": str(Fraction(5e-324))}]
    assert all(a["prob"] == float(Fraction(a["prob_exact"])) for a in doc["activation_mix"])
    assert certificate_from_json_dict(doc) == cert
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"topology": "grid3x3_broadcast", "classes": [
        {"id": 0, "kind": "broadcast", "source": 0, "destinations": list(range(9)), "rate": 5e-324}]}))
    out = tmp_path / "cert.json"
    assert cli_main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written == {**json.loads(json.dumps(doc)), "verified": True}
    assert '"rho_star": null' in out.read_text()
    assert cli_main(["capacity", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out) == written


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
        leaves = {te.child for te in tree.edges} - set(tree.children_of)
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


def test_enumeration_caps(monkeypatch):
    # Route growing stops as soon as it passes ROUTE_CAP: the 4 spanning
    # trees of a 4-cycle fit a cap of 4 and overflow a cap of 3.
    cls = TrafficClass(0, "broadcast", 0, frozenset(range(4)), 1.0)
    monkeypatch.setattr(capacity, "ROUTE_CAP", 4)
    assert len(enumerate_routes(CYCLE4, cls)) == 4
    monkeypatch.setattr(capacity, "ROUTE_CAP", 3)
    with pytest.raises(CapExceededError, match=r"routes grown: size 4 exceeds enumeration cap 3"):
        enumerate_routes(CYCLE4, cls)
    monkeypatch.undo()
    # The 4x4 undirected grid has 100352 spanning trees.
    grid = _grid_graph(4, 4)
    cls = TrafficClass(0, "broadcast", 0, frozenset(range(16)), 1.0)
    with pytest.raises(CapExceededError, match=r"routes grown: size 10001 exceeds enumeration cap 10000"):
        enumerate_routes(grid, cls)


def test_grid3x4_undirected_broadcast_capacity():
    # 17 edges, past the old 12-edge enumeration cap; 2415 spanning trees.
    g = _grid_graph(3, 4)
    aset = enumerate_matchings(g)
    classes = [TrafficClass(0, "broadcast", 0, frozenset(range(12)), 1.0)]
    assert len(enumerate_routes(g, classes[0])) == 2415
    cert = max_scaling(g, aset, classes)
    assert cert.rho_star == Fraction(6, 11)
    assert verify_certificate(cert, g, aset, classes)


def _assert_same_catalogue(g, cls):
    """enumerate_routes returns the subset scan's list, in its order, or
    raises the same CapExceededError; returns that list (None on a raise)."""
    try:
        want = subset_scan_routes(g, cls)
    except CapExceededError as err:
        with pytest.raises(CapExceededError) as got:
            enumerate_routes(g, cls)
        assert str(got.value) == str(err)
        return None
    assert enumerate_routes(g, cls) == want
    return want


def test_enumerate_routes_matches_subset_scan_on_random_graphs(monkeypatch):
    rng = np.random.default_rng(20)
    seen = {"empty": 0, "cap": 0, "into_root": 0}
    for trial in range(240):
        if trial % 2:
            g = random_connected_graph(rng, max_edges=10)
        else:
            g, _ = random_rooted_digraph(rng, max_edges=10)
        n = g.node_count
        source = int(rng.integers(0, n))
        seen["into_root"] += g.directed and any(v == source for _, v in g.edges)
        picks = [int(x) for x in rng.permutation(n)]
        k = int(rng.integers(1, n + 1))
        monkeypatch.setattr(capacity, "PATHS_PER_PAIR_CAP", 3 if trial % 5 == 0 else PATHS_PER_PAIR_CAP)
        for cls in (
            TrafficClass(0, "unicast", source, frozenset(picks[:1]), 1.0),
            TrafficClass(1, "broadcast", source, frozenset(range(n)), 1.0),
            TrafficClass(2, "multicast", source, frozenset(picks[:k]), 1.0),
            TrafficClass(3, "anycast", source, frozenset(picks[:k]), 1.0),
        ):
            routes = _assert_same_catalogue(g, cls)
            seen["cap"] += routes is None
            seen["empty"] += routes == []
    assert min(seen.values()) >= 10, seen


def test_tree_subsets_match_subset_scan_on_arbitrary_arguments():
    # Covers and leaf sets no traffic class produces, e.g. a root outside
    # `leaves_in`. `_tree_subsets` returns edge bitmasks, in the scan's order.
    rng = np.random.default_rng(21)
    for trial in range(200):
        if trial % 2:
            g = random_connected_graph(rng, max_edges=8)
        else:
            g, _ = random_rooted_digraph(rng, max_edges=8)
        n = g.node_count
        root = int(rng.integers(0, n))
        cover = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.4))
        leaves_in = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.6))
        want = [sum(1 << e for e in tree.edge_ids) for tree in subset_scan(g, root, cover, leaves_in)]
        assert capacity._tree_subsets(g, root, cover, leaves_in) == want


@pytest.mark.parametrize("g, cls, count", [
    # unicast to its own source: only the edgeless route
    (CYCLE4, TrafficClass(0, "unicast", 2, frozenset({2}), 1.0), 1),
    # multicast whose destinations are a subset of {source}
    (CYCLE4, TrafficClass(0, "multicast", 1, frozenset({1}), 1.0), 1),
    # single-node broadcast
    (Graph(1, ()), TrafficClass(0, "broadcast", 0, frozenset({0}), 1.0), 1),
    # directed edges into the root are never used
    (Graph(3, ((1, 0), (0, 1), (2, 0), (1, 2)), directed=True),
     TrafficClass(0, "broadcast", 0, frozenset(range(3)), 1.0), 1),
    (Graph(3, ((1, 0), (0, 1), (2, 0), (1, 2), (0, 2)), directed=True),
     TrafficClass(0, "multicast", 0, frozenset({1, 2}), 1.0), 2),
    # unreachable destinations give an empty catalogue
    (Graph(3, ((1, 0), (1, 2)), directed=True),
     TrafficClass(0, "unicast", 0, frozenset({2}), 1.0), 0),
    (Graph(3, ((0, 1), (2, 1)), directed=True),
     TrafficClass(0, "broadcast", 0, frozenset(range(3)), 1.0), 0),
    (Graph(4, ((0, 1), (2, 3))),
     TrafficClass(0, "anycast", 0, frozenset({2, 3}), 1.0), 0),
])
def test_enumerate_routes_matches_subset_scan_on_edge_cases(g, cls, count):
    assert len(_assert_same_catalogue(g, cls)) == count


def test_simple_paths_match_grown_paths(monkeypatch):
    # Past the subset scan's 12 edges: the path walk returns the grower's
    # masks for every ordered pair, or the same cap error.
    rng = np.random.default_rng(22)
    pairs = capped = 0
    for trial in range(40):
        if trial % 2:
            g = random_connected_graph(rng, max_edges=15)
        else:
            g, _ = random_rooted_digraph(rng, max_edges=15)
        monkeypatch.setattr(capacity, "ROUTE_CAP", 3 if trial % 4 == 0 else ROUTE_CAP)
        for s in range(g.node_count):
            for t in range(g.node_count):
                pairs += 1
                try:
                    want = capacity._tree_subsets(g, s, frozenset({t}), frozenset({t}))
                except CapExceededError as err:
                    capped += 1
                    with pytest.raises(CapExceededError, match=f"^{err}$"):
                        capacity._simple_paths(g, s, t)
                    continue
                assert capacity._simple_paths(g, s, t) == want
    assert pairs >= 500 and capped >= 10, (pairs, capped)


class _ReadLog(tuple):
    """A graph's adjacency that records the nodes whose edges are read, in a
    set or, to count repeats, a list."""

    def __getitem__(self, u):
        if isinstance(self.read, set):
            self.read.add(u)
        else:
            self.read.append(u)
        return tuple.__getitem__(self, u)


def test_simple_paths_never_enter_a_dead_end():
    # Source 0 and destination 1 share an edge; 0 also hangs off a 9-node
    # clique (nodes 2..10) that reaches 1 only back through 0. Walking the
    # clique's simple paths would take about a million steps; the walk
    # extends no branch into it, so only node 0's out-edges are read.
    clique = range(2, 11)
    g = Graph(11, ((0, 1),) + tuple((0, c) for c in clique)
              + tuple((a, b) for a in clique for b in clique if a < b))
    adjacency = _ReadLog(g.adjacency)
    adjacency.read = set()
    g.__dict__["adjacency"] = adjacency
    assert capacity._simple_paths(g, 0, 1) == [1 << 0]
    assert adjacency.read == {0}


def test_enumerate_routes_cap_errors_match_subset_scan(monkeypatch):
    # Past the subset scan's 12 edges only the grown catalogue exists.
    big = Graph(8, tuple((u, v) for u in range(8) for v in range(u + 1, 8))[:13])
    uni = TrafficClass(0, "unicast", 0, frozenset({1}), 1.0)
    with pytest.raises(CapExceededError, match=r"route enumeration edges: size 13 exceeds enumeration cap 12"):
        subset_scan_routes(big, uni)
    assert len(enumerate_routes(big, uni)) == 7  # 0-1 and 0-k-1 for k = 2..7
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    monkeypatch.setattr(capacity, "PATHS_PER_PAIR_CAP", 5)
    assert len(_assert_same_catalogue(k4, uni)) == 5
    monkeypatch.setattr(capacity, "PATHS_PER_PAIR_CAP", 4)
    with pytest.raises(CapExceededError, match=r"paths 0->1: size 5 exceeds enumeration cap 4"):
        enumerate_routes(k4, uni)
    assert _assert_same_catalogue(k4, uni) is None
    any_ = TrafficClass(0, "anycast", 0, frozenset({2, 3}), 1.0)
    with pytest.raises(CapExceededError, match=r"paths 0->2: size 5"):
        enumerate_routes(k4, any_)


def _complete_digraph(n: int) -> Graph:
    return Graph(n, tuple((u, v) for u in range(n) for v in range(n) if u != v), directed=True)


# Graphs past the subset scan's 12 edges, with the roots to span them from.
# The complete digraphs give many parent choices that close a cycle; the
# one on 7 nodes has 7**5 = 16807 spanning trees per root, past ROUTE_CAP.
SPANNING_FAMILIES = {
    "grid3x4": (_grid_graph(3, 4), (0, 5)),   # 2415 spanning trees
    "directed_grid3x3": (_grid_graph(3, 3, directed=True), (0,)),
    "directed_grid4x4": (_grid_graph(4, 4, directed=True), (0,)),
    "complete5": (_complete_digraph(5), range(5)),
    "complete6": (_complete_digraph(6), range(6)),
    "complete7": (_complete_digraph(7), range(7)),
}


def _grown_or_error(g, root):
    nodes = frozenset(range(g.node_count))
    try:
        return capacity._tree_subsets(g, root, nodes, nodes)
    except CapExceededError as err:
        return str(err)


def _chosen_or_error(g, root):
    try:
        return capacity._spanning_trees(g, root)
    except CapExceededError as err:
        return str(err)


@pytest.mark.parametrize("family", list(SPANNING_FAMILIES))
def test_spanning_trees_match_grown_trees(monkeypatch, family):
    # Choosing parents returns the grower's masks from every root, or the
    # same cap error, at the default cap and at a cap of 50.
    g, roots = SPANNING_FAMILIES[family]
    for root in roots:
        want = _grown_or_error(g, root)
        # One bool, so that a failure does not diff thousands of masks.
        same = _chosen_or_error(g, root) == want
        assert same, root
        if family == "grid3x4":
            assert len(want) == 2415
        if family == "complete7":
            assert want == "routes grown: size 10001 exceeds enumeration cap 10000"
    monkeypatch.setattr(capacity, "ROUTE_CAP", 50)
    for root in roots:
        want = _grown_or_error(g, root)
        same = _chosen_or_error(g, root) == want
        assert same, root
        if family !="directed_grid3x3":  # 16 trees
            assert want == "routes grown: size 51 exceeds enumeration cap 50"


def test_spanning_trees_never_choose_into_a_dead_end():
    # A path 0-1-...-11 with a leaf k + 12 hanging off each node k. A node
    # that chose its own leaf as parent would leave the leaf no parent, so
    # in node order the leaves, chosen last, would cut about 3**11 branches.
    # Choosing farthest from the root first, every node's in-arcs are read
    # once: the walk makes one branch per tree, and there is one tree.
    k = 12
    g = Graph(2 * k, tuple((i, i + 1) for i in range(k - 1)) + tuple((i, i + k) for i in range(k)))
    in_arcs = _ReadLog(g.in_adjacency)
    in_arcs.read = []
    g.__dict__["in_adjacency"] = in_arcs
    assert capacity._spanning_trees(g, 0) == [(1 << g.m) - 1]
    assert sorted(in_arcs.read) == list(range(1, 2 * k))


def _four_kind_instances():
    """Criterion 9's random graphs and rooted digraphs, each carrying its
    four class kinds at unequal rates, under primary interference or wired:
    240 (graph, activation set, classes) triples."""
    rng = np.random.default_rng(2025)
    for trial in range(240):
        if trial % 2:
            g = random_connected_graph(rng, max_edges=12)
        else:
            g, _ = random_rooted_digraph(rng, max_edges=12)
        n = g.node_count
        classes = [
            TrafficClass(0, "unicast", 0, frozenset({int(rng.integers(1, n))}), 1.0),
            TrafficClass(1, "broadcast", 0, frozenset(range(n)), 0.5),
        ]
        if n >= 4:
            dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=2, replace=False))
            classes.append(TrafficClass(2, "multicast", 0, dests, 0.25))
            classes.append(TrafficClass(3, "anycast", 0, dests, 0.75))
        aset = enumerate_matchings(g) if trial % 3 else ActivationSet("wired", g.m)
        yield g, aset, classes


def test_random_four_kind_certificates_verify():
    directed = kinds = 0
    for g, aset, classes in _four_kind_instances():
        assert verify_certificate(max_scaling(g, aset, classes), g, aset, classes)
        directed += g.directed
        kinds += len(classes) == 4
    assert directed == 120 and kinds >= 100, (directed, kinds)


def test_duplicate_class_ids_rejected(monkeypatch):
    # Keyed on class id, the second class's routes would replace the first's
    # and both rate rows would share them: rho* = 0 with no flows.
    classes = [
        TrafficClass(0, "unicast", 0, frozenset({2}), 1.0),
        TrafficClass(0, "unicast", 0, frozenset({1}), 0.5),
    ]

    def no_enumeration(*args):
        raise AssertionError("routes enumerated before the class ids were checked")
    # _route_masks is max_scaling's one way to the paths and the trees.
    monkeypatch.setattr(capacity, "_route_masks", no_enumeration)
    with pytest.raises(ConfigError, match=r"duplicate class id 0"):
        max_scaling(LINE3, ActivationSet("wired", 2), classes)


def test_verify_rejects_duplicate_class_ids():
    # The certificate of the second class alone, checked against a list that
    # repeats its id: read by id, the first class would be dropped unseen.
    aset = ActivationSet("wired", 2)
    second = TrafficClass(0, "unicast", 0, frozenset({1}), 0.5)
    cert = max_scaling(LINE3, aset, [second])
    classes = [TrafficClass(0, "unicast", 0, frozenset({2}), 1.0), second]
    with pytest.raises(ConfigError, match=r"^capacity scaling got duplicate class id 0$"):
        verify_certificate(cert, LINE3, aset, classes)


@pytest.mark.parametrize("edge_count", [1, 3])
def test_activation_set_must_match_graph(edge_count):
    # LINE3 has 2 edges: a 1-edge wired set left edge 1 unserved (rho* = 0),
    # and a 3-edge one names an edge the graph does not have.
    cls = TrafficClass(0, "unicast", 0, frozenset({2}), 1.0)
    with pytest.raises(ConfigError, match=rf"activation set is over {edge_count} edges, the graph has 2"):
        max_scaling(LINE3, ActivationSet("wired", edge_count), [cls])


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
    broken_mix = CapacityCertificate(
        rho_star=cert.rho_star,
        rates=cert.rates,
        flows=cert.flows,
        activation_mix=tuple(
            (edges, p / 2) for edges, p in cert.activation_mix
        ),
    )
    # A certificate for another class id: same numbers, unknown class.
    relabelled = CapacityCertificate(
        rho_star=cert.rho_star,
        rates=tuple((7 if cid == 0 else cid, r) for cid, r in cert.rates),
        flows=tuple((7 if cid == 0 else cid, edges, v) for cid, edges, v in cert.flows),
        activation_mix=cert.activation_mix,
    )
    # A certificate that leaves out loaded classes: mixed_kinds' first class
    # alone scales to 5, all four classes together only to about 1.89.
    mg, maset, mclasses = load_config(CONFIGS / "mixed_kinds.json").resolve()
    partial = max_scaling(mg, maset, mclasses[:1])
    assert partial.rho_star > max_scaling(mg, maset, mclasses).rho_star
    # Certificates are exact, so a rho* raised by 1e-12 no longer matches
    # the flows it claims (a 1e-9 tolerance let it through).
    raised = dataclasses.replace(cert, rho_star=cert.rho_star + Fraction(1, 10**12))

    # Malformed entries: flow edge ids that are not ints in 0..m-1, and flow
    # amounts or probabilities that are not rational numbers. Each returns
    # False, not TypeError, including a bool or float that equals the right
    # number (the same flow with int edge ids and a Fraction verifies).
    def first_flow(edges=None, v=None):
        cid, old_edges, old_v = cert.flows[0]
        flow = (cid, old_edges if edges is None else edges, old_v if v is None else v)
        return dataclasses.replace(cert, flows=(flow,) + cert.flows[1:])
    assert cert.flows[0][1:] == ((0, 1, 2), 1)
    assert verify_certificate(first_flow(edges=[0, 1, 2], v=Fraction(1)), g, aset, classes)
    (member, p), = cert.activation_mix
    malformed = [first_flow(edges=edges) for edges in ((0, 1.5), (0, "1"), (0, True, 2), (0, 1.0, 2))]
    malformed += [first_flow(v=v) for v in ("1", 1.0, complex(1), True)]
    malformed += [dataclasses.replace(cert, activation_mix=((member, q),)) for q in ("1", 1.0, True)]
    # The same for rho*, mixture-member edge ids (frozenset reads 1.0 and
    # True as 1), and a rates tuple that lists a class twice.
    assert member == tuple(range(8))
    malformed += [dataclasses.replace(cert, activation_mix=(((0, e) + member[2:], p),)) for e in (1.0, True)]
    malformed += [dataclasses.replace(cert, rho_star=q) for q in (1.0, "1", True)]
    malformed += [dataclasses.replace(cert, rates=cert.rates + cert.rates[:1])]
    # On the grid: members given as floats, and members that list each edge
    # twice to double its service, with rho* and the flows doubled to match.
    gg, gaset, gclasses = builtin_topology("grid3x3_broadcast")
    gcert = max_scaling(gg, gaset, gclasses)
    float_members = dataclasses.replace(gcert, activation_mix=tuple(
        (tuple(map(float, edges)), p) for edges, p in gcert.activation_mix))
    doubled = dataclasses.replace(
        gcert, rho_star=2 * gcert.rho_star,
        flows=tuple((cid, edges, 2 * v) for cid, edges, v in gcert.flows),
        activation_mix=tuple((edges + edges, p) for edges, p in gcert.activation_mix))
    for tampered, (tg, taset, tclasses) in (
        (float_members, (gg, gaset, gclasses)),
        (doubled, (gg, gaset, gclasses)),
        (raised, (g, aset, classes)),
        (bumped, (g, aset, classes)),
        (broken_mix, (g, aset, classes)),
        (relabelled, (g, aset, classes)),
        (partial, (mg, maset, mclasses)),
        *((t, (g, aset, classes)) for t in malformed),
    ):
        assert not verify_certificate(tampered, tg, taset, tclasses)


def test_rho_column_scaling_matches_row_scaled_program():
    # max_scaling puts rho / D in column 0 (D the lcm of the rate
    # denominators). Bland's rule and the ratio test read that column only
    # by sign and by ratios it scales alike, so the pivots, rho* and every
    # flow and mixture value are those of the row-scaled program.
    rng = np.random.default_rng(26)
    rates = (0.1, 0.15, 1 / 3, 0.4, 2.5)
    kinds = 0
    for trial in range(60):
        if trial % 2:
            g = random_connected_graph(rng, max_edges=9)
        else:
            g, _ = random_rooted_digraph(rng, max_edges=9)
        n = g.node_count
        pick = [float(r) for r in rng.choice(rates, size=4)]
        classes = [
            TrafficClass(0, "unicast", 0, frozenset({int(rng.integers(1, n))}), pick[0]),
            TrafficClass(1, "broadcast", 0, frozenset(range(n)), pick[1]),
        ]
        if n >= 4:
            dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=2, replace=False))
            classes.append(TrafficClass(2, "multicast", 0, dests, pick[2]))
            classes.append(TrafficClass(3, "anycast", 0, dests, pick[3]))
            kinds += 1
        aset = enumerate_matchings(g) if trial % 3 else ActivationSet("wired", g.m)
        assert max_scaling(g, aset, classes) == row_scaled_certificate(g, aset, classes)
    assert kinds >= 30, kinds


def test_json_round_trip():
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    cert = max_scaling(g, aset, classes)
    doc = cert.to_json_dict()
    back = certificate_from_json_dict(doc)
    assert back == cert
    assert verify_certificate(back, g, aset, classes)


def test_monotone_in_members():
    rng = np.random.default_rng(31)
    for _ in range(6):
        g = random_connected_graph(rng, max_edges=8)
        n = g.node_count
        t = int(rng.integers(1, n))
        cls = TrafficClass(0, "unicast", 0, frozenset({t}), 1.0)
        aset = enumerate_matchings(g)
        full = max_scaling(g, aset, [cls])
        if len(aset.members) > 1:
            fewer = ActivationSet("explicit", g.m, aset.members[:-1])
            assert max_scaling(g, fewer, [cls]).rho_star <= full.rho_star


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
