"""Acceptance suite: one test per runnable exit criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints the measured numbers. Tolerances are pinned
in the assertions. Criteria 2-4 use the documented stability thresholds:
normalized final queue < 0.05 for "stable", last-decile mean >= 3x the
mean-by-mid-run for "diverging", throughput within 2% of the offered rate.
"""
import time

import numpy as np
import pytest

from helpers import brute_force_max_weight, random_connected_graph, random_weights
from umwsim import engine
from umwsim.activation import max_weight_activation
from umwsim.capacity import enumerate_routes, max_scaling, verify_certificate
from umwsim.cli import main as cli_main
from umwsim.engine import MetricsOptions, SimulationConfig, compare, run, run_many
from umwsim.policy import solve_route
from umwsim.routing import route_cost
from umwsim.topology import builtin_topology, enumerate_matchings
from umwsim.traffic import ArrivalProcess, TrafficClass

SEEDS = (1, 2, 3)
STABILITY_EPS = 0.05
DIVERGENCE_FACTOR = 3.0
THROUGHPUT_RTOL = 0.02


def _grid_cfg(load, seed, policy="umw", horizon=200_000, **kw):
    return SimulationConfig(
        topology="grid3x3_broadcast", horizon=horizon, seed=seed, policy=policy,
        arrival=ArrivalProcess("binomial", trials=4), load_factor=load, **kw,
    )


def _twinpath_cfg(load, seed, policy="umw", horizon=100_000, arrival=None, **kw):
    return SimulationConfig(
        topology="twinpath_unicast", horizon=horizon, seed=seed, policy=policy,
        arrival=arrival or ArrivalProcess("binomial", trials=4), load_factor=load, **kw,
    )


@pytest.fixture(scope="module")
def grid_stable_reports():
    # The seeds run as one run_many batch, so the time bound covers the
    # whole batch: stricter than the same bound on each run.
    start = time.perf_counter()
    reports = run_many([_grid_cfg(0.36, s) for s in SEEDS])
    elapsed = time.perf_counter() - start
    for rep in reports:
        rep.batch_elapsed = elapsed
    return dict(zip(SEEDS, reports))


def test_criterion_01_broadcast_capacity_reproduction():
    g, aset, classes = builtin_topology("grid3x3_broadcast")
    start = time.perf_counter()
    cert = max_scaling(g, aset, classes)
    elapsed = time.perf_counter() - start
    assert abs(float(cert.rho_star) - 0.4) < 1e-6
    assert verify_certificate(cert, g, aset, classes)
    assert elapsed < 60.0
    print(f"criterion 1: grid3x3 broadcast capacity = {cert.rho_star} "
          f"(target 0.4, solved in {elapsed:.2f}s) PASS")


def test_criterion_02_stability_below_capacity(grid_stable_reports):
    for seed, rep in grid_stable_reports.items():
        normalized = rep.total_q[-1] / rep.config.horizon
        thr = rep.throughput[0]
        assert normalized < STABILITY_EPS, f"seed {seed}: queue/T = {normalized}"
        assert abs(thr - 0.36) / 0.36 < THROUGHPUT_RTOL, f"seed {seed}: throughput {thr}"
        assert rep.violations["eq17"] == 0 and rep.violations["delivery"] == 0
        assert rep.batch_elapsed < 120.0, f"seeds {SEEDS}: the runs took {rep.batch_elapsed:.0f}s"
        print(f"criterion 2 seed {seed}: queue/T = {normalized:.2e}, "
              f"throughput = {thr:.4f} (target 0.36), batch of {len(SEEDS)} runs "
              f"{rep.batch_elapsed:.1f}s PASS")


def test_criterion_03_instability_above_capacity():
    assert (engine.STABILITY_EPS, engine.DIVERGENCE_FACTOR) == (STABILITY_EPS, DIVERGENCE_FACTOR)
    reports = run_many([_grid_cfg(0.44, seed) for seed in SEEDS])
    for seed, rep in zip(SEEDS, reports):
        verdict = rep.verdict()
        assert verdict == "diverging", f"seed {seed}: verdict {verdict}"
        print(f"criterion 3 seed {seed}: final queue {int(rep.total_q[-1])}, "
              f"verdict {verdict} PASS")


def test_criterion_04_unicast_rate_point():
    assert (engine.STABILITY_EPS, engine.DIVERGENCE_FACTOR) == (STABILITY_EPS, DIVERGENCE_FACTOR)
    g, aset, classes = builtin_topology("twinpath_unicast")
    cert = max_scaling(g, aset, classes)
    assert abs(float(cert.rho_star) - 1.0) < 1e-6
    assert verify_certificate(cert, g, aset, classes)
    rates = {c.id: c.rate for c in classes}
    reports = run_many([_twinpath_cfg(0.9, seed) for seed in SEEDS]
                       + [_twinpath_cfg(1.1, seed) for seed in SEEDS])
    for seed, rep, bad in zip(SEEDS, reports, reports[len(SEEDS):]):
        normalized = rep.total_q[-1] / rep.config.horizon
        assert normalized < STABILITY_EPS, f"rho=0.9 seed {seed}: queue/T = {normalized}"
        for cid, thr in rep.throughput.items():
            target = rates[cid] * 0.9
            assert abs(thr - target) / target < THROUGHPUT_RTOL
        assert bad.verdict() == "diverging"
    print(f"criterion 4: twinpath rho* = {cert.rho_star} (target 1); "
          f"stable at 0.9 and diverging at 1.1 on seeds {SEEDS} PASS")


def test_criterion_05_delay_comparison_beats_backpressure():
    for seed in SEEDS:
        cfg = _twinpath_cfg(0.5, seed, horizon=20_000, arrival=ArrivalProcess("poisson"))
        reports = compare(cfg, ["umw", "umw-heuristic", "bp"])
        avg = {p: r.avg_total_queue() for p, r in reports.items()}
        arrivals = {p: r.arrivals_per_class.tolist() for p, r in reports.items()}
        assert arrivals["umw"] == arrivals["bp"] == arrivals["umw-heuristic"]
        assert avg["umw"] < avg["bp"], f"seed {seed}: {avg}"
        assert avg["umw-heuristic"] < avg["bp"], f"seed {seed}: {avg}"
        for rep in reports.values():
            assert rep.violations["eq17"] == 0 and rep.violations["delivery"] == 0
        print(f"criterion 5 seed {seed}: avg queue umw={avg['umw']:.2f} "
              f"heuristic={avg['umw-heuristic']:.2f} bp={avg['bp']:.2f} PASS")


def test_criterion_06_heuristic_beats_optimal_on_grid():
    for seed in SEEDS:
        cfg = _grid_cfg(0.3, seed, horizon=20_000)
        reports = compare(cfg, ["umw", "umw-heuristic"])
        opt = reports["umw"].avg_total_queue()
        heur = reports["umw-heuristic"].avg_total_queue()
        assert heur < opt, f"seed {seed}: heuristic {heur} vs optimal {opt}"
        print(f"criterion 6 seed {seed}: heuristic {heur:.2f} < optimal {opt:.2f} PASS")


_DIAG_RUNS = (
    ("line3", "bernoulli", 1, 0.8),
    ("twinpath_unicast", "binomial", 4, 0.7),
    ("grid3x3_broadcast", "binomial", 4, 0.36),
)


@pytest.fixture(scope="module")
def diagnostics_reports():
    out = {}
    for topo, kind, trials, load in _DIAG_RUNS:
        cfg = SimulationConfig(
            topology=topo, horizon=10_000, seed=7, policy="umw",
            arrival=ArrivalProcess(kind, trials=trials), load_factor=load,
            metrics=MetricsOptions(diagnostics=True),
        )
        out[topo] = run(cfg)
    return out


def test_criterion_07_skorokhod_identity(diagnostics_reports):
    for topo, rep in diagnostics_reports.items():
        assert rep.violations["skorokhod"] == 0, f"{topo}: {rep.violations}"
        print(f"criterion 7 {topo}: 10^4 slots, skorokhod violations = 0 PASS")


def test_criterion_08_sandwich_bound(diagnostics_reports):
    for topo, rep in diagnostics_reports.items():
        assert rep.violations["sandwich"] == 0, f"{topo}: {rep.violations}"
        print(f"criterion 8 {topo}: 10^4 slots, sandwich violations = 0 PASS")


def test_criterion_09_solver_exactness_oracles():
    rng = np.random.default_rng(2024)
    activation_checks = route_checks = 0
    for _ in range(200):
        g = random_connected_graph(rng, max_edges=12)
        n = g.node_count
        w = random_weights(rng, g.m)

        aset = enumerate_matchings(g)
        act = max_weight_activation(aset, w)
        assert sum(w[e] for e in act.active) == brute_force_max_weight(g, w)
        activation_checks += 1

        t = int(rng.integers(1, n))
        uni = TrafficClass(0, "unicast", 0, frozenset({t}), 1.0)
        opt = min(route_cost(r, w) for r in enumerate_routes(g, uni))
        assert route_cost(solve_route(g, w, uni), w) == opt
        bc = TrafficClass(1, "broadcast", 0, frozenset(range(n)), 1.0)
        opt = min(route_cost(r, w) for r in enumerate_routes(g, bc))
        assert route_cost(solve_route(g, w, bc), w) == opt
        route_checks += 2
        if n >= 4:
            dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=2, replace=False))
            mc = TrafficClass(2, "multicast", 0, dests, 1.0)
            opt = min(route_cost(r, w) for r in enumerate_routes(g, mc))
            assert route_cost(solve_route(g, w, mc, "exact"), w) == opt
            assert route_cost(solve_route(g, w, mc, "approx"), w) <= 2 * opt
            ac = TrafficClass(3, "anycast", 0, dests, 1.0)
            opt = min(route_cost(r, w) for r in enumerate_routes(g, ac))
            assert route_cost(solve_route(g, w, ac), w) == opt
            route_checks += 3
    print(f"criterion 9: {activation_checks} activation and {route_checks} "
          f"route oracle checks on 200 random graphs, zero failures PASS")


def test_criterion_10_delivery_correctness(grid_stable_reports, monkeypatch):
    classes = (
        TrafficClass(0, "unicast", 0, frozenset({3}), 0.4),
        TrafficClass(1, "broadcast", 6, frozenset(range(8)), 0.15),
        TrafficClass(2, "multicast", 4, frozenset({0, 7}), 0.25),
        TrafficClass(3, "anycast", 2, frozenset({5, 6}), 0.25),
    )
    cfg = SimulationConfig(
        topology="twinpath_unicast", horizon=10_000, seed=10, classes=classes,
        arrival=ArrivalProcess("binomial", trials=2),
        metrics=MetricsOptions(diagnostics=True),
    )
    monkeypatch.setattr(engine, "CHECK_EVERY", 200)
    rep = run(cfg)
    assert rep.violations["delivery"] == 0
    assert rep.violations["eq17"] == 0
    assert rep.violations["layer_identity"] == 0
    for seed, grid_rep in grid_stable_reports.items():
        assert grid_rep.violations["delivery"] == 0
        assert grid_rep.violations["eq17"] == 0
    print("criterion 10: mixed unicast/broadcast/multicast/anycast run, "
          f"violations = {rep.violations} PASS")


def test_criterion_11_byte_identical_csv(tmp_path):
    cfg_doc = {
        "topology": "twinpath_unicast", "horizon": 2000, "seed": 5,
        "policy": "umw", "arrival": {"kind": "poisson"}, "load_factor": 0.5,
    }
    cfg_path = tmp_path / "cfg.json"
    import json
    cfg_path.write_text(json.dumps(cfg_doc))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print(f"criterion 11: two executions, {len(out1.read_bytes())} CSV bytes identical PASS")
