import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import one_slot, reference_csv_rows, slot_by_slot_run
from umwsim import engine, policy, topology
from umwsim.cli import main as cli_main
from umwsim.engine import (
    MetricsOptions,
    SimulationConfig,
    compare,
    config_from_dict,
    load_config,
    run,
    sweep,
)
from umwsim.errors import CapExceededError, ConfigError
from umwsim.traffic import ArrivalProcess, TrafficClass, arrival_table, sweep_subseed
from umwsim.topology import Graph, save_topology


def _line3_cfg(**kw):
    base = dict(topology="line3", horizon=50, seed=1, policy="umw",
                arrival=ArrivalProcess("bernoulli"), load_factor=1.0)
    base.update(kw)
    return SimulationConfig(**base)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _src_env() -> dict:
    src = str(CONFIGS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


def test_zero_horizon_rejected():
    with pytest.raises(ConfigError):
        _line3_cfg(horizon=0)


def test_one_slot_no_arrivals_all_zero():
    rep = run(_line3_cfg(horizon=1, load_factor=0.0))
    assert rep.total_q.tolist() == [0]
    assert rep.total_vq.tolist() == [0]
    assert rep.deliveries.tolist() == [[0]]
    assert rep.violations == {"eq17": 0, "delivery": 0, "layer_identity": 0}


def test_line3_first_packet_delivered_slot_one():
    # hand-simulated: copy crosses edge 0 at slot 0, edge 1 at slot 1
    rep = run(_line3_cfg(horizon=3))
    assert rep.deliveries[:, 0].tolist() == [0, 1, 2]
    assert rep.mean_sojourn_running[1] == 1.0


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        _line3_cfg(policy="gossip")


def test_deliveries_monotone_and_bounded_by_arrivals():
    cfg = SimulationConfig(topology="grid3x3_broadcast", horizon=400, seed=5,
                           arrival=ArrivalProcess("binomial", trials=4), load_factor=0.3)
    rep = run(cfg)
    deliv = rep.deliveries[:, 0]
    assert np.all(np.diff(deliv) >= 0)
    assert deliv[-1] <= rep.arrivals_per_class[0]


def test_determinism_same_seed_same_report():
    cfg = _line3_cfg(horizon=200, arrival=ArrivalProcess("poisson"), load_factor=0.7)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.total_q, b.total_q)
    assert np.array_equal(a.deliveries, b.deliveries)
    assert list(a.csv_rows()) == list(b.csv_rows())


def _slot_by_slot_series(cfg: SimulationConfig):
    """total_q, total_vq, deliveries and mean_sojourn_running of cfg's run,
    each slot's arrivals read and its values recorded one slot at a time."""
    g, aset, classes = cfg.resolve()
    table = arrival_table(classes, cfg.arrival, cfg.horizon, cfg.seed)
    if cfg.policy == "bp":
        stepper = policy.BPState(g, aset, classes)
    else:
        stepper = policy.MaxWeightState(g, aset, classes, cfg.policy, cfg.steiner_mode, frozenset())
    ids = [c.id for c in classes]
    delivered = [0] * len(ids)
    sojourn_sum, sojourn_n = 0.0, 0
    total_q, total_vq, deliveries, sojourn = [], [], [], []
    for t in range(cfg.horizon):
        completed, q, vq = one_slot(stepper, t, {cid: int(table[t, j]) for j, cid in enumerate(ids)})
        for cid, wait in completed:
            delivered[ids.index(cid)] += 1
            sojourn_sum += wait
            sojourn_n += 1
        total_q.append(q)
        total_vq.append(vq)
        deliveries.append(list(delivered))
        sojourn.append(sojourn_sum / sojourn_n if sojourn_n else math.nan)
    return total_q, total_vq, deliveries, sojourn


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
@pytest.mark.parametrize("policy_name", ["umw", "bp"])
@pytest.mark.parametrize("horizon", [1, 255, 256, 257, 513])
def test_block_recording_matches_slot_by_slot_loop(horizon, policy_name, diagnostics):
    # run reads the arrivals and writes the series a block of
    # engine.BLOCK = 256 slots at a time; the horizons straddle its edges.
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=horizon, seed=5, policy=policy_name,
                           arrival=ArrivalProcess("binomial", trials=3), load_factor=0.9,
                           metrics=MetricsOptions(diagnostics=diagnostics))
    rep = run(cfg)
    total_q, total_vq, deliveries, sojourn = _slot_by_slot_series(cfg)
    assert rep.total_q.tolist() == total_q
    assert rep.total_vq.tolist() == total_vq
    assert rep.deliveries.tolist() == deliveries
    assert np.array_equal(rep.mean_sojourn_running, np.array(sojourn), equal_nan=True)
    if horizon > 1:
        assert rep.deliveries[-1].sum() > 0 and (max(total_vq) > 0) == (policy_name == "umw")


# The configs the block-boundary test runs: the shipped configs, line3,
# and the topology files of the CI file smokes (the undirected 3x3 grid
# under primary interference with two unicast classes, and a directed
# 4-node graph whose broadcast routes contract cycles), with the policies
# each can run.
_BOUNDARY_NETS = {
    "ci_grid": {"nodes": 9, "edges": [[0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4], [3, 6], [4, 5],
                                      [4, 7], [5, 8], [6, 7], [7, 8]],
                "activation": {"kind": "primary_interference"}},
    "ci_directed": {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [0, 3]],
                    "directed": True, "activation": {"kind": "primary_interference"}},
}
_BOUNDARY_CASES = [
    ("grid3x3_broadcast", ("umw", "umw-heuristic")),
    ("mixed_kinds", ("umw", "umw-heuristic")),
    ("twinpath_compare", ("umw", "umw-heuristic", "bp")),
    ("line3", ("umw", "umw-heuristic", "bp")),
    ("ci_grid", ("umw", "umw-heuristic", "bp")),
    ("ci_directed", ("umw", "umw-heuristic")),
]


def _boundary_config(case: str, tmp_path: Path, **overrides) -> SimulationConfig:
    if case in _BOUNDARY_NETS:
        net = tmp_path / f"{case}.json"
        net.write_text(json.dumps(_BOUNDARY_NETS[case]))
        if case == "ci_grid":
            classes = (TrafficClass(0, "unicast", 0, frozenset({8}), 1.0),
                       TrafficClass(1, "unicast", 2, frozenset({6}), 1.0))
            load = 0.4
        else:
            classes = (TrafficClass(0, "broadcast", 0, frozenset(range(4)), 1.0),)
            load = 0.3
        return SimulationConfig(topology=str(net), seed=1, load_factor=load, classes=classes, **overrides)
    if case == "line3":
        return _line3_cfg(arrival=ArrivalProcess("binomial", trials=2), load_factor=0.9, **overrides)
    return load_config(CONFIGS / f"{case}.json", **overrides)


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
@pytest.mark.parametrize("horizon", [1, 255, 256, 257, 1000, 1001, 2049])
@pytest.mark.parametrize("case, policy_name", [(case, p) for case, policies in _BOUNDARY_CASES
                                               for p in policies])
def test_block_run_matches_the_slot_by_slot_reference(case, policy_name, horizon, diagnostics, tmp_path):
    # One run_block call per engine.BLOCK = 256 slots against one slot per
    # call, at horizons on both sides of the block edges and of the
    # CHECK_EVERY = 1000 checkpoints.
    cfg = _boundary_config(case, tmp_path, horizon=horizon, policy=policy_name,
                           metrics=MetricsOptions(diagnostics=diagnostics))
    rep, ref = run(cfg), slot_by_slot_run(cfg)
    assert rep.class_ids == ref.class_ids
    for name in ("total_q", "total_vq", "deliveries", "arrivals_per_class"):
        got, want = getattr(rep, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), name
    # The running mean sojourn bit for bit, nan included.
    assert rep.mean_sojourn_running.tobytes() == ref.mean_sojourn_running.tobytes()
    assert rep.violations == ref.violations
    assert rep.route_cache == ref.route_cache


def test_eq17_counts_each_class_below_its_bound_at_each_checkpoint(monkeypatch):
    # eq17 never fails on a working run, so the policy reports a queue one
    # packet short of the least backlog over the classes: then every class
    # fails the bound in every slot, and each counts once per checkpoint.
    real = policy.MaxWeightState.run_block
    arrived, delivered = [0, 0], [0, 0]

    def tight_queue(self, start, rows):
        _, total_vq, done = real(self, start, rows)
        cols = [cls.id for cls in self.classes]
        completions = iter(done)
        nxt = next(completions, None)
        total_q = []
        for t, row in enumerate(rows, start):
            arrived[:] = [a + n for a, n in zip(arrived, row)]
            while nxt is not None and nxt[0] == t:
                delivered[cols.index(nxt[1])] += 1
                nxt = next(completions, None)
            total_q.append(min(a - d for a, d in zip(arrived, delivered)) - 1)
        return total_q, total_vq, done

    monkeypatch.setattr(policy.MaxWeightState, "run_block", tight_queue)
    cfg = load_config(CONFIGS / "twinpath_compare.json", horizon=2500, load_factor=0.9)
    rep = run(cfg)
    _, _, classes = cfg.resolve()
    table = arrival_table(classes, cfg.arrival, cfg.horizon, cfg.seed).cumsum(axis=0)
    checkpoints = (999, 1999, 2499)
    want = sum(int(d < a - rep.total_q[t]) for t in checkpoints for d, a in zip(rep.deliveries[t], table[t]))
    assert want == 3 * len(classes) and rep.violations["eq17"] == want
    assert rep.arrivals_per_class.tolist() == table[-1].tolist()


def _csv_case(case: str, horizon: int) -> SimulationConfig:
    if case == "line3-nan":
        # Two hops: nothing is delivered in slot 0, so the run opens on nan cells.
        return _line3_cfg(horizon=horizon, seed=2, arrival=ArrivalProcess("poisson"), load_factor=0.6)
    if case == "mixed_kinds":
        return load_config(CONFIGS / "mixed_kinds.json", horizon=horizon)
    return SimulationConfig(topology="twinpath_unicast", horizon=horizon, seed=5, policy="bp",
                            arrival=ArrivalProcess("binomial", trials=3), load_factor=0.9)


@pytest.mark.parametrize("case", ["line3-nan", "mixed_kinds", "twinpath-bp"])
@pytest.mark.parametrize("horizon", [1, 255, 256, 257, 513])
def test_csv_rows_match_per_cell_reference(case, horizon):
    # csv_rows reads the series a block of engine.BLOCK = 256 slots at a
    # time; the horizons straddle its edges.
    rep = run(_csv_case(case, horizon))
    rows = list(rep.csv_rows())
    assert rows == list(reference_csv_rows(rep))
    assert len(rows) == horizon + 1
    if case == "line3-nan":
        assert rows[1][-1] == "nan"
    if case == "mixed_kinds":
        assert len(rep.class_ids) == 4


def test_csv_rows_hold_one_block_of_python_numbers():
    # Reading the whole series with tolist() would hold every cell of a
    # long run as a Python object at once; csv_rows holds one block.
    T = 60_000
    slots = np.arange(T, dtype=np.int64)
    rep = engine.MetricsReport(
        config=_line3_cfg(horizon=T), class_ids=[0], total_q=slots + 1000, total_vq=slots + 2000,
        deliveries=(slots // 2 + 1000).reshape(T, 1), mean_sojourn_running=slots / 7 + 0.5,
        arrivals_per_class=np.array([T]), route_cache={})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        whole = [a.tolist() for a in (rep.total_q, rep.total_vq, rep.deliveries, rep.mean_sojourn_running)]
        whole_bytes = tracemalloc.get_traced_memory()[1] - base
        del whole
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in rep.csv_rows():
            pass
        rows_bytes = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rows_bytes * 20 < whole_bytes


def test_write_csv_streams_its_rows(tmp_path):
    # Written row by row, the peak is one block of rows and the file
    # buffer, whatever the horizon; a file built in memory before it is
    # written peaks at about twice its size.
    rep = run(_line3_cfg(horizon=30_000, arrival=ArrivalProcess("poisson"), load_factor=0.6))
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep.write_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.read_text().splitlines() == [",".join(row) for row in reference_csv_rows(rep)]
    assert peak * 5 < path.stat().st_size


@pytest.mark.parametrize("name, policy", [
    ("mixed_kinds", "umw"), ("grid3x3_broadcast", "umw-heuristic"), ("twinpath_compare", "bp")])
def test_a_shorter_run_is_a_prefix_of_a_longer_one(name, policy):
    # Slot t's row depends only on slots 0..t, so a run cut at 1000 slots
    # writes the first 1001 rows (the header and slots 0..999) of the same
    # run at 3000 slots.
    short, long = (run(load_config(CONFIGS / f"{name}.json", horizon=T, policy=policy)) for T in (1000, 3000))
    rows = list(long.csv_rows())
    assert len(rows) == 3001 and list(short.csv_rows()) == rows[:1001]


def test_compare_shares_arrival_sample_paths():
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=300, seed=3,
                           arrival=ArrivalProcess("poisson"), load_factor=0.4)
    reports = compare(cfg, ["umw", "umw-heuristic", "bp"])
    totals = {p: r.arrivals_per_class.tolist() for p, r in reports.items()}
    assert totals["umw"] == totals["umw-heuristic"] == totals["bp"]


def test_compare_rejects_bp_before_any_run(monkeypatch):
    # mixed_kinds carries non-unicast classes, which back-pressure cannot
    # route; compare used to finish both max-weight runs before saying so.
    built = []
    init = policy.MaxWeightState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(policy.MaxWeightState, "__init__", counting_init)
    cfg = load_config(CONFIGS / "mixed_kinds.json", horizon=50)
    with pytest.raises(ConfigError, match="unicast classes only"):
        compare(cfg, ["umw", "umw-heuristic", "bp"])
    assert built == []


def test_compare_rejects_repeated_policy():
    # Reports are keyed by policy, so a repeated name used to collapse into
    # one summary entry while the CLI wrote its CSV rows twice.
    with pytest.raises(ConfigError, match="'umw' more than once"):
        compare(_line3_cfg(horizon=10), ["umw", "bp", "umw"])


def test_compare_rejects_no_policy():
    with pytest.raises(ConfigError, match="compare needs at least one policy"):
        compare(_line3_cfg(horizon=10), [])


def test_sweep_rejects_no_load():
    with pytest.raises(ConfigError, match="sweep needs at least one load"):
        sweep(_line3_cfg(horizon=10), [])


def test_compare_same_policy_identical():
    cfg = _line3_cfg(horizon=100)
    r1, r2 = run(cfg), run(dataclasses.replace(cfg))
    assert list(r1.csv_rows()) == list(r2.csv_rows())


def test_bp_rejects_broadcast_class():
    cfg = SimulationConfig(topology="grid3x3_broadcast", horizon=10, policy="bp",
                           arrival=ArrivalProcess("bernoulli"), load_factor=0.1)
    with pytest.raises(ConfigError):
        run(cfg)


def test_sweep_single_value_matches_run():
    cfg = _line3_cfg(horizon=150, load_factor=1.0, arrival=ArrivalProcess("poisson"))
    rows = sweep(cfg, [0.5])
    direct = run(dataclasses.replace(cfg, load_factor=0.5, seed=sweep_subseed(cfg.seed, 0)))
    assert rows[0]["avg_total_queue"] == direct.avg_total_queue()
    assert rows[0]["throughput_c0"] == direct.throughput[0]


def test_sweep_queue_grows_with_load():
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=3000, seed=11,
                           arrival=ArrivalProcess("poisson"))
    rows = sweep(cfg, [0.2, 0.5, 0.8])
    qs = [r["avg_total_queue"] for r in rows]
    assert qs[0] < qs[-1]


def test_diagnostics_clean_on_small_run():
    cfg = SimulationConfig(topology="grid3x3_broadcast", horizon=2000, seed=2,
                           arrival=ArrivalProcess("binomial", trials=4), load_factor=0.36,
                           metrics=MetricsOptions(diagnostics=True))
    rep = run(cfg)
    assert rep.violations["skorokhod"] == 0
    assert rep.violations["sandwich"] == 0
    assert rep.violations["loading"] == 0


def test_bp_diagnostics_report_no_virtual_queue_checks():
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=300, seed=3,
                           arrival=ArrivalProcess("poisson"), load_factor=0.5,
                           metrics=MetricsOptions(diagnostics=True))
    virtual_checks = {"skorokhod", "sandwich", "loading"}
    bp = run(dataclasses.replace(cfg, policy="bp"))
    assert not virtual_checks & set(bp.violations)
    assert not virtual_checks & set(bp.summary()["violations"])
    umw = run(dataclasses.replace(cfg, policy="umw"))
    assert virtual_checks <= set(umw.violations)
    reports = compare(cfg, ["umw", "umw-heuristic", "bp"])
    assert virtual_checks <= set(reports["umw-heuristic"].violations)
    assert not virtual_checks & set(reports["bp"].violations)


def test_mixed_traffic_kinds_run_clean(monkeypatch):
    classes = (
        TrafficClass(0, "unicast", 0, frozenset({3}), 0.3),
        TrafficClass(1, "broadcast", 6, frozenset(range(8)), 0.1),
        TrafficClass(2, "multicast", 4, frozenset({0, 7}), 0.2),
        TrafficClass(3, "anycast", 2, frozenset({5, 6}), 0.2),
    )
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=2500, seed=4,
                           classes=classes, arrival=ArrivalProcess("binomial", trials=2),
                           metrics=MetricsOptions(diagnostics=True))
    monkeypatch.setattr(engine, "CHECK_EVERY", 250)
    rep = run(cfg)
    assert all(v == 0 for v in rep.violations.values())
    assert rep.verdict() == "stable"
    for cid in (0, 1, 2, 3):
        assert rep.throughput[cid] > 0


def test_steiner_approx_mode_runs_clean():
    classes = (TrafficClass(0, "multicast", 0, frozenset({3, 7}), 0.4),)
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=1500, seed=6,
                           classes=classes, arrival=ArrivalProcess("bernoulli"),
                           steiner_mode="approx",
                           metrics=MetricsOptions(diagnostics=True))
    rep = run(cfg)
    assert all(v == 0 for v in rep.violations.values())
    assert rep.throughput[0] > 0.3


def test_degenerate_source_is_destination_run():
    cfg = SimulationConfig(
        topology="line3", horizon=5, seed=1,
        classes=(TrafficClass(0, "unicast", 1, frozenset({1}), 1.0),),
        arrival=ArrivalProcess("bernoulli"),
    )
    rep = run(cfg)
    # source == destination: every arrival is delivered in its arrival slot
    assert rep.deliveries[-1, 0] == rep.arrivals_per_class[0]
    assert rep.total_q.tolist() == [0] * 5


def test_file_topology_with_classes(tmp_path):
    g = Graph(3, ((0, 1), (1, 2)))
    net = tmp_path / "net.json"
    save_topology(g, net)
    cfg = config_from_dict({
        "topology": str(net),
        "horizon": 40,
        "seed": 1,
        "classes": [{"id": 0, "kind": "unicast", "source": 0, "destinations": [2], "rate": 0.5}],
    })
    rep = run(cfg)
    assert rep.throughput[0] > 0


def test_file_topology_resolve_reads_the_file_once(tmp_path, monkeypatch):
    # resolve() used to read the file twice: once for the graph, once more
    # for its activation block.
    g = Graph(3, ((0, 1), (1, 2)))
    net = tmp_path / "net.json"
    save_topology(g, net)
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    cfg = SimulationConfig(topology=str(net), classes=(TrafficClass(0, "unicast", 0, frozenset({2}), 0.5),))
    resolved_g, aset, _ = cfg.resolve()
    assert reads == [net]
    assert resolved_g == g and aset.kind == "wired"


def test_compare_resolves_a_file_topology_once(tmp_path, monkeypatch):
    # compare used to resolve the config once per policy and once more for
    # the back-pressure check: 4 reads and 4 matching enumerations here.
    net = tmp_path / "grid.json"
    grid = Graph(9, ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6), (4, 5),
                     (4, 7), (5, 8), (6, 7), (7, 8)))
    net.write_text(json.dumps({"nodes": 9, "edges": [list(e) for e in grid.edges],
                               "activation": {"kind": "primary_interference"}}))
    reads, enumerations = [], []
    read_text, enumerate_matchings = Path.read_text, topology.enumerate_matchings

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    def counting_enumerate(g):
        enumerations.append(g)
        return enumerate_matchings(g)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(topology, "enumerate_matchings", counting_enumerate)
    cfg = SimulationConfig(topology=str(net), horizon=60, seed=1, load_factor=0.4, classes=(
        TrafficClass(0, "unicast", 0, frozenset({8}), 1.0),
        TrafficClass(1, "unicast", 2, frozenset({6}), 1.0)))
    reports = compare(cfg, ["umw", "umw-heuristic", "bp"])
    assert reads == [net] and enumerations == [grid]
    monkeypatch.undo()
    for p, rep in reports.items():
        alone = run(dataclasses.replace(cfg, policy=p))
        assert list(rep.csv_rows()) == list(alone.csv_rows())
        assert rep.summary() == alone.summary()


def test_sweep_resolves_a_file_topology_once(tmp_path, monkeypatch):
    # sweep used to resolve the config once per load point: 3 reads and 3
    # matching enumerations here, and a file changed mid-sweep gave points
    # on two versions of it.
    net = tmp_path / "grid.json"
    grid = Graph(9, ((0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6), (4, 5),
                     (4, 7), (5, 8), (6, 7), (7, 8)))
    net.write_text(json.dumps({"nodes": 9, "edges": [list(e) for e in grid.edges],
                               "activation": {"kind": "primary_interference"}}))
    reads, enumerations = [], []
    read_text, enumerate_matchings = Path.read_text, topology.enumerate_matchings

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    def counting_enumerate(g):
        enumerations.append(g)
        return enumerate_matchings(g)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(topology, "enumerate_matchings", counting_enumerate)
    cfg = SimulationConfig(topology=str(net), horizon=60, seed=1, load_factor=0.7, classes=(
        TrafficClass(0, "unicast", 0, frozenset({8}), 0.3),
        TrafficClass(1, "unicast", 2, frozenset({6}), 1.0)))
    loads = [0.1, 0.4, 0.9]
    rows = sweep(cfg, loads)
    assert reads == [net] and enumerations == [grid]
    monkeypatch.undo()
    for i, (load, row) in enumerate(zip(loads, rows)):
        alone = run(dataclasses.replace(cfg, load_factor=load, seed=sweep_subseed(cfg.seed, i)))
        assert row == {"load": load, "policy": "umw", "avg_total_queue": alone.avg_total_queue(),
                       "final_total_queue": int(alone.total_q[-1]), "verdict": alone.verdict(),
                       **{f"throughput_c{cid}": thr for cid, thr in alone.throughput.items()}}


def test_file_topology_requires_classes(tmp_path):
    net = tmp_path / "net.json"
    save_topology(Graph(2, ((0, 1),)), net)
    cfg = config_from_dict({"topology": str(net), "horizon": 5})
    with pytest.raises(ConfigError):
        run(cfg)


# --- CLI ----------------------------------------------------------------------

def _write_cfg(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


def test_cli_run_writes_csv_and_summary(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "topology": "line3", "horizon": 30, "seed": 2, "policy": "umw",
        "arrival": {"kind": "poisson"}, "load_factor": 0.5,
    })
    out = tmp_path / "run.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,policy,total_q,total_vq,throughput_c0,mean_sojourn"
    assert len(lines) == 31
    summary = json.loads((tmp_path / "run.csv.summary.json").read_text())
    assert summary["policy"] == "umw" and summary["seed"] == 2


def test_cli_run_diagnostics_exit_code_clean(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "topology": "line3", "horizon": 50, "seed": 2,
        "arrival": {"kind": "bernoulli"}, "load_factor": 0.8,
    })
    out = tmp_path / "d.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--diagnostics"]) == 0


def test_cli_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "line3", "horizon": 10, "seed": 1})
    out = tmp_path / "o.csv"
    cli_main(["run", "--config", str(cfg), "--horizon", "17", "--seed", "9",
              "--policy", "umw-heuristic", "--out", str(out)])
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert summary["horizon"] == 17 and summary["seed"] == 9 and summary["policy"] == "umw-heuristic"


def test_cli_sweep(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "topology": "line3", "horizon": 200, "seed": 1,
        "arrival": {"kind": "poisson"},
    })
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--load", "0.2,0.6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("load,policy,avg_total_queue")
    assert len(lines) == 3


def test_cli_sweep_rejects_descending(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "line3", "horizon": 10})
    with pytest.raises(SystemExit):
        cli_main(["sweep", "--config", str(cfg), "--load", "0.6,0.2"])


def test_cli_compare(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "topology": "twinpath_unicast", "horizon": 100, "seed": 3,
        "arrival": {"kind": "poisson"}, "load_factor": 0.3,
    })
    out = tmp_path / "cmp.csv"
    assert cli_main(["compare", "--config", str(cfg), "--policies", "umw,bp", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("slot,policy")
    policies = {line.split(",")[1] for line in text[1:]}
    assert policies == {"umw", "bp"}


def test_cli_compare_rejects_repeated_policy(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "line3", "horizon": 10})
    with pytest.raises(SystemExit, match="umwsim compare: error: .*'umw' more than once"):
        cli_main(["compare", "--config", str(cfg), "--policies", "umw,umw", "--out", str(tmp_path / "c.csv")])
    assert not (tmp_path / "c.csv").exists()


def test_cli_run_policy_choices_are_the_policy_names(capsys):
    for name in policy.POLICY_NAMES:
        assert cli_main(["run", "--config", str(CONFIGS / "twinpath_compare.json"),
                         "--horizon", "5", "--policy", name]) == 0
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", str(CONFIGS / "twinpath_compare.json"), "--policy", "gossip"])
    assert "invalid choice: 'gossip'" in capsys.readouterr().err


def test_cli_sweep_bad_load_is_a_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"topology": "line3", "horizon": 10})
    with pytest.raises(SystemExit):
        cli_main(["sweep", "--config", str(cfg), "--load", "0.2,x"])
    assert "umwsim sweep: error: argument --load: not a comma-separated list of numbers: '0.2,x'" \
        in capsys.readouterr().err


def test_cli_missing_config_file_exits_with_message(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SystemExit, match=f"umwsim run: error: .*{re.escape(str(missing))}"):
        cli_main(["run", "--config", str(missing)])


def test_cli_missing_topology_file_exits_with_message(tmp_path):
    missing = tmp_path / "net.json"
    cfg = _write_cfg(tmp_path, {"topology": str(missing), "horizon": 5,
                                "classes": [dict(_LINE3_CLASS, rate=0.5)]})
    for command in ("run", "capacity"):
        with pytest.raises(SystemExit, match=f"umwsim {command}: error: .*{re.escape(str(missing))}"):
            cli_main([command, "--config", str(cfg)])


def test_cli_capacity(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "grid3x3_broadcast", "horizon": 10})
    out = tmp_path / "cert.json"
    assert cli_main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert doc["rho_star_exact"] == "2/5"


@pytest.mark.parametrize("load", ["nan", "inf", "-inf"])
def test_non_finite_load_factor_rejected(load):
    # A NaN load used to run silently: Bernoulli draws against NaN never
    # arrive, and the verdict read "stable". JSON spells these NaN,
    # Infinity and -Infinity; a string is no number at all.
    with pytest.raises(ConfigError, match="load_factor must be finite"):
        config_from_dict({"topology": "line3", "load_factor": float(load)})
    with pytest.raises(ConfigError, match="load_factor must be finite"):
        _line3_cfg(load_factor=float(load))


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_poisson_rate_rejected(rate):
    doc = {"topology": "line3", "arrival": {"kind": "poisson"},
           "classes": [{"id": 0, "kind": "unicast", "source": 0, "destinations": [2], "rate": float(rate)}]}
    with pytest.raises(ConfigError, match="rate must be finite"):
        config_from_dict(doc)


def test_cli_capacity_infinite_rate_exits_with_message(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "topology": "line3",
        "classes": [{"id": 0, "kind": "unicast", "source": 0, "destinations": [2], "rate": math.inf}],
    })
    with pytest.raises(SystemExit, match="rate must be finite"):
        cli_main(["capacity", "--config", str(cfg)])


def test_cli_run_bad_config_exits_with_message(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "line3", "horizon": "ten"})
    with pytest.raises(SystemExit, match="horizon"):
        cli_main(["run", "--config", str(cfg)])
    (tmp_path / "broken.json").write_text('{"topology": ')
    with pytest.raises(SystemExit, match="not valid JSON"):
        cli_main(["run", "--config", str(tmp_path / "broken.json")])


def test_diagnostics_must_be_bool():
    # "no" is truthy, so it used to turn diagnostics on.
    for bad in ("no", 0, 1, None):
        with pytest.raises(ConfigError, match="diagnostics"):
            config_from_dict({"topology": "line3", "metrics": {"diagnostics": bad}})
    assert config_from_dict({"topology": "line3", "metrics": {"diagnostics": False}}).metrics.diagnostics is False


_LINE3_CLASS = {"id": 0, "kind": "unicast", "source": 0, "destinations": [2]}


def _grid_unreachable(kind, source, destinations, policy_name="umw") -> dict:
    """The builtin grid, whose arcs lead right and down from node 0, with
    a routable unicast class 0->8 and a second class of the given kind
    from source to destinations."""
    return {"topology": "grid3x3_broadcast", "policy": policy_name, "classes": [
        {"id": 0, "kind": "unicast", "source": 0, "destinations": [8], "rate": 0.2},
        {"id": 1, "kind": kind, "source": source, "destinations": destinations, "rate": 0.2}]}


_UNREACHABLE_UNICAST = "classes[1].destinations [0] not reachable from source 8"
_UNREACHABLE_BROADCAST = "classes[1].destinations [0, 1, 2, 3, 6] not reachable from source 4"
_UNREACHABLE_MULTICAST = "classes[1].destinations [2] not reachable from source 4"
_UNREACHABLE_ANYCAST = "classes[1].destinations [0, 3] not reachable from source 4"
_RUN_TIME_KEYS = ("poisson arrivals cannot have mean", "classes must list at least one traffic class",
                  _UNREACHABLE_UNICAST, _UNREACHABLE_BROADCAST, _UNREACHABLE_MULTICAST,
                  _UNREACHABLE_ANYCAST)


@pytest.mark.parametrize("doc, key", [
    ({"horizon": 10}, "topology"),
    ({"topology": "line3", "classes": [_LINE3_CLASS]}, "classes[0].rate"),
    ({"topology": "line3", "horizon": "ten"}, "horizon"),
    ({"topology": "line3", "metrics": [1]}, "metrics"),
    ({"topology": "line3", "metrics": {"warmup_frac": "x"}}, "warmup_frac"),
    ({"topology": "line3", "metrics": {"record_every": "5"}}, "record_every"),
    ({"topology": "line3", "arrival": {"kind": "binomial", "trials": "two"}}, "arrival.trials"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=0.5, source="a")]}, "classes[0].source"),
    ({"topology": "line3", "classes": [3]}, "classes"),
    (None, "JSON object"),
    ({"topology": "line3", "horizon": 5.7}, "horizon"),
    ({"topology": "line3", "seed": 1.9}, "seed"),
    ({"topology": "line3", "horizon": True}, "horizon"),
    ({"topology": "line3", "horizon": "12"}, "horizon"),
    ({"topology": "line3", "seed": -1}, "seed"),
    ({"topology": "line3", "arrival": {"kind": "binomial", "trials": 2.9}}, "arrival.trials"),
    ({"topology": "line3", "arrival": {"kind": "binomial", "trials": True}}, "arrival.trials"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=0.5, id=0.5)]}, "classes[0].id"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=0.5, source=False)]}, "classes[0].source"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=0.5, destinations=[2.0])]},
     "classes[0].destinations[0]"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=True)]}, "classes[0].rate"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rate="0.5")]}, "classes[0].rate"),
    ({"topology": "line3", "load_factor": True}, "load_factor"),
    ({"topology": "line3", "load_factor": "1"}, "load_factor"),
    ({"topology": "line3", "metrics": {"record_every": True}}, "record_every"),
    ({"topology": "line3", "metrics": {"diagnostics": "true"}}, "diagnostics"),
    ({"topology": "line3", "metrics": {"diagnostics": 1}}, "diagnostics"),
    ({"topology": "line3", "arrival": {"kind": "bernoulli", "trials": -7}}, "arrival.trials"),
    ({"topology": "line3", "arrival": {"kind": "poisson", "trials": 0}}, "arrival.trials"),
    ({"topology": "line3", "arrival": {"kind": "binomial", "trials": 10**30}}, "arrival.trials must be below 2**63"),
    ({"topology": "line3", "arrival": {"kind": "poisson"}, "load_factor": 1e300},
     "poisson arrivals cannot have mean"),
    ({"topology": "line3", "classes": []}, "classes must list at least one traffic class"),
    (_grid_unreachable("unicast", 8, [0]), _UNREACHABLE_UNICAST),
    (_grid_unreachable("unicast", 8, [0], "umw-heuristic"), _UNREACHABLE_UNICAST),
    (_grid_unreachable("unicast", 8, [0], "bp"), _UNREACHABLE_UNICAST),
    (_grid_unreachable("broadcast", 4, list(range(9))), _UNREACHABLE_BROADCAST),
    (_grid_unreachable("multicast", 4, [2, 5]), _UNREACHABLE_MULTICAST),
    (_grid_unreachable("anycast", 4, [0, 3]), _UNREACHABLE_ANYCAST),
], ids=["no_topology", "class_without_rate", "horizon_text", "metrics_list", "warmup_text",
        "record_every_text", "trials_text", "source_text", "class_not_object", "null_document",
        "horizon_float", "seed_float", "horizon_bool", "horizon_numeric_text", "seed_negative",
        "trials_float", "trials_bool", "id_float", "source_bool", "destination_float", "rate_bool",
        "rate_text", "load_factor_bool", "load_factor_text", "record_every_bool",
        "diagnostics_text", "diagnostics_int", "bernoulli_trials_negative", "poisson_trials_zero",
        "trials_too_large", "poisson_mean_too_large", "classes_empty", "unreachable_unicast_umw",
        "unreachable_unicast_heuristic", "unreachable_unicast_bp", "unreachable_broadcast",
        "unreachable_multicast", "unreachable_anycast"])
def test_malformed_config_names_the_key(doc, key, monkeypatch):
    def no_slot(*args):
        raise AssertionError("a slot ran")

    monkeypatch.setattr(policy.MaxWeightState, "run_block", no_slot)
    monkeypatch.setattr(policy.BPState, "run_block", no_slot)
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfg = config_from_dict(doc)
        # The checks that need the resolved, load-scaled classes pass the
        # document and fail in run: in resolve() or in arrival_table, both
        # before the first slot.
        assert key in _RUN_TIME_KEYS, f"{doc!r} was read without an error"
        run(cfg)


def test_reachability_asks_one_anycast_destination_and_a_positive_rate():
    # Node 4 reaches 8 but not 0; node 8 reaches nothing. A class at rate
    # 0 never needs a route, and load_factor 0 sets every rate to 0.
    doc = _grid_unreachable("anycast", 4, [0, 8])
    doc["classes"].append({"id": 2, "kind": "unicast", "source": 8, "destinations": [0], "rate": 0})
    assert run(config_from_dict(dict(doc, horizon=50))).route_cache["misses"] > 0
    idle = dict(_grid_unreachable("unicast", 8, [0]), load_factor=0.0, horizon=50)
    assert run(config_from_dict(idle)).route_cache["misses"] == 0


@pytest.mark.parametrize("change, message", [
    ({"source": 5}, "classes[1].source 5 out of range"),
    ({"destinations": [3]}, "classes[1].destinations outside node range"),
    ({"id": 0}, "classes[1].id 0 is a duplicate class id"),
    ({"kind": "broadcast", "destinations": [0, 1]},
     "classes[1].destinations: broadcast must target every node"),
    ({"kind": "multicast"}, "classes[1].destinations: multicast needs a proper subset"),
], ids=["source", "destinations", "id", "broadcast", "multicast"])
def test_graph_dependent_class_checks_name_the_key(change, message):
    # These checks need the graph, so they run in resolve(), after the
    # document has been read; they still name the class by its key path.
    good = dict(_LINE3_CLASS, rate=0.5)
    doc = {"topology": "line3", "classes": [good, {**good, "id": 1, **change}]}
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(doc).resolve()


def test_integer_keys_reject_floats_and_bools_in_python():
    for key, bad in (("horizon", 5.5), ("horizon", True), ("seed", 1.5), ("seed", -1), ("seed", False)):
        with pytest.raises(ConfigError, match=key):
            _line3_cfg(**{key: bad})
    with pytest.raises(ConfigError, match="load_factor"):
        _line3_cfg(load_factor=True)


def test_json_ints_still_read_as_float_rates():
    cfg = config_from_dict({"topology": "line3", "load_factor": 1,
                            "classes": [dict(_LINE3_CLASS, rate=0)]})
    assert type(cfg.load_factor) is float and type(cfg.classes[0].rate) is float


def test_integer_rates_echo_alike_from_python_and_json():
    # load_factor=1 used to echo as 1 from Python and as 1.0 from JSON.
    doc = {"topology": "line3", "load_factor": 1, "classes": [dict(_LINE3_CLASS, rate=1)]}
    built = SimulationConfig(topology="line3", load_factor=1,
                             classes=(TrafficClass(0, "unicast", 0, frozenset({2}), 1),))
    read = config_from_dict(doc)
    assert json.dumps(built.echo(), sort_keys=True) == json.dumps(read.echo(), sort_keys=True)
    assert '"load_factor": 1.0' in json.dumps(built.echo())
    assert '"rate": 1.0' in json.dumps(built.echo())


@pytest.mark.parametrize("key, bad", [
    ("arrival", "poisson"), ("metrics", {"diagnostics": True}), ("classes", [1]), ("topology", 3),
])
def test_config_built_in_python_checks_its_nested_types(key, bad):
    # arrival="poisson" used to end in an AttributeError once the run started.
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        _line3_cfg(**{key: bad})


def test_nested_rule_message_names_the_key_path():
    doc = {"topology": "line3", "classes": [dict(_LINE3_CLASS, rate=0.5, destinations=[2, 1.0])]}
    with pytest.raises(ConfigError, match=re.escape("classes[0].destinations[1] must be an integer, got 1.0")):
        config_from_dict(doc)


def test_cli_negative_seed_exits_with_message():
    proc = subprocess.run(
        [sys.executable, "-m", "umwsim.cli", "run", "--config", str(CONFIGS / "twinpath_compare.json"),
         "--horizon", "5", "--seed", "-1"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 1
    assert "umwsim run: error: seed must be an integer >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_steiner_mode_rejected_without_multicast():
    # line3 carries a single unicast class, so no Steiner solve would ever
    # reach the mode and report it.
    with pytest.raises(ConfigError, match="steiner_mode"):
        _line3_cfg(steiner_mode="exactt")
    with pytest.raises(ConfigError, match="steiner_mode"):
        config_from_dict({"topology": "line3", "steiner_mode": "greedy"})


def test_summary_verdict_uses_configured_thresholds(monkeypatch):
    # At load 1.0 on line3 the final queue is a few packets: small against
    # the horizon but not against a strict STABILITY_EPS.
    cfg = _line3_cfg(horizon=400)
    default = run(cfg)
    final = float(default.total_q[-1]) / cfg.horizon
    assert 0 < final < engine.STABILITY_EPS
    assert default.summary()["verdict"] == "stable"
    monkeypatch.setattr(engine, "STABILITY_EPS", final / 2)
    report = run(cfg)
    assert report.total_q.tolist() == default.total_q.tolist()  # thresholds only judge
    expected = report.verdict()
    assert expected != "stable"
    assert report.summary()["verdict"] == expected


def test_unknown_metrics_key_rejected():
    # The last five are the settings that became engine constants
    # (WARMUP_FRAC, CHECK_EVERY, STABILITY_EPS, DIVERGENCE_FACTOR; every
    # slot is recorded).
    for key in ("record_evry", "history_window", "warmup_frac", "record_every", "eq17_every",
                "stability_eps", "divergence_factor"):
        doc = {"topology": "line3", "metrics": {"diagnostics": True, key: 5}}
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key(s): 'metrics.{key}'")):
            config_from_dict(doc)


@pytest.mark.parametrize("doc, key", [
    ({"topology": "line3", "horizn": 5}, "horizn"),
    ({"topology": "line3", "arrival": {"kind": "binomial", "trails": 2}}, "arrival.trails"),
    ({"topology": "line3", "classes": [dict(_LINE3_CLASS, rat=0.5, rate=0.5)]}, "classes[0].rat"),
], ids=["top", "arrival", "class"])
def test_unknown_key_rejected_at_every_level(doc, key):
    # Only metrics used to reject unknown keys: {"horizn": 5} ran 1000 slots.
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        config_from_dict(doc)


def test_defaults_are_the_dataclass_defaults():
    cfg = config_from_dict({"topology": "line3"})
    assert cfg == SimulationConfig(topology="line3")
    assert cfg.horizon == 1000


def test_report_verdict_defaults_to_config_thresholds(monkeypatch):
    # verdict() used to default to 0.05 whatever the config said, so it
    # disagreed with the summary's verdict under a stricter threshold.
    # verdict(), the summary and sweep all read STABILITY_EPS.
    monkeypatch.setattr(engine, "STABILITY_EPS", 1e-9)
    cfg = _line3_cfg(horizon=2000, load_factor=0.5)
    report = run(cfg)
    assert report.verdict() == report.summary()["verdict"] != "stable"
    assert sweep(cfg, [0.5])[0]["verdict"] == run(
        dataclasses.replace(cfg, seed=sweep_subseed(cfg.seed, 0))).verdict()
    start = int(len(report.total_q) * engine.WARMUP_FRAC)
    assert report.avg_total_queue() == float(report.total_q[start:].mean())
    monkeypatch.setattr(engine, "STABILITY_EPS", 0.05)
    assert report.verdict() == "stable"


# ---------------------------------------------------------------------------
# Route cache: exact, reported, and memo-free runs as the oracle

def _cache_cases():
    mixed = load_config(CONFIGS / "mixed_kinds.json", horizon=1500)
    twin = load_config(CONFIGS / "twinpath_compare.json", horizon=2000, policy="umw-heuristic")
    # 1.1 of capacity: queues diverge, so nearly every broadcast solve misses.
    overload = load_config(CONFIGS / "grid3x3_broadcast.json", horizon=2000, load_factor=0.44)
    # 0.9 of capacity: most slots revisit a weight vector, and the grid's
    # activation is a scan over its maximal matchings.
    stable = load_config(CONFIGS / "grid3x3_broadcast.json", horizon=2000)
    diagnosed = dataclasses.replace(mixed, metrics=MetricsOptions(diagnostics=True))
    return [mixed, twin, overload, stable, diagnosed]


def _count_calls(monkeypatch, name) -> list:
    """Record each call MaxWeightState makes to policy.<name>."""
    calls = []
    real = getattr(policy, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(policy, name, counting)
    return calls


@pytest.mark.parametrize("case", range(5), ids=["mixed_kinds", "twinpath_heuristic", "grid_overload",
                                                "grid_broadcast", "mixed_kinds_diagnostics"])
def test_memo_free_run_identical(case, tmp_path, monkeypatch):
    cfg = _cache_cases()[case]
    activations = _count_calls(monkeypatch, "max_weight_activation")
    cached = run(cfg)
    cached_activations = len(activations)
    monkeypatch.setattr(policy, "ROUTE_MEMO_CAP", 0)
    activations.clear()
    lookups = []

    class CountingMemo(dict):
        def get(self, key, default=None):
            lookups.append(1)
            return super().get(key, default)

    init = policy.MaxWeightState.__init__

    def counting_memo_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.memo = CountingMemo()

    monkeypatch.setattr(policy.MaxWeightState, "__init__", counting_memo_init)
    memo_free = run(cfg)
    for name, rep in (("cached", cached), ("memo_free", memo_free)):
        rep.write_csv(tmp_path / f"{name}.csv")
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "memo_free.csv").read_bytes()
    a, b = cached.summary(), memo_free.summary()
    stats_a, stats_b = a.pop("route_cache"), b.pop("route_cache")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert stats_a["hits"] > 0 and stats_b["hits"] == 0
    assert stats_b["misses"] == stats_a["hits"] + stats_a["misses"]
    assert stats_b["distinct_trees"] == stats_a["distinct_trees"]
    # The activation is memoised with the routes: without the memo every
    # slot computes it, with it only slots under a new weight vector do.
    assert 0 < cached_activations < len(activations) == cfg.horizon
    # A route miss solves under the entry its slot already holds, so even
    # with every entry evicted at once there is one lookup per slot.
    assert len(lookups) == cfg.horizon


def test_route_cache_counts_every_solve(monkeypatch):
    # MaxWeightState calls solve_route only when the slot memo holds no route
    # for the class, so every solve is a miss and every hit skips a call.
    calls = _count_calls(monkeypatch, "solve_route")
    for cfg in _cache_cases():
        calls.clear()
        stats = run(cfg).summary()["route_cache"]
        assert stats["misses"] == len(calls) > 0 and stats["hits"] > 0
        assert 0 < stats["distinct_trees"] <= stats["misses"]
    bp = run(dataclasses.replace(_cache_cases()[1], policy="bp"))
    assert bp.summary()["route_cache"] == {"hits": 0, "misses": 0, "distinct_trees": 0}


# ---------------------------------------------------------------------------
# run_many: the serial loop's reports from forked lanes

def _lanes(monkeypatch, k):
    """k usable CPUs, and lanes of any length, so short runs fork too."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: k)
    monkeypatch.setattr(engine, "LANE_SLOTS", 1)


def _count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.fixture
def deadline():
    """Fail the test after 60 s instead of hanging in a wait on a child."""
    def expire(signum, frame):
        raise TimeoutError("run_many did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_many_cases():
    twin = load_config(CONFIGS / "twinpath_compare.json", horizon=300)
    cases = []
    for diagnostics in (False, True):
        for p in ("umw", "umw-heuristic", "bp"):
            metrics = dataclasses.replace(twin.metrics, diagnostics=diagnostics)
            cases.append(dataclasses.replace(twin, policy=p, seed=len(cases), metrics=metrics))
    return cases


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_run_many_matches_the_serial_loop(lanes, tmp_path, monkeypatch, deadline):
    configs = _run_many_cases()
    serial = [run(c) for c in configs]
    forks = _count_forks(monkeypatch)
    _lanes(monkeypatch, lanes)
    reports = engine.run_many(configs)
    monkeypatch.undo()
    assert len(forks) == lanes - 1
    _assert_no_child_left()
    assert [r.config for r in reports] == configs
    for i, (got, want) in enumerate(zip(reports, serial)):
        got.write_csv(tmp_path / f"got{i}.csv")
        want.write_csv(tmp_path / f"want{i}.csv")
        assert (tmp_path / f"got{i}.csv").read_bytes() == (tmp_path / f"want{i}.csv").read_bytes()
        assert got.summary() == want.summary()


@pytest.mark.parametrize("horizon, lanes", [(300, 1), (700, 2), (1000, 3)])
def test_run_many_gives_each_lane_enough_slots(horizon, lanes, monkeypatch, deadline):
    # Three runs on three CPUs fork only as many lanes as LANE_SLOTS allows.
    configs = [_line3_cfg(horizon=horizon, seed=s) for s in (1, 2, 3)]
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    forks = _count_forks(monkeypatch)
    reports = engine.run_many(configs)
    monkeypatch.undo()
    assert engine.LANE_SLOTS == 1000
    assert len(forks) == lanes - 1
    _assert_no_child_left()
    assert [r.summary() for r in reports] == [run(c).summary() for c in configs]


def test_run_many_of_nothing_is_empty(monkeypatch):
    _lanes(monkeypatch, 2)
    assert engine.run_many([]) == []


def test_run_many_runs_in_process_without_fork(monkeypatch):
    configs = _run_many_cases()[:3]
    _lanes(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    reports = engine.run_many(configs)
    monkeypatch.undo()
    assert [r.summary() for r in reports] == [run(c).summary() for c in configs]


def test_compare_and_sweep_match_on_any_lane_count(monkeypatch, deadline):
    cfg = load_config(CONFIGS / "twinpath_compare.json", horizon=300)
    policies = ["umw", "umw-heuristic", "bp"]
    _lanes(monkeypatch, 1)
    one = compare(cfg, policies), sweep(cfg, [0.2, 0.5, 0.8])
    _lanes(monkeypatch, 3)
    three = compare(cfg, policies), sweep(cfg, [0.2, 0.5, 0.8])
    assert {p: r.summary() for p, r in one[0].items()} == {p: r.summary() for p, r in three[0].items()}
    assert one[1] == three[1]
    _assert_no_child_left()


def test_run_many_raises_a_child_lanes_error_as_is(monkeypatch, deadline):
    good = _line3_cfg(horizon=20)
    bad = SimulationConfig(topology="grid3x3_broadcast", horizon=20, policy="bp")
    with pytest.raises(ConfigError) as serial:
        run(bad)
    _lanes(monkeypatch, 2)
    with pytest.raises(ConfigError) as forked:
        engine.run_many([good, bad])
    assert type(forked.value) is ConfigError
    assert str(forked.value) == str(serial.value)
    _assert_no_child_left()


def test_run_many_keeps_the_type_of_an_error_built_from_arguments(monkeypatch, deadline):
    # CapExceededError's constructor takes (what, size, cap), not its message.
    parent = os.getpid()
    real_run = engine.run

    def run_raising_in_child(config, **kwargs):
        if os.getpid() != parent:
            raise CapExceededError("routes", 10001, 10000)
        return real_run(config, **kwargs)

    monkeypatch.setattr(engine, "run", run_raising_in_child)
    _lanes(monkeypatch, 2)
    with pytest.raises(CapExceededError, match="size 10001 exceeds enumeration cap 10000") as info:
        engine.run_many([_line3_cfg(horizon=20)] * 2)
    assert (info.value.what, info.value.size, info.value.cap) == ("routes", 10001, 10000)
    _assert_no_child_left()


class _HoldsALambda(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # does not pickle


class _NeedsTwoArguments(Exception):
    def __init__(self, what, size):
        super().__init__(f"{what} of size {size}")  # pickles, but cannot be rebuilt


@pytest.mark.parametrize("error, shown", [
    (_HoldsALambda("held a lambda"), "_HoldsALambda('held a lambda')"),
    (_NeedsTwoArguments("route", 7), "_NeedsTwoArguments('route of size 7')"),
], ids=["unpicklable", "not_rebuildable"])
def test_run_many_names_a_child_error_that_cannot_be_sent_back(error, shown, monkeypatch, deadline):
    parent = os.getpid()
    real_run = engine.run

    def run_raising_in_child(config, **kwargs):
        if os.getpid() != parent:
            raise error
        return real_run(config, **kwargs)

    monkeypatch.setattr(engine, "run", run_raising_in_child)
    _lanes(monkeypatch, 2)
    with pytest.raises(RuntimeError) as info:
        engine.run_many([_line3_cfg(horizon=20)] * 2)
    assert str(info.value).startswith(f"run_many lane 1: {shown} could not be sent back (")
    _assert_no_child_left()


def test_run_many_child_that_exits_without_a_result(monkeypatch, deadline):
    parent = os.getpid()
    real_run = engine.run

    def run_dying_in_child(config, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_run(config, **kwargs)

    monkeypatch.setattr(engine, "run", run_dying_in_child)
    _lanes(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="lane 1 .* without a result"):
        engine.run_many([_line3_cfg(horizon=20)] * 3)
    _assert_no_child_left()


def test_run_many_reaps_children_when_its_own_lane_fails(monkeypatch, deadline):
    bad = SimulationConfig(topology="grid3x3_broadcast", horizon=20, policy="bp")
    slow = _line3_cfg(horizon=3000)
    _lanes(monkeypatch, 3)
    with pytest.raises(ConfigError, match="unicast classes only"):
        engine.run_many([bad, slow, slow])
    _assert_no_child_left()
