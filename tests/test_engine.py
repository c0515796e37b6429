import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from umwsim import engine, policy
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
from umwsim.errors import ConfigError
from umwsim.traffic import ArrivalProcess, TrafficClass
from umwsim.topology import Graph, save_topology


def _line3_cfg(**kw):
    base = dict(topology="line3", horizon=50, seed=1, policy="umw",
                arrival=ArrivalProcess("bernoulli"), load_factor=1.0)
    base.update(kw)
    return SimulationConfig(**base)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_compare_shares_arrival_sample_paths():
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=300, seed=3,
                           arrival=ArrivalProcess("poisson"), load_factor=0.4)
    reports = compare(cfg, ["umw", "umw-heuristic", "bp"])
    totals = {p: r.arrivals_per_class.tolist() for p, r in reports.items()}
    assert totals["umw"] == totals["umw-heuristic"] == totals["bp"]
    twice = compare(cfg, ["umw", "umw"])
    assert len(twice) == 1  # same policy keyed once: identical runs collapse


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
    from umwsim.traffic import sweep_subseed

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


def test_mixed_traffic_kinds_run_clean():
    classes = (
        TrafficClass(0, "unicast", 0, frozenset({3}), 0.3),
        TrafficClass(1, "broadcast", 6, frozenset(range(8)), 0.1),
        TrafficClass(2, "multicast", 4, frozenset({0, 7}), 0.2),
        TrafficClass(3, "anycast", 2, frozenset({5, 6}), 0.2),
    )
    cfg = SimulationConfig(topology="twinpath_unicast", horizon=2500, seed=4,
                           classes=classes, arrival=ArrivalProcess("binomial", trials=2),
                           metrics=MetricsOptions(diagnostics=True, eq17_every=250))
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


def test_cli_capacity(tmp_path):
    cfg = _write_cfg(tmp_path, {"topology": "grid3x3_broadcast", "horizon": 10})
    out = tmp_path / "cert.json"
    assert cli_main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verified"] is True
    assert doc["rho_star_exact"] == "2/5"


def test_record_every_zero_rejected():
    with pytest.raises(ConfigError, match="record_every"):
        config_from_dict({"topology": "line3", "metrics": {"record_every": 0}})
    with pytest.raises(ConfigError):
        MetricsOptions(record_every=-1)


def test_warmup_frac_out_of_range_rejected():
    for bad in (2.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="warmup_frac"):
            config_from_dict({"topology": "line3", "metrics": {"warmup_frac": bad}})
    assert MetricsOptions(warmup_frac=0.0).warmup_frac == 0.0


def test_unknown_steiner_mode_rejected_without_multicast():
    # line3 carries a single unicast class, so no Steiner solve would ever
    # reach the mode and report it.
    with pytest.raises(ConfigError, match="steiner_mode"):
        _line3_cfg(steiner_mode="exactt")
    with pytest.raises(ConfigError, match="steiner_mode"):
        config_from_dict({"topology": "line3", "steiner_mode": "greedy"})


def test_summary_verdict_uses_configured_thresholds():
    # At load 1.0 on line3 the final queue is a few packets: small against
    # the horizon but not against a strict stability_eps.
    cfg = _line3_cfg(horizon=400)
    default = run(cfg)
    final = float(default.total_q[-1]) / cfg.horizon
    assert 0 < final < MetricsOptions.stability_eps
    assert default.summary()["verdict"] == "stable"
    strict = dataclasses.replace(cfg, metrics=MetricsOptions(stability_eps=final / 2))
    report = run(strict)
    expected = report.verdict(final / 2, MetricsOptions.divergence_factor)
    assert expected != "stable"
    assert report.summary()["verdict"] == expected
    echoed = report.summary()["config"]["metrics"]
    assert echoed["stability_eps"] == final / 2
    assert echoed["divergence_factor"] == MetricsOptions.divergence_factor


def test_unknown_metrics_key_rejected():
    doc = {"topology": "line3", "metrics": {"diagnostics": True, "record_evry": 5}}
    with pytest.raises(ConfigError, match="record_evry"):
        config_from_dict(doc)


# ---------------------------------------------------------------------------
# Route cache: exact, reported, and memo-free runs as the oracle

def _cache_cases():
    mixed = load_config(CONFIGS / "mixed_kinds.json", horizon=1500)
    twin = load_config(CONFIGS / "twinpath_compare.json", horizon=2000, policy="umw-heuristic")
    return [mixed, twin]


@pytest.mark.parametrize("case", [0, 1], ids=["mixed_kinds", "twinpath_heuristic"])
def test_memo_free_run_identical(case, tmp_path, monkeypatch):
    cfg = _cache_cases()[case]
    cached = run(cfg)
    monkeypatch.setattr(policy, "ROUTE_MEMO_CAP", 0)
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


def test_route_cache_counts_every_solve(monkeypatch):
    calls = []
    real = engine.solve_route

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "solve_route", counting)
    for cfg in _cache_cases():
        calls.clear()
        stats = run(cfg).summary()["route_cache"]
        assert stats["hits"] + stats["misses"] == len(calls) > 0
        assert 0 < stats["distinct_trees"] <= stats["misses"]
    bp = run(dataclasses.replace(_cache_cases()[1], policy="bp"))
    assert bp.summary()["route_cache"] == {"hits": 0, "misses": 0, "distinct_trees": 0}
