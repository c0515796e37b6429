import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from umwsim.traffic import ArrivalProcess, TrafficClass, sweep_subseed
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
    init = engine._MaxWeightStepper.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine._MaxWeightStepper, "__init__", counting_init)
    cfg = load_config(CONFIGS / "mixed_kinds.json", horizon=50)
    with pytest.raises(ConfigError, match="unicast classes only"):
        compare(cfg, ["umw", "umw-heuristic", "bp"])
    assert built == []


def test_compare_rejects_repeated_policy():
    # Reports are keyed by policy, so a repeated name used to collapse into
    # one summary entry while the CLI wrote its CSV rows twice.
    with pytest.raises(ConfigError, match="'umw' more than once"):
        compare(_line3_cfg(horizon=10), ["umw", "bp", "umw"])


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


def test_record_every_zero_rejected():
    with pytest.raises(ConfigError, match="record_every"):
        config_from_dict({"topology": "line3", "metrics": {"record_every": 0}})
    with pytest.raises(ConfigError):
        MetricsOptions(record_every=-1)


def test_negative_eq17_every_rejected():
    with pytest.raises(ConfigError, match="eq17_every"):
        config_from_dict({"topology": "line3", "metrics": {"eq17_every": -5}})
    assert MetricsOptions(eq17_every=0).eq17_every == 0   # 0 turns the checks off


def test_warmup_frac_out_of_range_rejected():
    for bad in (2.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="warmup_frac"):
            config_from_dict({"topology": "line3", "metrics": {"warmup_frac": bad}})
    assert MetricsOptions(warmup_frac=0.0).warmup_frac == 0.0


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


@pytest.mark.parametrize("name", ["stability_eps", "divergence_factor"])
def test_verdict_thresholds_must_be_finite_and_positive(name):
    for bad in (0, -1.0, math.nan, math.inf, "3"):
        with pytest.raises(ConfigError, match=name):
            MetricsOptions(**{name: bad})
    assert getattr(MetricsOptions(**{name: 2}), name) == 2


_LINE3_CLASS = {"id": 0, "kind": "unicast", "source": 0, "destinations": [2]}


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
], ids=["no_topology", "class_without_rate", "horizon_text", "metrics_list", "warmup_text",
        "record_every_text", "trials_text", "source_text", "class_not_object", "null_document",
        "horizon_float", "seed_float", "horizon_bool", "horizon_numeric_text", "seed_negative",
        "trials_float", "trials_bool", "id_float", "source_bool", "destination_float", "rate_bool",
        "rate_text", "load_factor_bool", "load_factor_text", "record_every_bool"])
def test_malformed_config_names_the_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(doc)


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
    assert report.total_q.tolist() == default.total_q.tolist()  # thresholds only judge
    expected = report.verdict()
    assert expected != "stable"
    assert report.summary()["verdict"] == expected
    echoed = report.summary()["config"]["metrics"]
    assert echoed["stability_eps"] == final / 2
    assert echoed["divergence_factor"] == MetricsOptions.divergence_factor


def test_unknown_metrics_key_rejected():
    for key in ("record_evry", "history_window"):
        doc = {"topology": "line3", "metrics": {"diagnostics": True, key: 5}}
        with pytest.raises(ConfigError, match=key):
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


def test_report_verdict_defaults_to_config_thresholds():
    # verdict() used to default to 0.05 whatever the config said, so it
    # disagreed with the summary's verdict under a stricter stability_eps.
    # The thresholds come only from the config's metrics options.
    cfg = _line3_cfg(horizon=2000, load_factor=0.5, metrics=MetricsOptions(stability_eps=1e-9))
    report = run(cfg)
    assert report.verdict() == report.summary()["verdict"] != "stable"
    loose = dataclasses.replace(cfg, metrics=MetricsOptions(stability_eps=0.05))
    assert dataclasses.replace(report, config=loose).verdict() == "stable"
    start = int(len(report.total_q) * cfg.metrics.warmup_frac)
    assert report.avg_total_queue() == float(report.total_q[start:].mean())
    assert sweep(cfg, [0.5])[0]["verdict"] == run(
        dataclasses.replace(cfg, seed=sweep_subseed(cfg.seed, 0))).verdict()


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
