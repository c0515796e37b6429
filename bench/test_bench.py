"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest

from instances import random_instances
from run import WORKLOAD_NAMES, end_to_end_metrics, tail
from tracer import HookPoint, Span, Tracer, self_times
from workloads import SPECS, PassResult, Workload

SMALL_HORIZON = 300


def test_self_times_on_nested_span_tree():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,7]; d[11,12] is a sibling of a.
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("d", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == {
        "a": (1, 10.0 - 3.0 - 2.0),
        "b": (2, (3.0 - 1.0) + 2.0),
        "c": (1, 1.0),
        "d": (1, 1.0),
    }


def test_tracer_self_times_follow_the_clock():
    ticks = iter(range(100))
    tracer = Tracer(points=(), clock=lambda: float(next(ticks)))
    outer = tracer._enter("outer")        # t=0
    inner = tracer._enter("inner")        # t=1
    tracer._exit(inner)                   # t=2
    tracer._exit(outer)                   # t=3
    assert self_times(tracer.spans) == {"outer": (1, 2.0), "inner": (1, 1.0)}


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 31))                  # 30 samples
    value, pct, n = tail(values)
    assert (value, n) == (20, 30)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert tail(list(range(11)))[:2] == (0, 100 / 11)
    # With ten or fewer samples no percentile has ten beyond it: the maximum.
    assert tail([5, 1, 3]) == (5, 100.0, 3)
    assert tail(list(range(10)))[0] == 9


def test_instance_generator_is_deterministic_per_seed():
    first = random_instances(7)
    assert first == random_instances(7)
    assert first != random_instances(8)
    assert len({inst.name for inst in first}) == len(first)


def _small(name, seed=3):
    wl = Workload(name, seed, ROOT)
    wl.horizon = SMALL_HORIZON
    return wl


def _traced_pass(wl, k=0):
    tracer = Tracer()
    tracer.install()
    try:
        res = wl.run_pass(k)
    finally:
        tracer.uninstall()
    return res, tracer


@pytest.mark.parametrize("name", ["mixed_kinds", "twinpath_compare"])
def test_traced_and_untraced_digests_match(name):
    wl = _small(name)
    plain = wl.run_pass(0)
    traced, tracer = _traced_pass(wl)
    assert plain.failures == [] and traced.failures == []
    assert traced.digests == plain.digests
    assert tracer.unhooked == []


@pytest.mark.parametrize("name", ["mixed_kinds", "twinpath_compare"])
def test_count_metrics_repeat_exactly(name):
    counts = []
    for _ in range(2):
        _, tracer = _traced_pass(_small(name))
        stats = tracer.pass_stats()
        counts.append({k: v for k, v in stats.items() if not k.endswith(".self_s")})
    assert counts[0] == counts[1]
    # engine imports solve_route and friends by name; the hooks must see those calls.
    assert counts[0]["routing.solve_route.calls"] > 0
    assert counts[0]["virtual_net.virtual_arrival_vector.calls"] > 0
    assert counts[0]["simplex.lp_columns"] > 0
    assert (counts[0]["policy.bp_decide.calls"] > 0) == (name == "twinpath_compare")
    assert (counts[0]["engine.diagnostics_step.calls"] > 0) == (name == "mixed_kinds")


def test_missing_hook_point_is_reported_not_fatal():
    import umwsim.engine
    import umwsim.policy
    original = umwsim.engine.solve_route
    tracer = Tracer(points=(
        HookPoint("gone.module", "umwsim.no_such_module", "f"),
        HookPoint("gone.attr", "umwsim.policy", "no_such_function"),
        HookPoint("routing.solve_route", "umwsim.policy", "solve_route"),
    ))
    tracer.install()
    try:
        assert umwsim.engine.solve_route is not original
        assert umwsim.policy.solve_route is umwsim.engine.solve_route
    finally:
        tracer.uninstall()
    assert umwsim.engine.solve_route is original
    assert [name for name, _ in tracer.unhooked] == ["gone.module", "gone.attr"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(SPECS)
    fake = PassResult(oracle_s=0.01, oracle=[("x", 0.01)], sim_op_s=0.6, sim_s=0.5,
                      sim_ops=[(0.6, 2e-3)], slots=100)
    e2e = end_to_end_metrics([fake], [0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layer = set(Tracer().pass_stats()) | {"trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
