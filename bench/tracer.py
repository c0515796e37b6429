"""Outside-in layer tracer for umwsim.

The tracer never edits the package. It wraps public entry points of the
umwsim modules in place: for each hook point it looks up the original
function object, then rebinds every reference to that same object across
the loaded ``umwsim.*`` modules (module globals and class attributes).
``engine`` imports ``solve_route``, ``max_weight_activation``,
``virtual_arrival_vector`` and ``arrival_table`` by name, so patching only
the defining module would miss its calls.

A hook point whose module, attribute or function cannot be found is
recorded in ``Tracer.unhooked`` and its metrics read zero; a refactor that
moves a function therefore shows up in the report instead of crashing it.

Each wrapped call records a span (name, start, end, parent) in memory.
``self_times`` turns the spans of one pass into per-layer call counts and
self time (span duration minus the time its child spans cover). Observers
attached to some hook points add the count metrics, such as how often a
route solve sees a weight vector it has seen before.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

PACKAGE = "umwsim"


class HookPoint(NamedTuple):
    name: str                      # metric prefix, e.g. "routing.solve_route"
    module: str                    # defining module
    attr: str                      # "func" or "Class.method"
    spans: bool = True             # False: count calls only; time stays with the caller
    observe: Callable | None = None  # observe(state, args, result) after each call


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int                    # index of the enclosing span, -1 at top level


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is a span's duration minus the durations of its direct
    children. Calls within one thread nest without overlapping, so that sum
    is exactly the part of the interval the children cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, tuple[int, float]] = {}
    for i, s in enumerate(spans):
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + (s.end - s.start) - child[i])
    return out


# ---------------------------------------------------------------------------
# Observers: count metrics measured at the layer boundary. They find their
# inputs by type, not by parameter name, so a renamed parameter keeps them
# working.

def _array_arg(args) -> np.ndarray | None:
    for a in args:
        if isinstance(a, np.ndarray):
            return a
    return None


def _traffic_class_arg(args):
    for a in args:
        if hasattr(a, "kind") and hasattr(a, "destinations") and hasattr(a, "id"):
            return a
    return None


def _activation_set_arg(args):
    for a in args:
        if hasattr(a, "kind") and hasattr(a, "edge_count"):
            return a
    return None


def _observe_route(state: dict, args, result) -> None:
    cls = _traffic_class_arg(args)
    w = _array_arg(args)
    if cls is None or w is None:
        return
    seen = state.setdefault("routing.seen", set())
    key = (cls.id, w.dtype.str, w.tobytes())
    if key in seen:
        state["routing.repeats"] = state.get("routing.repeats", 0) + 1
    else:
        seen.add(key)
    edges = getattr(result, "edges", None)
    if edges is not None:
        state.setdefault("routing.trees", set()).add(
            (cls.id, frozenset(te.edge_id for te in edges))
        )


def _observe_activation(state: dict, args, result) -> None:
    aset = _activation_set_arg(args)
    w = _array_arg(args)
    if aset is None or w is None:
        return
    seen = state.setdefault("activation.seen", set())
    key = (aset.kind, aset.edge_count, aset.members, w.dtype.str, w.tobytes())
    if key in seen:
        state["activation.repeats"] = state.get("activation.repeats", 0) + 1
    else:
        seen.add(key)


def _observe_network(state: dict, args, result) -> None:
    copies = getattr(args[0], "total_copies", None) if args else None
    if copies is not None:
        state["physical_net.peak_copies"] = max(state.get("physical_net.peak_copies", 0), copies)
    if result is not None:
        state["physical_net.deliveries"] = state.get("physical_net.deliveries", 0) + len(result)


def _observe_routes(state: dict, args, result) -> None:
    state["capacity.routes"] = state.get("capacity.routes", 0) + len(result)


def _observe_lp(state: dict, args, result) -> None:
    if args:
        state["simplex.lp_columns"] = state.get("simplex.lp_columns", 0) + len(args[0])


def _observe_matchings(state: dict, args, result) -> None:
    members = getattr(result, "members", None) or ()
    state["topology.activation_members"] = state.get("topology.activation_members", 0) + len(members)


HOOK_POINTS: tuple[HookPoint, ...] = (
    HookPoint("engine.run", "umwsim.engine", "run"),
    HookPoint("engine.csv_rows", "umwsim.engine", "MetricsReport.csv_rows"),
    HookPoint("engine.diagnostics_step", "umwsim.engine", "_DiagnosticState.step", spans=False),
    HookPoint("traffic.arrival_table", "umwsim.traffic", "arrival_table"),
    HookPoint("routing.solve_route", "umwsim.policy", "solve_route", observe=_observe_route),
    HookPoint("activation.max_weight_activation", "umwsim.activation", "max_weight_activation",
              observe=_observe_activation),
    HookPoint("policy.bp_decide", "umwsim.policy", "BPState.decide", spans=False),
    HookPoint("physical_net.admit", "umwsim.physical_net", "PhysicalNetwork.admit",
              observe=_observe_network),
    HookPoint("physical_net.forward", "umwsim.physical_net", "PhysicalNetwork.forward",
              observe=_observe_network),
    HookPoint("virtual_net.virtual_arrival_vector", "umwsim.virtual_net", "virtual_arrival_vector"),
    HookPoint("virtual_net.lindley_update", "umwsim.virtual_net", "VirtualQueues.lindley_update"),
    HookPoint("capacity.enumerate_routes", "umwsim.capacity", "enumerate_routes",
              observe=_observe_routes),
    HookPoint("capacity.max_scaling", "umwsim.capacity", "max_scaling"),
    HookPoint("capacity.verify_certificate", "umwsim.capacity", "verify_certificate"),
    HookPoint("simplex.solve_lp", "umwsim.simplex", "solve_lp", observe=_observe_lp),
    # Count only: the wired workloads never enumerate matchings, and a time
    # that reads zero on every run of a workload says nothing.
    HookPoint("topology.enumerate_matchings", "umwsim.topology", "enumerate_matchings",
              spans=False, observe=_observe_matchings),
)


def _resolve(point: HookPoint):
    """The original function object of a hook point, or a reason it is missing."""
    try:
        obj = importlib.import_module(point.module)
    except ImportError as exc:
        return None, f"module {point.module} not importable ({exc})"
    for part in point.attr.split("."):
        obj = inspect.getattr_static(obj, part, None)
        if obj is None:
            return None, f"{point.module}.{point.attr} not found"
    if not inspect.isfunction(obj):
        return None, f"{point.module}.{point.attr} is not a Python function"
    return obj, None


class Tracer:
    """Installs the hook points, records spans, and aggregates one pass."""

    def __init__(self, points: tuple[HookPoint, ...] = HOOK_POINTS, clock=time.perf_counter):
        self.points = points
        self.clock = clock
        self.unhooked: list[tuple[str, str]] = []
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}     # count-only hook points
        self.state: dict = {}               # observer scratch and counters
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.unhooked = []
        for point in self.points:
            orig, reason = _resolve(point)
            if orig is None:
                self.unhooked.append((point.name, reason))
                continue
            if not self._rebind(orig, self._wrap(point, orig)):
                self.unhooked.append((point.name, "no reference found in loaded modules"))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def _rebind(self, orig, wrapper) -> int:
        """Point every module global and class attribute of the loaded
        umwsim modules that holds `orig` at `wrapper`; returns how many."""
        owners = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            owners.append(mod)
            owners += [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == modname]
        hits = 0
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, key, wrapper)
                    self._restore.append((owner, key, orig))
                    hits += 1
        return hits

    def _wrap(self, point: HookPoint, orig):
        name, observe, state = point.name, point.observe, self.state

        if not point.spans:
            calls = self.calls

            @functools.wraps(orig)
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                result = orig(*args, **kwargs)
                if observe is not None:
                    observe(state, args, result)
                return result
            return counted

        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def traced_gen(*args, **kwargs):
                idx = self._enter(name)
                try:
                    yield from orig(*args, **kwargs)
                finally:
                    self._exit(idx)
            return traced_gen

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                observe(state, args, result)
            return result
        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx] = self.spans[idx]._replace(end=self.clock())
        self._stack.pop()

    # -- per-pass results --------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.calls.clear()
        self.state.clear()

    def pass_stats(self) -> dict[str, float]:
        """Layer metrics of the spans and counters recorded since reset()."""
        st = self.state
        out: dict[str, float] = {}
        times = self_times(self.spans)
        for point in self.points:
            if point.spans:
                calls, self_s = times.get(point.name, (0, 0.0))
                out[f"{point.name}.calls"] = calls
                out[f"{point.name}.self_s"] = self_s
            else:
                out[f"{point.name}.calls"] = self.calls.get(point.name, 0)
        solves = out["routing.solve_route.calls"]
        out["routing.repeat_frac"] = st.get("routing.repeats", 0) / solves if solves else 0.0
        out["routing.distinct_trees"] = len(st.get("routing.trees", ()))
        acts = out["activation.max_weight_activation.calls"]
        out["activation.repeat_frac"] = st.get("activation.repeats", 0) / acts if acts else 0.0
        for key in ("physical_net.peak_copies", "physical_net.deliveries", "capacity.routes",
                    "simplex.lp_columns", "topology.activation_members"):
            out[key] = st.get(key, 0)
        return out
