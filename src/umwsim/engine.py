"""Slot-by-slot simulation engine, metric collection, and load sweeps.

Intra-slot order is fixed: (1) weights, (2) routes for this slot's
arrivals, (3) link activation, (4) physical forwarding, (5) virtual-queue
update. Arrivals admitted at slot t sit in their root-edge buffers before
step 4 and are therefore eligible for forwarding in the same slot, which
matches the virtual system where a slot's arrivals and service meet in the
same update. Everything is a deterministic function of (config, seed).
"""
from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .activation import max_weight_activation
from .capacity import CapacityCertificate, max_scaling
from .errors import ConfigError
from .physical_net import Packet, PhysicalNetwork
from .policy import BPState, POLICY_NAMES, RouteCache, SlotOutcome, solve_route
from .routing import STEINER_MODES, RouteTree
from .topology import ActivationSet, Graph, builtin_topology, load_activation, load_topology
from .traffic import (
    ArrivalProcess,
    TrafficClass,
    arrival_table,
    effective_amax,
    sweep_subseed,
    validate_classes,
)
from .virtual_net import AssociatedQueues, VirtualQueues, virtual_arrival_vector


@dataclass(frozen=True)
class MetricsOptions:
    warmup_frac: float = 0.1
    record_every: int = 1
    eq17_every: int = 1000
    diagnostics: bool = False
    stability_eps: float = 0.05
    divergence_factor: float = 3.0

    def __post_init__(self):
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ConfigError(f"metrics.record_every must be an integer >= 1, got {self.record_every!r}")
        if not (isinstance(self.eq17_every, numbers.Integral) and self.eq17_every >= 0):
            raise ConfigError(f"metrics.eq17_every must be an integer >= 0, got {self.eq17_every!r}")
        if not (isinstance(self.warmup_frac, numbers.Real) and 0 <= self.warmup_frac < 1):
            raise ConfigError(f"metrics.warmup_frac must be in [0, 1), got {self.warmup_frac!r}")
        if not isinstance(self.diagnostics, bool):
            raise ConfigError(f"metrics.diagnostics must be true or false, got {self.diagnostics!r}")
        for name in ("stability_eps", "divergence_factor"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ConfigError(f"metrics.{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    topology: str                      # builtin name or path to a topology file
    horizon: int
    seed: int = 0
    policy: str = "umw"
    classes: tuple[TrafficClass, ...] | None = None   # None: use the builtin's classes
    arrival: ArrivalProcess = ArrivalProcess("bernoulli")
    load_factor: float = 1.0
    steiner_mode: str = "exact"
    metrics: MetricsOptions = MetricsOptions()

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not (math.isfinite(self.load_factor) and self.load_factor >= 0):
            raise ConfigError(f"load_factor must be finite and >= 0, got {self.load_factor}")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICY_NAMES}")
        if self.steiner_mode not in STEINER_MODES:
            raise ConfigError(f"unknown steiner_mode {self.steiner_mode!r}; choose from {STEINER_MODES}")

    def resolve(self) -> tuple[Graph, ActivationSet, list[TrafficClass]]:
        """Materialize topology, activation set, and load-scaled classes."""
        if Path(self.topology).suffix == ".json" or "/" in self.topology:
            g = load_topology(self.topology)
            aset = load_activation(self.topology, g)
            if self.classes is None:
                raise ConfigError("file topologies need explicit traffic classes")
            classes = list(self.classes)
        else:
            g, aset, classes = builtin_topology(self.topology)
            if self.classes is not None:
                classes = list(self.classes)
        classes = [c.scaled(self.load_factor) for c in classes]
        validate_classes(classes, g.node_count)
        return g, aset, classes

    def echo(self) -> dict:
        doc = {
            "topology": self.topology,
            "horizon": self.horizon,
            "seed": self.seed,
            "policy": self.policy,
            "arrival": {"kind": self.arrival.kind, "trials": self.arrival.trials},
            "load_factor": self.load_factor,
            "steiner_mode": self.steiner_mode,
            "metrics": {
                "warmup_frac": self.metrics.warmup_frac,
                "record_every": self.metrics.record_every,
                "eq17_every": self.metrics.eq17_every,
                "diagnostics": self.metrics.diagnostics,
                "stability_eps": self.metrics.stability_eps,
                "divergence_factor": self.metrics.divergence_factor,
            },
        }
        if self.classes is not None:
            doc["classes"] = [
                {
                    "id": c.id, "kind": c.kind, "source": c.source,
                    "destinations": sorted(c.destinations), "rate": c.rate,
                }
                for c in self.classes
            ]
        return doc


def _read(doc: dict, key: str, convert=lambda v: v, default=..., where: str = ""):
    """convert(doc[key]), or default if absent (``...``: required); a ConfigError names a bad key."""
    if key not in doc:
        if default is ...:
            raise ConfigError(f"config key {where + key!r} is missing")
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {where + key!r}: {exc}") from exc


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


# A class document's keys in TrafficClass field order, each with its converter.
_CLASS_KEYS = (("id", int), ("kind", str), ("source", int),
               ("destinations", lambda ds: frozenset(int(d) for d in ds)), ("rate", float))


def config_from_dict(doc: dict, **overrides) -> SimulationConfig:
    """The config a JSON document describes; a malformed document is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {doc!r}")
    classes = _read(doc, "classes", lambda cs: [_object(c) for c in cs], None)
    if classes is not None:
        classes = tuple(
            TrafficClass(*(_read(c, key, convert, where=f"classes[{i}].") for key, convert in _CLASS_KEYS))
            for i, c in enumerate(classes)
        )
    arr = _read(doc, "arrival", _object, {})
    metrics_doc = _read(doc, "metrics", _object, {})
    unknown = sorted(set(metrics_doc) - {f.name for f in fields(MetricsOptions)})
    if unknown:
        raise ConfigError(f"unknown metrics option(s): {', '.join(unknown)}")
    cfg = SimulationConfig(
        topology=_read(doc, "topology", str),
        horizon=_read(doc, "horizon", int, 1000),
        seed=_read(doc, "seed", int, 0),
        policy=doc.get("policy", "umw"),
        classes=classes,
        arrival=ArrivalProcess(arr.get("kind", "bernoulli"), _read(arr, "trials", int, 1, "arrival.")),
        load_factor=_read(doc, "load_factor", float, 1.0),
        steiner_mode=doc.get("steiner_mode", "exact"),
        metrics=MetricsOptions(**metrics_doc),
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def load_config(path: str | Path, **overrides) -> SimulationConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(doc, **overrides)


@dataclass
class MetricsReport:
    """Everything a run emits; deterministic given (config, seed)."""

    config: dict
    policy: str
    seed: int
    horizon: int
    class_ids: list[int]
    slots: np.ndarray            # recorded slot indices
    total_q: np.ndarray          # physical copies waiting (or BP backlog)
    total_vq: np.ndarray         # sum of virtual queues (0 for bp)
    deliveries: np.ndarray       # cumulative full deliveries, shape (slots, classes)
    mean_sojourn_running: np.ndarray
    arrivals_per_class: np.ndarray   # final cumulative external arrivals
    route_cache: dict[str, int]      # the run's RouteCache.stats()
    violations: dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> dict[int, float]:
        final = self.deliveries[-1] if len(self.deliveries) else np.zeros(len(self.class_ids))
        return {cid: float(final[i]) / self.horizon for i, cid in enumerate(self.class_ids)}

    @property
    def mean_sojourn(self) -> float:
        return float(self.mean_sojourn_running[-1]) if len(self.mean_sojourn_running) else math.nan

    def avg_total_queue(self, warmup_frac: float | None = None) -> float:
        """Time-average of the total queue after the warm-up prefix."""
        if warmup_frac is None:
            warmup_frac = self.config.get("metrics", {}).get("warmup_frac", 0.1)
        start = int(len(self.total_q) * warmup_frac)
        tail = self.total_q[start:]
        return float(tail.mean()) if len(tail) else math.nan

    def verdict(self, eps: float = 0.05, factor: float = 3.0) -> str:
        """Stability call: "stable" when the final queue is o(horizon) small,
        "diverging" when the last-decile mean dwarfs the mean observed by
        mid-run (a linearly growing queue scores about 3.8x)."""
        if len(self.total_q) == 0:
            return "stable"
        if float(self.total_q[-1]) / self.horizon < eps:
            return "stable"
        k = len(self.total_q)
        mid = self.total_q[: max(k // 2, 1)]
        last = self.total_q[int(0.9 * k):]
        mid_mean = float(mid.mean())
        last_mean = float(last.mean()) if len(last) else 0.0
        if mid_mean > 0 and last_mean >= factor * mid_mean:
            return "diverging"
        if mid_mean == 0 and last_mean > 0:
            return "diverging"
        return "inconclusive"

    def csv_rows(self):
        header = ["slot", "policy", "total_q", "total_vq"]
        header += [f"throughput_c{cid}" for cid in self.class_ids]
        header += ["mean_sojourn"]
        yield header
        for i, slot in enumerate(self.slots):
            row = [str(int(slot)), self.policy, str(int(self.total_q[i])), str(int(self.total_vq[i]))]
            denom = int(slot) + 1
            row += [f"{self.deliveries[i, j] / denom:.12g}" for j in range(len(self.class_ids))]
            soj = self.mean_sojourn_running[i]
            row += ["nan" if math.isnan(soj) else f"{soj:.12g}"]
            yield row

    def write_csv(self, path: str | Path) -> None:
        write_csv_rows(path, self.csv_rows())

    def summary(self) -> dict:
        metrics = self.config.get("metrics", {})
        return {
            "config": self.config,
            "policy": self.policy,
            "seed": self.seed,
            "horizon": self.horizon,
            "throughput": {str(k): v for k, v in self.throughput.items()},
            "arrival_rate_empirical": {
                str(cid): float(self.arrivals_per_class[i]) / self.horizon
                for i, cid in enumerate(self.class_ids)
            },
            "avg_total_queue": self.avg_total_queue(),
            "final_total_queue": int(self.total_q[-1]) if len(self.total_q) else 0,
            "normalized_final_queue": float(self.total_q[-1]) / self.horizon if len(self.total_q) else 0.0,
            "mean_sojourn": None if math.isnan(self.mean_sojourn) else self.mean_sojourn,
            "verdict": self.verdict(
                metrics.get("stability_eps", MetricsOptions.stability_eps),
                metrics.get("divergence_factor", MetricsOptions.divergence_factor),
            ),
            "violations": dict(self.violations),
            "route_cache": dict(self.route_cache),
        }


def write_csv_rows(path: str | Path, rows) -> None:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(row))
        buf.write("\n")
    Path(path).write_text(buf.getvalue())


class _DiagnosticState:
    """Independent per-slot re-evaluations of the queue identities.

    Maintains the cumulative arrivals-minus-service vector and its running
    minimum (the running-sup form of the windowed-load expression), the
    companion queue recursion, and running maxima, without ever reading the
    Lindley state it is checking.
    """

    def __init__(self, m: int, amax_bound: float):
        self.G = np.zeros(m, dtype=np.int64)
        self.run_min = np.zeros(m, dtype=np.int64)
        self.assoc = AssociatedQueues(m)
        self.amax_bound = amax_bound
        self.observed_amax = 0
        self.run_max_vq = 0
        self.skorokhod_violations = 0
        self.sandwich_violations = 0
        self.loading_violations = 0

    def step(self, A: np.ndarray, mu: np.ndarray, q_after: np.ndarray, total_external: int) -> None:
        self.observed_amax = max(self.observed_amax, total_external)
        np.minimum(self.run_min, self.G, out=self.run_min)
        self.G += A
        self.G -= mu
        expected = np.maximum(self.G - self.run_min, 0)
        if not np.array_equal(expected, q_after):
            self.skorokhod_violations += 1
        self.assoc.update(A, mu)
        amax = self.amax_bound if math.isfinite(self.amax_bound) else self.observed_amax
        if np.any(self.assoc.qhat < q_after) or np.any(self.assoc.qhat > q_after + amax):
            self.sandwich_violations += 1
        # Largest windowed load ending now, per edge, must stay below the
        # running peak queue.
        peak = max(self.run_max_vq, int(q_after.max()) if len(q_after) else 0)
        self.run_max_vq = peak
        if np.any(expected > peak):
            self.loading_violations += 1


def _checkpoints(every: int, horizon: int) -> frozenset[int]:
    """Slots after which the periodic invariant checks run: every
    `every`-th slot and the last one; none when `every` is 0."""
    if every == 0:
        return frozenset()
    return frozenset(range(every - 1, horizon, every)) | {horizon - 1}


class _MaxWeightStepper:
    """One slot of UMW or its heuristic (the policy interface of policy.py).

    Routes this slot's arrivals by min-cost solves and activates links by
    the max-weight rule, both under one weight vector: the virtual queues
    for "umw", the physical buffer lengths for "umw-heuristic". Both arrays
    are updated in place, so the vector is bound once. Then admits and
    forwards the physical copies and applies the Lindley update.
    """

    def __init__(self, config: SimulationConfig, g: Graph, aset: ActivationSet,
                 classes: list[TrafficClass], route_cache: RouteCache,
                 diag: _DiagnosticState | None, checkpoints: frozenset[int]):
        self.graph = g
        self.aset = aset
        self.classes = classes
        self.steiner_mode = config.steiner_mode
        self.route_cache = route_cache
        self.diag = diag
        self.checkpoints = checkpoints
        self.net = PhysicalNetwork(g)
        self.vq = VirtualQueues(g.m)
        self.weights = self.vq.q if config.policy == "umw" else self.net.lengths
        self.in_flight: dict[int, Packet] = {}
        self.uid = 0
        self.violations = {"delivery": 0, "layer_identity": 0}

    def step(self, t: int, arrivals: dict[int, int]) -> SlotOutcome:
        g, net, vq, weights, classes = self.graph, self.net, self.vq, self.weights, self.classes
        in_flight = self.in_flight
        routes: dict[int, RouteTree] = {}
        for c in classes:
            if arrivals[c.id] > 0:
                routes[c.id] = solve_route(g, weights, c, self.steiner_mode, self.route_cache)
        act = max_weight_activation(self.aset, weights)

        completed: list[Packet] = []
        for c in classes:
            for _ in range(arrivals[c.id]):
                pkt = Packet(self.uid, c.id, t, routes[c.id])
                self.uid += 1
                net.admit(pkt, t)
                if pkt.complete:
                    completed.append(pkt)
                else:
                    in_flight[pkt.uid] = pkt
        for ev in net.forward(act.active, t):
            if ev.packet.complete and ev.packet.uid in in_flight:
                completed.append(in_flight.pop(ev.packet.uid))
        for pkt in completed:
            if pkt.delivered != pkt.route.covered:
                self.violations["delivery"] += 1

        A = virtual_arrival_vector(routes, arrivals, g.m)
        mu = act.as_array
        vq.lindley_update(A, mu)
        if self.diag is not None:
            self.diag.step(A, mu, vq.q, sum(arrivals.values()))

        total_q = net.total_copies
        if t in self.checkpoints and int(net.layer_counters().sum()) != total_q:
            self.violations["layer_identity"] += 1
        return SlotOutcome(
            [(pkt.class_id, pkt.full_delivery_slot - pkt.arrival_slot) for pkt in completed],
            total_q,
            vq.total(),
        )


def run(config: SimulationConfig) -> MetricsReport:
    g, aset, classes = config.resolve()
    T = config.horizon
    opts = config.metrics
    table = arrival_table(classes, config.arrival, T, config.seed)

    checkpoints = _checkpoints(opts.eq17_every, T)
    route_cache = RouteCache()
    diag = None
    if config.policy == "bp":
        # Back-pressure keeps no virtual queues, so the virtual-queue
        # diagnostics have nothing to check and are left out of its summary.
        policy = BPState(g, aset, classes)
    else:
        if opts.diagnostics:
            diag = _DiagnosticState(g.m, effective_amax(classes, config.arrival))
        policy = _MaxWeightStepper(config, g, aset, classes, route_cache, diag, checkpoints)

    n_rec = (T + opts.record_every - 1) // opts.record_every
    rec_slots = np.zeros(n_rec, dtype=np.int64)
    rec_total_q = np.zeros(n_rec, dtype=np.int64)
    rec_total_vq = np.zeros(n_rec, dtype=np.int64)
    rec_deliv = np.zeros((n_rec, len(classes)), dtype=np.int64)
    rec_sojourn = np.zeros(n_rec, dtype=np.float64)

    col_of = {c.id: j for j, c in enumerate(classes)}
    class_arrivals = np.zeros(len(classes), dtype=np.int64)
    full_deliveries = np.zeros(len(classes), dtype=np.int64)
    sojourn_sum = 0.0
    sojourn_n = 0
    eq17_violations = 0
    rec_i = 0

    for t in range(T):
        arr_row = table[t]
        class_arrivals += arr_row
        arrivals = {c.id: int(arr_row[j]) for j, c in enumerate(classes)}
        completed, total_q, total_vq = policy.step(t, arrivals)
        for cid, sojourn in completed:
            full_deliveries[col_of[cid]] += 1
            sojourn_sum += sojourn
            sojourn_n += 1

        if t in checkpoints:
            for j in range(len(classes)):
                if full_deliveries[j] < class_arrivals[j] - total_q:
                    eq17_violations += 1

        if t % opts.record_every == 0:
            rec_slots[rec_i] = t
            rec_total_q[rec_i] = total_q
            rec_total_vq[rec_i] = total_vq
            rec_deliv[rec_i] = full_deliveries
            rec_sojourn[rec_i] = sojourn_sum / sojourn_n if sojourn_n else math.nan
            rec_i += 1

    violations = {"eq17": eq17_violations, **policy.violations}
    if diag is not None:
        violations.update(
            skorokhod=diag.skorokhod_violations,
            sandwich=diag.sandwich_violations,
            loading=diag.loading_violations,
        )

    return MetricsReport(
        config=config.echo(),
        policy=config.policy,
        seed=config.seed,
        horizon=T,
        class_ids=[c.id for c in classes],
        slots=rec_slots[:rec_i],
        total_q=rec_total_q[:rec_i],
        total_vq=rec_total_vq[:rec_i],
        deliveries=rec_deliv[:rec_i],
        mean_sojourn_running=rec_sojourn[:rec_i],
        arrivals_per_class=class_arrivals,
        violations=violations,
        route_cache=route_cache.stats(),
    )


def compare(config: SimulationConfig, policies: list[str]) -> dict[str, MetricsReport]:
    """Run several policies on identical arrival sample paths (same seed)."""
    return {p: run(replace(config, policy=p)) for p in policies}


def sweep(config: SimulationConfig, loads: list[float]) -> list[dict]:
    """One run per load value, each with a derived sub-seed; rows for plotting."""
    if list(loads) != sorted(loads):
        raise ConfigError("sweep loads must be ascending")
    rows = []
    for i, load in enumerate(loads):
        sub = replace(config, load_factor=load, seed=sweep_subseed(config.seed, i))
        report = run(sub)
        row = {
            "load": load,
            "policy": report.policy,
            "avg_total_queue": report.avg_total_queue(),
            "final_total_queue": int(report.total_q[-1]),
            "verdict": report.verdict(config.metrics.stability_eps, config.metrics.divergence_factor),
        }
        for cid, thr in report.throughput.items():
            row[f"throughput_c{cid}"] = thr
        rows.append(row)
    return rows


def sweep_csv_rows(rows: list[dict]):
    if not rows:
        return
    keys = list(rows[0].keys())
    yield keys
    for row in rows:
        yield [f"{row[k]:.12g}" if isinstance(row[k], float) else str(row[k]) for k in keys]


def capacity_certificate(config: SimulationConfig) -> CapacityCertificate:
    """Capacity oracle entry point for a configured testbed (unscaled rates)."""
    g, aset, classes = replace(config, load_factor=1.0).resolve()
    return max_scaling(g, aset, classes)
