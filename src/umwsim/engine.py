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
import os
import pickle
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .activation import max_weight_activation
from .errors import ConfigError
from .physical_net import Packet, PhysicalNetwork
from .policy import BPState, POLICY_NAMES, RouteCache, SlotOutcome, require_unicast, solve_route
from .routing import STEINER_MODES, RouteTree
from .topology import ActivationSet, Graph, builtin_topology, load_topology
from .traffic import (
    ArrivalProcess,
    TrafficClass,
    _is_int,
    _is_number,
    arrival_table,
    effective_amax,
    sweep_subseed,
    validate_classes,
)
from .virtual_net import VirtualQueues, virtual_arrival_vector


@dataclass(frozen=True)
class MetricsOptions:
    warmup_frac: float = 0.1
    record_every: int = 1
    eq17_every: int = 1000
    diagnostics: bool = False
    stability_eps: float = 0.05
    divergence_factor: float = 3.0

    def __post_init__(self):
        if not (_is_int(self.record_every) and self.record_every >= 1):
            raise ConfigError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not (_is_int(self.eq17_every) and self.eq17_every >= 0):
            raise ConfigError(f"eq17_every must be an integer >= 0, got {self.eq17_every!r}")
        if not (_is_number(self.warmup_frac) and 0 <= self.warmup_frac < 1):
            raise ConfigError(f"warmup_frac must be in [0, 1), got {self.warmup_frac!r}")
        if not isinstance(self.diagnostics, bool):
            raise ConfigError(f"diagnostics must be true or false, got {self.diagnostics!r}")
        for name in ("stability_eps", "divergence_factor"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    topology: str                      # builtin name or path to a topology file
    horizon: int = 1000
    seed: int = 0
    policy: str = "umw"
    classes: tuple[TrafficClass, ...] | None = None   # None: use the builtin's classes
    arrival: ArrivalProcess = ArrivalProcess("bernoulli")
    load_factor: float = 1.0
    steiner_mode: str = "exact"
    metrics: MetricsOptions = MetricsOptions()

    def __post_init__(self):
        if not isinstance(self.topology, str):
            raise ConfigError(f"topology must be a builtin name or a file path, got {self.topology!r}")
        if not (_is_int(self.horizon) and self.horizon >= 1):
            raise ConfigError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (_is_number(self.load_factor) and math.isfinite(self.load_factor) and self.load_factor >= 0):
            raise ConfigError(f"load_factor must be finite and >= 0, got {self.load_factor!r}")
        object.__setattr__(self, "load_factor", float(self.load_factor))
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"policy must be one of {POLICY_NAMES}, got {self.policy!r}")
        if self.steiner_mode not in STEINER_MODES:
            raise ConfigError(f"steiner_mode must be one of {STEINER_MODES}, got {self.steiner_mode!r}")
        for name, kind in (("arrival", ArrivalProcess), ("metrics", MetricsOptions)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {getattr(self, name)!r}")
        if not (self.classes is None or isinstance(self.classes, tuple)
                and all(isinstance(c, TrafficClass) for c in self.classes)):
            raise ConfigError(f"classes must be None or a tuple of TrafficClass, got {self.classes!r}")

    def resolve(self) -> tuple[Graph, ActivationSet, list[TrafficClass]]:
        """Materialize topology, activation set, and load-scaled classes."""
        if Path(self.topology).suffix == ".json" or "/" in self.topology:
            g, aset = load_topology(self.topology)
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
        """The config as a JSON document that config_from_dict reads back."""
        doc = asdict(self)
        classes = doc.pop("classes")
        if classes is not None:
            doc["classes"] = [dict(c, destinations=sorted(c["destinations"])) for c in classes]
        return doc


def _from_doc(cls, doc, path: str = ""):
    """cls built from the keys doc has; the field defaults fill the rest.
    Each type checks its own values; a ConfigError names a bad key by its path."""
    if not isinstance(doc, dict):
        where = f"config key {path!r}" if path else "a config"
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    prefix = f"{path}." if path else ""
    names = {f.name for f in fields(cls)}
    unknown = sorted(repr(prefix + str(k)) for k in doc if k not in names)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ConfigError(f"config key {prefix + f.name!r} is missing")
    kwargs = dict(doc)
    if cls is SimulationConfig:
        for key, nested in (("arrival", ArrivalProcess), ("metrics", MetricsOptions)):
            if key in doc:
                kwargs[key] = _from_doc(nested, doc[key], key)
        if "classes" in doc:
            if not isinstance(doc["classes"], list):
                raise ConfigError(f"config key 'classes' must be a JSON array, got {doc['classes']!r}")
            kwargs["classes"] = tuple(_from_doc(TrafficClass, c, f"classes[{i}]")
                                      for i, c in enumerate(doc["classes"]))
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_dict(doc: dict, **overrides) -> SimulationConfig:
    """The config a JSON document describes; a malformed document is a ConfigError."""
    cfg = _from_doc(SimulationConfig, doc)
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
    """Everything a run emits; deterministic given its config (seed included)."""

    config: SimulationConfig         # the config that ran
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
        return {cid: float(final[i]) / self.config.horizon for i, cid in enumerate(self.class_ids)}

    @property
    def mean_sojourn(self) -> float:
        return float(self.mean_sojourn_running[-1]) if len(self.mean_sojourn_running) else math.nan

    def avg_total_queue(self) -> float:
        """Time-average of the total queue after the config's
        metrics.warmup_frac prefix."""
        start = int(len(self.total_q) * self.config.metrics.warmup_frac)
        tail = self.total_q[start:]
        return float(tail.mean()) if len(tail) else math.nan

    def verdict(self) -> str:
        """Stability call: "stable" when the final queue is o(horizon) small,
        "diverging" when the last-decile mean dwarfs the mean observed by
        mid-run (a linearly growing queue scores about 3.8x). The thresholds
        are the config's metrics.stability_eps and divergence_factor."""
        opts = self.config.metrics
        if len(self.total_q) == 0:
            return "stable"
        if float(self.total_q[-1]) / self.config.horizon < opts.stability_eps:
            return "stable"
        k = len(self.total_q)
        mid = self.total_q[: max(k // 2, 1)]
        last = self.total_q[int(0.9 * k):]
        mid_mean = float(mid.mean())
        last_mean = float(last.mean()) if len(last) else 0.0
        if mid_mean > 0 and last_mean >= opts.divergence_factor * mid_mean:
            return "diverging"
        if mid_mean == 0 and last_mean > 0:
            return "diverging"
        return "inconclusive"

    def csv_rows(self):
        header = ["slot", "policy", "total_q", "total_vq"]
        header += [f"throughput_c{cid}" for cid in self.class_ids]
        header += ["mean_sojourn"]
        yield header
        policy = self.config.policy
        for i, slot in enumerate(self.slots):
            row = [str(int(slot)), policy, str(int(self.total_q[i])), str(int(self.total_vq[i]))]
            denom = int(slot) + 1
            row += [f"{self.deliveries[i, j] / denom:.12g}" for j in range(len(self.class_ids))]
            soj = self.mean_sojourn_running[i]
            row += ["nan" if math.isnan(soj) else f"{soj:.12g}"]
            yield row

    def write_csv(self, path: str | Path) -> None:
        write_csv_rows(path, self.csv_rows())

    def summary(self) -> dict:
        cfg = self.config
        return {
            "config": cfg.echo(),
            "policy": cfg.policy,
            "seed": cfg.seed,
            "horizon": cfg.horizon,
            "throughput": {str(k): v for k, v in self.throughput.items()},
            "arrival_rate_empirical": {
                str(cid): float(self.arrivals_per_class[i]) / cfg.horizon
                for i, cid in enumerate(self.class_ids)
            },
            "avg_total_queue": self.avg_total_queue(),
            "final_total_queue": int(self.total_q[-1]) if len(self.total_q) else 0,
            "normalized_final_queue": float(self.total_q[-1]) / cfg.horizon if len(self.total_q) else 0.0,
            "mean_sojourn": None if math.isnan(self.mean_sojourn) else self.mean_sojourn,
            "verdict": self.verdict(),
            "violations": dict(self.violations),
            "route_cache": dict(self.route_cache),
        }


def write_csv_rows(path: str | Path, rows) -> None:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(row))
        buf.write("\n")
    Path(path).write_text(buf.getvalue())


DIAG_BLOCK = 256  # slots the diagnostics buffer before checking them in one pass


class _DiagnosticState:
    """Independent re-evaluations of the queue identities, a block of slots at a time.

    Each step copies the slot's arrivals, service, post-update queue and
    external arrival count into buffers of min(DIAG_BLOCK, horizon) slots.
    When they fill, and after the run's last slot, one pass checks every
    buffered slot exactly, in int64. The checker keeps the cumulative
    arrivals-minus-service vector and its running minimum (the running-sup
    form of the windowed-load expression), the companion queue, and the
    running maxima, and carries each from block to block. It never reads the
    Lindley state it is checking beyond the q_after it is given. Each count
    is the number of slots whose check fails, under "skorokhod", "sandwich"
    and "loading"; tests/helpers.SlotDiagnosticState is the per-slot reference.
    """

    def __init__(self, m: int, amax_bound: float, horizon: int, violations: dict[str, int]):
        b = min(DIAG_BLOCK, horizon)
        self.A = np.zeros((b, m), dtype=np.int64)
        self.mu = np.zeros((b, m), dtype=np.int64)
        self.q = np.zeros((b, m), dtype=np.int64)
        self.ext = np.zeros(b, dtype=np.int64)
        self.work = np.zeros((2, b, m), dtype=np.int64)  # the block pass's scratch
        self.filled = 0
        self.slots_left = horizon
        self.G = np.zeros(m, dtype=np.int64)
        self.run_min = np.zeros(m, dtype=np.int64)
        self.qhat = np.zeros(m, dtype=np.int64)
        self.amax_bound = amax_bound
        self.observed_amax = 0
        self.run_max_vq = 0
        violations.update(skorokhod=0, sandwich=0, loading=0)
        self.violations = violations

    def step(self, A: list[int], mu: tuple[int, ...], q_after: list[int], total_external: int) -> None:
        i = self.filled
        self.A[i] = A
        self.mu[i] = mu
        self.q[i] = q_after
        self.ext[i] = total_external
        self.filled = i + 1
        self.slots_left -= 1
        if self.filled == len(self.ext) or self.slots_left == 0:
            self._check_block()

    def _check_block(self) -> None:
        n = self.filled
        A, mu, q, ext = self.A[:n], self.mu[:n], self.q[:n], self.ext[:n]
        G, low = self.work[0, :n], self.work[1, :n]
        # Skorokhod: the queue after slot t is G_t minus the minimum of G
        # before it, where G is the cumulative arrivals minus service.
        np.subtract(A, mu, out=G)
        np.cumsum(G, axis=0, out=G)
        G += self.G
        low[0] = np.minimum(self.run_min, self.G)
        low[1:] = G[:-1]
        np.minimum.accumulate(low, axis=0, out=low)
        self.G = G[-1].copy()
        self.run_min = low[-1].copy()
        expected = np.subtract(G, low, out=low)
        np.maximum(expected, 0, out=expected)
        skorokhod = np.any(expected != q, axis=1)
        # Largest windowed load ending at each slot, per edge, must stay
        # below the running peak queue.
        peak = np.maximum.accumulate(q.max(axis=1, initial=self.run_max_vq))
        self.run_max_vq = int(peak[-1])
        loading = np.any(expected > peak[:, None], axis=1)
        # Sandwich: the companion queue is qhat_t = r_t + A_t, where
        # r_t = max(r_{t-1} + A_{t-1} - mu_t, 0) is a Lindley recursion in
        # shifted arrivals, so r_t = max(qhat_0 + S_t, S_t - min_{k<=t} S_k)
        # with S the cumulative sum of A_{t-1} - mu_t.
        S, drop = G, low
        np.negative(mu, out=S)
        S[1:] += A[:-1]
        np.cumsum(S, axis=0, out=S)
        np.minimum.accumulate(S, axis=0, out=drop)
        np.subtract(S, drop, out=drop)
        S += self.qhat
        qhat = np.maximum(S, drop, out=S)
        qhat += A
        self.qhat = qhat[-1].copy()
        if math.isfinite(self.amax_bound):
            amax = self.amax_bound
        else:
            observed = np.maximum.accumulate(np.maximum(ext, self.observed_amax))
            self.observed_amax = int(observed[-1])
            amax = observed[:, None]
        gap = np.subtract(qhat, q, out=drop)  # must lie in [0, amax]
        sandwich = np.any(gap < 0, axis=1) | np.any(gap > amax, axis=1)

        self.violations["skorokhod"] += int(np.count_nonzero(skorokhod))
        self.violations["sandwich"] += int(np.count_nonzero(sandwich))
        self.violations["loading"] += int(np.count_nonzero(loading))
        self.filled = 0


def _checkpoints(every: int, horizon: int) -> frozenset[int]:
    """Slots after which the periodic invariant checks run: every
    `every`-th slot and the last one; none when `every` is 0."""
    if every == 0:
        return frozenset()
    return frozenset(range(every - 1, horizon, every)) | {horizon - 1}


class _MaxWeightStepper:
    """One slot of UMW or its heuristic (the policy interface of policy.py).

    Routes this slot's arrivals by min-cost solves and activates links by
    the max-weight rule, both under one weight vector (see weights()). Then
    admits and forwards the physical copies and applies the Lindley update.
    With metrics.diagnostics on, each slot also feeds the _DiagnosticState
    checks.
    """

    def __init__(self, config: SimulationConfig, g: Graph, aset: ActivationSet,
                 classes: list[TrafficClass], route_cache: RouteCache,
                 checkpoints: frozenset[int]):
        self.graph = g
        self.aset = aset
        self.classes = classes
        self.steiner_mode = config.steiner_mode
        self.route_cache = route_cache
        self.checkpoints = checkpoints
        self.net = PhysicalNetwork(g)
        self.vq = VirtualQueues(g.m)
        self.virtual_weights = config.policy == "umw"
        self.uid = 0
        self.violations = {"delivery": 0, "layer_identity": 0}
        self.diag = None
        if config.metrics.diagnostics:
            amax = effective_amax(classes, config.arrival)
            self.diag = _DiagnosticState(g.m, amax, config.horizon, self.violations)

    def weights(self) -> list[int]:
        """The slot's weight vector: the virtual queues for "umw", the
        physical buffer sizes at the start of the slot for "umw-heuristic"."""
        return self.vq.q if self.virtual_weights else self.net.lengths

    def step(self, t: int, arrivals: dict[int, int]) -> SlotOutcome:
        g, net, vq, classes = self.graph, self.net, self.vq, self.classes
        weights = self.weights()
        routes: dict[int, RouteTree] = {}
        for c in classes:
            if arrivals[c.id] > 0:
                routes[c.id] = solve_route(g, weights, c, self.steiner_mode, self.route_cache)
        act = max_weight_activation(self.aset, weights)

        completed: list[Packet] = []
        for c in classes:
            for _ in range(arrivals[c.id]):
                completed += net.admit(Packet(self.uid, c.id, t, routes[c.id]), t)
                self.uid += 1
        completed += net.forward(act.active, t)
        for pkt in completed:
            if pkt.delivered != pkt.route.covered:
                self.violations["delivery"] += 1

        A = virtual_arrival_vector(routes, arrivals, g.m)
        mu = act.service
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


def run(config: SimulationConfig, *, _resolved=None) -> MetricsReport:
    """One run of config. compare() passes the (g, aset, classes) it has
    already resolved as _resolved (through run_many), so its policies share
    one resolution."""
    g, aset, classes = _resolved or config.resolve()
    T = config.horizon
    opts = config.metrics
    table = arrival_table(classes, config.arrival, T, config.seed)

    checkpoints = _checkpoints(opts.eq17_every, T)
    route_cache = RouteCache()
    if config.policy == "bp":
        # Back-pressure keeps no virtual queues, so the virtual-queue
        # diagnostics have nothing to check and are left out of its summary.
        policy = BPState(g, aset, classes)
    else:
        policy = _MaxWeightStepper(config, g, aset, classes, route_cache, checkpoints)

    n_rec = (T + opts.record_every - 1) // opts.record_every
    rec_slots = np.zeros(n_rec, dtype=np.int64)
    rec_total_q = np.zeros(n_rec, dtype=np.int64)
    rec_total_vq = np.zeros(n_rec, dtype=np.int64)
    rec_deliv = np.zeros((n_rec, len(classes)), dtype=np.int64)
    rec_sojourn = np.zeros(n_rec, dtype=np.float64)

    class_ids = [c.id for c in classes]
    col_of = {cid: j for j, cid in enumerate(class_ids)}
    full_deliveries = [0] * len(classes)
    # External arrivals per class in slots [0, counted), summed from the
    # arrival table when a checkpoint needs them.
    class_arrivals = np.zeros(len(classes), dtype=np.int64)
    counted = 0
    sojourn_sum = 0.0
    sojourn_n = 0
    eq17_violations = 0
    rec_i = 0

    for t in range(T):
        completed, total_q, total_vq = policy.step(t, dict(zip(class_ids, table[t].tolist())))
        for cid, sojourn in completed:
            full_deliveries[col_of[cid]] += 1
            sojourn_sum += sojourn
            sojourn_n += 1

        if t in checkpoints:
            class_arrivals += table[counted:t + 1].sum(axis=0)
            counted = t + 1
            for delivered, arrived in zip(full_deliveries, class_arrivals.tolist()):
                if delivered < arrived - total_q:
                    eq17_violations += 1

        if t % opts.record_every == 0:
            rec_slots[rec_i] = t
            rec_total_q[rec_i] = total_q
            rec_total_vq[rec_i] = total_vq
            rec_deliv[rec_i] = full_deliveries
            rec_sojourn[rec_i] = sojourn_sum / sojourn_n if sojourn_n else math.nan
            rec_i += 1

    class_arrivals += table[counted:].sum(axis=0)
    return MetricsReport(
        config=config,
        class_ids=class_ids,
        slots=rec_slots[:rec_i],
        total_q=rec_total_q[:rec_i],
        total_vq=rec_total_vq[:rec_i],
        deliveries=rec_deliv[:rec_i],
        mean_sojourn_running=rec_sojourn[:rec_i],
        arrivals_per_class=class_arrivals,
        violations={"eq17": eq17_violations, **policy.violations},
        route_cache=route_cache.stats(),
    )


# A forked lane costs about 5-10 ms (the fork, copy-on-write page faults
# and its pickled reports; 2-CPU x86 host). run_many gives each lane at
# least LANE_SLOTS slots of runs: at 500 slots a lane two of the shipped
# configs' sweeps ran 14% and 28% slower forked than serial, from 1000 none
# was more than 1% slower.
LANE_SLOTS = 1000


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_lane(lane: int, configs: list[SimulationConfig], resolved,
               open_reads: list[int]) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that runs configs and sends
    back the pickled (True, reports) or (False, the exception that stopped
    it). An exception that does not survive a pickle round trip, or reports
    that do not pickle, arrive as a RuntimeError naming the lane and the
    repr of what failed. The child closes every read end (its own and
    open_reads, the earlier lanes'), so a write to a pipe the parent has
    closed fails instead of blocking. It always leaves by os._exit, so it
    never flushes output it inherited buffered and never runs atexit
    handlers."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        for fd in open_reads + [read_fd]:
            os.close(fd)
        try:
            result = True, [run(c, _resolved=resolved) for c in configs]
        except BaseException as exc:
            result = False, exc
        try:
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            if not result[0]:
                pickle.loads(data)  # the parent must be able to rebuild it
        except Exception as exc:
            what = repr(result[1]) if not result[0] else "its reports"
            data = pickle.dumps((False, RuntimeError(
                f"run_many lane {lane}: {what} could not be sent back ({exc!r})")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _lane_result(lane: int, pid: int, read_fd: int) -> list[MetricsReport]:
    """The reports a forked lane sent back; the exception it sent is raised."""
    with open(read_fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    try:
        ok, value = pickle.loads(data)
    except Exception:
        raise RuntimeError(f"run_many lane {lane} (pid {pid}) exited without a result") from None
    if not ok:
        raise value
    return value


def run_many(configs: list[SimulationConfig], *, _resolved=None) -> list[MetricsReport]:
    """Exactly [run(c) for c in configs], in order, the runs spread over
    the usable CPUs.

    The list is cut into k contiguous lanes, the first ones a run longer
    when k does not divide it: k = min(len(configs), usable CPUs, total
    slots // LANE_SLOTS), at least 1. This process runs lane 0; every
    other lane runs in a child made by os.fork() (see _fork_lane), so
    run_many must not be called from a process with other threads. A run
    is a pure function of its config, so the reports equal the serial
    loop's. A child's exception is raised here with its type and message,
    and the first failing lane's error is the one the serial loop would
    raise first. Without os.fork, or with one lane, everything runs in
    this process. Every child is reaped before the call returns or
    raises."""
    configs = list(configs)
    if not configs:
        return []
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    k = max(1, min(len(configs), cpus, sum(c.horizon for c in configs) // LANE_SLOTS))
    size, extra = divmod(len(configs), k)
    cuts = [i * size + min(i, extra) for i in range(k + 1)]
    lanes = [configs[a:b] for a, b in zip(cuts, cuts[1:])]
    children: list[tuple[int, int]] = []
    try:
        for i, lane in enumerate(lanes[1:], 1):
            children.append(_fork_lane(i, lane, _resolved, [fd for _, fd in children]))
        reports = [run(c, _resolved=_resolved) for c in lanes[0]]
        for i, (pid, read_fd) in enumerate(children, 1):
            reports += _lane_result(i, pid, read_fd)
        return reports
    finally:
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)


def compare(config: SimulationConfig, policies: list[str]) -> dict[str, MetricsReport]:
    """Run several policies on identical arrival sample paths (same seed)."""
    repeated = sorted({p for p in policies if policies.count(p) > 1})
    if repeated:
        raise ConfigError(f"compare lists policy {', '.join(map(repr, repeated))} more than once")
    resolved = config.resolve()
    if "bp" in policies:
        require_unicast(resolved[2])  # fail before any policy runs
    reports = run_many([replace(config, policy=p) for p in policies], _resolved=resolved)
    return dict(zip(policies, reports))


def sweep(config: SimulationConfig, loads: list[float]) -> list[dict]:
    """One run per load value, each with a derived sub-seed; rows for plotting."""
    if list(loads) != sorted(loads):
        raise ConfigError("sweep loads must be ascending")
    subs = [replace(config, load_factor=load, seed=sweep_subseed(config.seed, i))
            for i, load in enumerate(loads)]
    rows = []
    for load, sub, report in zip(loads, subs, run_many(subs)):
        row = {
            "load": load,
            "policy": sub.policy,
            "avg_total_queue": report.avg_total_queue(),
            "final_total_queue": int(report.total_q[-1]),
            "verdict": report.verdict(),
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

