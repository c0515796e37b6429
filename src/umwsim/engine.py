"""Simulation engine, metric collection, and load sweeps.

Intra-slot order is fixed: (1) weights, (2) routes for this slot's
arrivals, (3) link activation, (4) physical forwarding, (5) virtual-queue
update. Arrivals admitted at slot t sit in their root-edge buffers before
step 4 and are therefore eligible for forwarding in the same slot, which
matches the virtual system where a slot's arrivals and service meet in the
same update. Everything is a deterministic function of (config, seed).

run() hands the policy BLOCK slots per call (policy.run_block) and builds
the recorded series from what each call returns, carrying the running
totals from block to block.
"""
from __future__ import annotations

import json
import math
import os
import pickle
from collections.abc import Collection
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import accumulate
from operator import truediv
from pathlib import Path

import numpy as np

from .errors import ConfigError
# solve_route is not called here; the tracer tests in bench/ read engine.solve_route.
from .policy import BPState, MaxWeightState, POLICY_NAMES, require_unicast, solve_route
from .routing import STEINER_MODES, _shortest_labels
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
from .virtual_net import reflected_walk


# How every run reports its result. Every slot is recorded.
WARMUP_FRAC = 0.1        # leading share of the slots avg_total_queue leaves out
CHECK_EVERY = 1000       # eq17 and layer-identity checks after every CHECK_EVERY-th slot and the last
STABILITY_EPS = 0.05     # verdict "stable" below this final queue / horizon
DIVERGENCE_FACTOR = 3.0  # verdict "diverging" from this last-decile / mid-run queue ratio


@dataclass(frozen=True)
class MetricsOptions:
    """What a run measures beyond its CSV and summary. diagnostics turns on
    the per-slot virtual-queue identity checks (_DiagnosticState); they cost
    time and never change the CSV bytes."""

    diagnostics: bool = False

    def __post_init__(self):
        if not isinstance(self.diagnostics, bool):
            raise ConfigError(f"diagnostics must be true or false, got {self.diagnostics!r}")


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
        _check_reachable(g, classes)
        return g, aset, classes

    def echo(self) -> dict:
        """The config as a JSON document that config_from_dict reads back."""
        doc = asdict(self)
        classes = doc.pop("classes")
        if classes is not None:
            doc["classes"] = [dict(c, destinations=sorted(c["destinations"])) for c in classes]
        return doc


def _check_reachable(g: Graph, classes: list[TrafficClass]) -> None:
    """Every class with a positive rate must reach all its destinations
    (an anycast class at least one), or its first arrival could not be
    routed; a ConfigError names the class by its key path. A destination
    is reachable when the source's shortest-path search labels it."""
    for i, cls in enumerate(classes):
        if cls.rate <= 0:
            continue
        reached = _shortest_labels(g, [0] * g.m, cls.source, cls.destinations)
        missing = cls.destinations.difference(reached)
        if missing and (cls.kind != "anycast" or missing == cls.destinations):
            raise ConfigError(f"classes[{i}].destinations {sorted(missing)} not reachable "
                              f"from source {cls.source}")


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
    # One row per slot, slot t at index t:
    total_q: np.ndarray          # physical copies waiting (or BP backlog)
    total_vq: np.ndarray         # sum of virtual queues (0 for bp)
    deliveries: np.ndarray       # cumulative full deliveries, shape (slots, classes)
    mean_sojourn_running: np.ndarray
    arrivals_per_class: np.ndarray   # final cumulative external arrivals
    route_cache: dict[str, int]      # the policy's route_stats()
    violations: dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> dict[int, float]:
        final = self.deliveries[-1]
        return {cid: float(final[i]) / self.config.horizon for i, cid in enumerate(self.class_ids)}

    @property
    def mean_sojourn(self) -> float:
        return float(self.mean_sojourn_running[-1])

    def avg_total_queue(self) -> float:
        """Time-average of the total queue after the first WARMUP_FRAC of the slots."""
        start = int(len(self.total_q) * WARMUP_FRAC)
        return float(self.total_q[start:].mean())

    def verdict(self) -> str:
        """Stability call: "stable" when the final queue is o(horizon) small,
        "diverging" when the last-decile mean dwarfs the mean observed by
        mid-run (a linearly growing queue scores about 3.8x). The thresholds
        are STABILITY_EPS and DIVERGENCE_FACTOR."""
        if float(self.total_q[-1]) / self.config.horizon < STABILITY_EPS:
            return "stable"
        k = len(self.total_q)
        mid = self.total_q[: max(k // 2, 1)]
        last = self.total_q[int(0.9 * k):]
        mid_mean = float(mid.mean())
        last_mean = float(last.mean())
        if mid_mean > 0 and last_mean >= DIVERGENCE_FACTOR * mid_mean:
            return "diverging"
        if mid_mean == 0 and last_mean > 0:
            return "diverging"
        return "inconclusive"

    def csv_rows(self):
        """The header, then one row per slot. The series are read as
        Python numbers a block of BLOCK slots at a time, so the rows cost
        no numpy scalar per cell and no list for the whole run."""
        header = ["slot", "policy", "total_q", "total_vq"]
        header += [f"throughput_c{cid}" for cid in self.class_ids]
        header += ["mean_sojourn"]
        yield header
        policy = self.config.policy
        last_soj = soj_cell = None
        for start in range(0, len(self.total_q), BLOCK):
            end = start + BLOCK
            block = zip(self.total_q[start:end].tolist(), self.total_vq[start:end].tolist(),
                        self.deliveries[start:end].tolist(), self.mean_sojourn_running[start:end].tolist())
            for t, (q, vq, delivered, soj) in enumerate(block, start):
                # The running mean holds between deliveries, so its cell is
                # formatted only when it changes (nan never equals itself).
                if soj != last_soj:
                    last_soj, soj_cell = soj, "nan" if math.isnan(soj) else f"{soj:.12g}"
                slots = t + 1
                yield [str(t), policy, str(q), str(vq), *[f"{d / slots:.12g}" for d in delivered], soj_cell]

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
            "final_total_queue": int(self.total_q[-1]),
            "normalized_final_queue": float(self.total_q[-1]) / cfg.horizon,
            "mean_sojourn": None if math.isnan(self.mean_sojourn) else self.mean_sojourn,
            "verdict": self.verdict(),
            "violations": dict(self.violations),
            "route_cache": dict(self.route_cache),
        }


def write_csv_rows(path: str | Path, rows) -> None:
    """Write rows of cells as comma-joined lines, each to the open file as
    it comes, so no copy of the whole file is held."""
    with open(path, "w") as f:
        for row in rows:
            f.write(",".join(row))
            f.write("\n")


BLOCK = 256  # slots one run_block call runs, and the diagnostics check, in one pass


class _DiagnosticState:
    """Independent re-evaluations of the queue identities, a block of slots at a time.

    Each step appends the slot's arrivals (the dense row of its deposit,
    the argument lindley_update takes), service, post-update queue and
    external arrival count to one flat list of Python ints, so a caller
    may reuse its buffers. When it holds min(BLOCK, horizon) slots, and
    after the run's last slot, it becomes one int64 array of a row per
    slot, and one pass checks every buffered slot exactly. Both queues it
    rebuilds are virtual_net.reflected_walk runs, each started from the
    last row of the block before: the expected Lindley queue, from
    arrivals and service alone, and the companion queue. Those two rows
    and the running maxima are all it carries; it never reads the Lindley
    state it is checking beyond the q_after it is given. Its own violations
    dict counts the slots whose check fails, under "skorokhod", "sandwich"
    and "loading"; tests/helpers.SlotDiagnosticState is the per-slot reference.
    """

    def __init__(self, m: int, amax_bound: float, horizon: int):
        self.m = m
        self.rows: list[int] = []  # A, mu, q_after, total_external of each buffered slot
        self.full = min(BLOCK, horizon) * (3 * m + 1)  # len(rows) of a full block
        self.slots_left = horizon
        self.expected = np.zeros(m, dtype=np.int64)
        self.qhat = np.zeros(m, dtype=np.int64)
        self.amax_bound = amax_bound
        self.observed_amax = 0
        self.run_max_vq = 0
        self.violations = {"skorokhod": 0, "sandwich": 0, "loading": 0}

    def step(self, deposit: Collection[tuple[Collection[int], int]], mu: tuple[int, ...],
             q_after: list[int], total_external: int) -> None:
        A = [0] * self.m
        for edge_ids, count in deposit:
            for e in edge_ids:
                A[e] += count
        rows = self.rows
        rows.extend(A)
        rows.extend(mu)
        rows.extend(q_after)
        rows.append(total_external)
        self.slots_left -= 1
        if len(rows) == self.full or self.slots_left == 0:
            self._check_block()

    def _check_block(self) -> None:
        m = self.m
        block = np.array(self.rows, dtype=np.int64).reshape(-1, 3 * m + 1)
        self.rows.clear()
        A, mu, q, ext = block[:, :m], block[:, m:2 * m], block[:, 2 * m:3 * m], block[:, 3 * m]
        # Skorokhod: the Lindley recursion rerun from arrivals and service alone.
        expected = reflected_walk(A - mu, self.expected)
        self.expected = expected[-1]
        skorokhod = np.any(expected != q, axis=1)
        # Largest windowed load ending at each slot, per edge, must stay
        # below the running peak queue.
        peak = np.maximum.accumulate(q.max(axis=1, initial=self.run_max_vq))
        self.run_max_vq = int(peak[-1])
        loading = np.any(expected > peak[:, None], axis=1)
        # Sandwich: the companion queue is qhat_t = r_t + A_t, where
        # r_t = max(r_{t-1} + A_{t-1} - mu_t, 0) is a Lindley recursion in
        # shifted arrivals; the block's first A_{t-1} is in the carried qhat.
        shifted = np.negative(mu)
        shifted[1:] += A[:-1]
        qhat = reflected_walk(shifted, self.qhat)
        qhat += A
        self.qhat = qhat[-1]
        if math.isfinite(self.amax_bound):
            amax = self.amax_bound
        else:
            observed = np.maximum.accumulate(np.maximum(ext, self.observed_amax))
            self.observed_amax = int(observed[-1])
            amax = observed[:, None]
        gap = qhat - q  # must lie in [0, amax]
        sandwich = np.any(gap < 0, axis=1) | np.any(gap > amax, axis=1)

        self.violations["skorokhod"] += int(np.count_nonzero(skorokhod))
        self.violations["sandwich"] += int(np.count_nonzero(sandwich))
        self.violations["loading"] += int(np.count_nonzero(loading))


def run(config: SimulationConfig, *, _resolved=None) -> MetricsReport:
    """One run of config. compare() and sweep() pass the (g, aset, classes)
    they have already resolved as _resolved (through run_many), so their
    runs share one reading of the topology."""
    g, aset, classes = _resolved or config.resolve()
    T = config.horizon
    table = arrival_table(classes, config.arrival, T, config.seed)

    # Slots after which the periodic invariant checks run.
    checkpoints = [*range(CHECK_EVERY - 1, T - 1, CHECK_EVERY), T - 1]
    diag = None
    if config.policy == "bp":
        # Back-pressure keeps no virtual queues, so the virtual-queue
        # diagnostics have nothing to check and are left out of its summary.
        policy = BPState(g, aset, classes)
    else:
        if config.metrics.diagnostics:
            diag = _DiagnosticState(g.m, effective_amax(classes, config.arrival), T)
        policy = MaxWeightState(g, aset, classes, config.policy, config.steiner_mode,
                                frozenset(checkpoints), diag)

    rec_total_q = np.zeros(T, dtype=np.int64)
    rec_total_vq = np.zeros(T, dtype=np.int64)
    rec_deliv = np.zeros((T, len(classes)), dtype=np.int64)
    rec_sojourn = np.zeros(T, dtype=np.float64)

    class_ids = [c.id for c in classes]
    col_of = {cid: j for j, cid in enumerate(class_ids)}
    # Carried from block to block: the full deliveries per class, and the
    # sojourn sum (a Python float, added to once per completion), its
    # count and their mean, all as of the last completion so far.
    deliveries = np.zeros(len(classes), dtype=np.int64)
    sojourn_sum = 0.0
    sojourn_n = 0
    mean_sojourn = math.nan

    for start in range(0, T, BLOCK):
        rows = table[start:start + BLOCK].tolist()
        end = start + len(rows)
        rec_total_q[start:end], rec_total_vq[start:end], done = policy.run_block(start, rows)
        if not done:
            rec_deliv[start:end] = deliveries
            rec_sojourn[start:end] = mean_sojourn
            continue
        slots, cids, sojourns = zip(*done)
        n = len(done)
        # Row i: the deliveries and the running mean after the block's
        # first i completions; row 0 carries the blocks before.
        deliv_rows = np.zeros((n + 1, len(classes)), dtype=np.int64)
        deliv_rows[0] = deliveries
        deliv_rows[np.arange(1, n + 1), list(map(col_of.__getitem__, cids))] = 1
        np.cumsum(deliv_rows, axis=0, out=deliv_rows)
        sums = list(accumulate(sojourns, initial=sojourn_sum))
        means = np.array([mean_sojourn, *map(truediv, sums[1:], range(sojourn_n + 1, sojourn_n + n + 1))])
        # A slot records the row after its own and earlier completions.
        after = np.bincount(np.array(slots) - start, minlength=len(rows)).cumsum()
        rec_deliv[start:end] = deliv_rows[after]
        rec_sojourn[start:end] = means[after]
        deliveries, mean_sojourn = deliv_rows[-1], means[-1]
        sojourn_sum, sojourn_n = sums[-1], sojourn_n + n

    # External arrivals per class up to each checkpoint; the last
    # checkpoint is the last slot, so its row is the run's total. The
    # comparisons are Python ints: a first numpy int64 comparison would
    # page in about 0.2 MB of numpy code on a run without diagnostics.
    arrived = np.cumsum(np.add.reduceat(table, [0, *(t + 1 for t in checkpoints[:-1])], axis=0), axis=0)
    eq17_violations = 0
    for t, arrived_then in zip(checkpoints, arrived.tolist()):
        queued = int(rec_total_q[t])
        eq17_violations += sum(d < a - queued for d, a in zip(rec_deliv[t].tolist(), arrived_then))
    return MetricsReport(
        config=config,
        class_ids=class_ids,
        total_q=rec_total_q,
        total_vq=rec_total_vq,
        deliveries=rec_deliv,
        mean_sojourn_running=rec_sojourn,
        arrivals_per_class=arrived[-1],
        violations={"eq17": eq17_violations, **policy.violations, **(diag.violations if diag else {})},
        route_cache=policy.route_stats(),
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


def _fork_lane(lane: int, configs: list[SimulationConfig], resolved: list,
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
            result = True, [run(c, _resolved=r) for c, r in zip(configs, resolved)]
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
    the usable CPUs. _resolved, if given, holds each config's resolution,
    passed on to its run.

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
    resolved = _resolved or [None] * len(configs)
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    k = max(1, min(len(configs), cpus, sum(c.horizon for c in configs) // LANE_SLOTS))
    size, extra = divmod(len(configs), k)
    cuts = [i * size + min(i, extra) for i in range(k + 1)]
    lanes = [(configs[a:b], resolved[a:b]) for a, b in zip(cuts, cuts[1:])]
    children: list[tuple[int, int]] = []
    try:
        for i, (lane, lane_resolved) in enumerate(lanes[1:], 1):
            children.append(_fork_lane(i, lane, lane_resolved, [fd for _, fd in children]))
        reports = [run(c, _resolved=r) for c, r in zip(*lanes[0])]
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
    if not policies:
        raise ConfigError("compare needs at least one policy")
    repeated = sorted({p for p in policies if policies.count(p) > 1})
    if repeated:
        raise ConfigError(f"compare lists policy {', '.join(map(repr, repeated))} more than once")
    resolved = config.resolve()
    if "bp" in policies:
        require_unicast(resolved[2])  # fail before any policy runs
    reports = run_many([replace(config, policy=p) for p in policies],
                       _resolved=[resolved] * len(policies))
    return dict(zip(policies, reports))


def sweep(config: SimulationConfig, loads: list[float]) -> list[dict]:
    """One run per load value, each with a derived sub-seed; rows for plotting."""
    if not loads:
        raise ConfigError("sweep needs at least one load")
    if list(loads) != sorted(loads):
        raise ConfigError("sweep loads must be ascending")
    subs = [replace(config, load_factor=load, seed=sweep_subseed(config.seed, i))
            for i, load in enumerate(loads)]
    # One resolution for every point: rate * 1.0 is exact, so scaling the
    # unit-load classes gives each point's classes bit for bit.
    g, aset, classes = replace(config, load_factor=1.0).resolve()
    resolved = [(g, aset, [c.scaled(load) for c in classes]) for load in loads]
    rows = []
    for load, sub, report in zip(loads, subs, run_many(subs, _resolved=resolved)):
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

