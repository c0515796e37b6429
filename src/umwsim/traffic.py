"""Traffic classes and seeded, reproducible arrival generation.

Each class owns an independent random substream derived from the master
seed, so runs with the same (seed, config) reproduce arrivals bit-for-bit
and different policies can be compared on identical sample paths.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

FLOW_KINDS = ("unicast", "broadcast", "multicast", "anycast")
ARRIVAL_KINDS = ("bernoulli", "binomial", "poisson")

# Namespace tags keep the substream families (per-class arrivals, per-run
# sweep sub-seeds) from colliding in SeedSequence spawn keys.
_CLASS_STREAM_TAG = 1
_SWEEP_SEED_TAG = 2


def _is_int(value) -> bool:
    """An integer; JSON true and false are not numbers here."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrafficClass:
    """One traffic session: a source, its destination set, flow kind, rate."""

    id: int
    kind: str
    source: int
    destinations: frozenset[int]
    rate: float

    def __post_init__(self):
        for name in ("id", "source"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.kind not in FLOW_KINDS:
            raise ConfigError(f"kind must be one of {FLOW_KINDS}, got {self.kind!r}")
        dests = self.destinations
        if not (isinstance(dests, (frozenset, set, list, tuple)) and dests):
            raise ConfigError(f"destinations must be a non-empty list of node ids, got {dests!r}")
        for i, d in enumerate(dests):
            if not _is_int(d):
                raise ConfigError(f"destinations[{i}] must be an integer, got {d!r}")
        object.__setattr__(self, "destinations", frozenset(dests))
        if self.kind == "unicast" and len(self.destinations) != 1:
            raise ConfigError(f"destinations must hold exactly one node for unicast, got {sorted(self.destinations)}")
        if not (_is_number(self.rate) and math.isfinite(self.rate) and self.rate >= 0):
            raise ConfigError(f"rate must be finite and >= 0, got {self.rate!r}")
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def destination(self) -> int:
        """The single destination of a unicast class."""
        if self.kind != "unicast":
            raise ConfigError(f"class {self.id} is {self.kind}, not unicast")
        return next(iter(self.destinations))

    def scaled(self, factor: float) -> "TrafficClass":
        return replace(self, rate=self.rate * factor)


def validate_classes(classes: list[TrafficClass], node_count: int) -> None:
    """Check destination-set shape constraints of every class against a graph
    size; a ConfigError names the class by its key path, classes[i]."""
    if not classes:
        raise ConfigError("classes must list at least one traffic class")
    seen_ids = set()
    all_nodes = frozenset(range(node_count))
    for i, cls in enumerate(classes):
        where = f"classes[{i}]"
        if cls.id in seen_ids:
            raise ConfigError(f"{where}.id {cls.id} is a duplicate class id")
        seen_ids.add(cls.id)
        if not (0 <= cls.source < node_count):
            raise ConfigError(f"{where}.source {cls.source} out of range")
        if not cls.destinations <= all_nodes:
            raise ConfigError(f"{where}.destinations outside node range")
        if cls.kind == "broadcast" and cls.destinations != all_nodes:
            raise ConfigError(f"{where}.destinations: broadcast must target every node")
        if cls.kind == "multicast":
            if len(cls.destinations) < 2 or cls.destinations == all_nodes:
                raise ConfigError(
                    f"{where}.destinations: multicast needs a proper subset of >= 2 nodes"
                )


@dataclass(frozen=True)
class ArrivalProcess:
    """Per-slot i.i.d. arrival model shared by all classes.

    bernoulli: 1 arrival w.p. rate (requires rate <= 1).
    binomial:  Binomial(trials, rate/trials), so the mean is the class rate.
    poisson:   mean = rate; unbounded, which breaks the bounded-arrivals
               assumption behind the sandwich diagnostic (flagged by
               effective_amax returning infinity).
    """

    kind: str = "bernoulli"
    trials: int = 1

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(f"kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if self.trials >= 2**63:
            raise ConfigError(f"trials must be below 2**63 (numpy's binomial limit), got {self.trials!r}")


def class_stream(master_seed: int, class_id: int) -> np.random.Generator:
    """Independent generator for one class, a pure function of (seed, class id)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(_CLASS_STREAM_TAG, class_id))
    return np.random.default_rng(seq)


def sweep_subseed(master_seed: int, run_index: int) -> int:
    """Deterministic per-run seed for load sweeps (fixed mixing of seed and index)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(_SWEEP_SEED_TAG, run_index))
    return int(seq.generate_state(1, np.uint64)[0])


def _draw(process: ArrivalProcess, rng: np.random.Generator, rate: float, size: int) -> np.ndarray:
    if process.kind == "bernoulli":
        if rate > 1.0:
            raise ConfigError(f"bernoulli arrivals need rate <= 1, got {rate}")
        return (rng.random(size) < rate).astype(np.int64)
    if process.kind == "binomial":
        p = rate / process.trials
        if p > 1.0:
            raise ConfigError(f"binomial({process.trials}) cannot reach mean {rate}")
        return rng.binomial(process.trials, p, size=size).astype(np.int64)
    try:
        draws = rng.poisson(rate, size=size)
    except ValueError as exc:  # numpy draws means up to about 9.2e18 only
        raise ConfigError(f"poisson arrivals cannot have mean {rate} (numpy: {exc})") from None
    return draws.astype(np.int64)


def arrival_table(
    classes: list[TrafficClass],
    process: ArrivalProcess,
    horizon: int,
    master_seed: int,
) -> np.ndarray:
    """Pregenerate all arrivals as an int64 array of shape (horizon, n_classes).

    Column order follows the classes list. Fully determined by
    (master_seed, class ids, process, horizon).
    """
    table = np.zeros((horizon, len(classes)), dtype=np.int64)
    for j, cls in enumerate(classes):
        table[:, j] = _draw(process, class_stream(master_seed, cls.id), cls.rate, size=horizon)
    return table


def effective_amax(classes: list[TrafficClass], process: ArrivalProcess) -> float:
    """Bound on total external arrivals in one slot; inf when the process is unbounded."""
    if process.kind == "bernoulli":
        return float(len(classes))
    if process.kind == "binomial":
        return float(process.trials * len(classes))
    return math.inf
