"""The benchmark's five workloads, run one pass at a time, with output checks.

Every pass follows the paper's experimental protocol: certify the testbed's
capacity with the exact oracle, then simulate at a fixed fraction of it.
The simulations of pass k take their seed from (workload seed, k), so no
two passes of a run repeat a simulation. The simulator workloads spend most
of a pass in simulation; ``capacity_oracle`` spends most of it in the
oracle and adds short spot simulations of the builtin testbeds.

Each operation (one simulation run or one oracle instance) is checked. A
run is hashed over its CSV bytes plus a fixed subset of its summary; the
hashes and the optima of the random instances are pinned for the default
seed in ``pinned.json``. For every seed: no violation counter may be
nonzero, the grid verdicts must match the load, ``compare`` must see
identical arrivals for every policy, every certificate must verify, and
every testbed's capacity must equal its known exact value.
"""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from umwsim import capacity, engine
from umwsim.engine import SimulationConfig
from umwsim.traffic import ArrivalProcess

import calibrate
from instances import OracleInstance, core_instances, random_instances

DEFAULT_SEED = 1
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())

# Summary keys covered by the run digest. The config echo is left out on
# purpose: options may be added to or removed from it without changing
# what a run computes.
SUMMARY_KEYS = ("throughput", "arrival_rate_empirical", "avg_total_queue",
                "final_total_queue", "mean_sojourn", "verdict", "violations")

WARMUP_PASS = 999_999   # pass index no measured pass reaches
WARMUP_HORIZON = 500


@dataclass(frozen=True)
class Spec:
    why: str
    min_passes: int              # passes made whatever the time limit
    horizon: int                 # slots per timed simulation run
    config: str = ""             # file under configs/; empty for capacity_oracle
    load: float | None = None    # load factor override
    diagnostics: bool = False
    policies: tuple[str, ...] = ()   # compare() over these when set
    verdict: str | None = None   # verdict the runs must reach
    # When set, the verdict is checked on one untimed run of this many slots
    # made before timing starts, instead of on every timed run: the
    # divergence test needs a long run to be reliable.
    verdict_horizon: int | None = None
    rho_star: Fraction | None = None  # exact capacity of the testbed


SPECS: dict[str, Spec] = {
    "grid_broadcast": Spec(
        "stable broadcast on the 3x3 grid at 0.9 of capacity; most route solves repeat a weight vector",
        min_passes=5, horizon=5_000, config="grid3x3_broadcast.json", load=0.36,
        verdict="stable", rho_star=Fraction(2, 5)),
    "grid_overload": Spec(
        "same grid at 1.1 of capacity; queues diverge and nearly every weight vector is new",
        min_passes=5, horizon=10_000, config="grid3x3_broadcast.json", load=0.44,
        verdict="diverging", verdict_horizon=60_000, rho_star=Fraction(2, 5)),
    "mixed_kinds": Spec(
        "all four flow kinds with diagnostics on; the only Steiner-exact and anycast routing",
        min_passes=5, horizon=2_000, config="mixed_kinds.json", diagnostics=True,
        rho_star=Fraction("45035996273704960/23869078025063629")),
    "twinpath_compare": Spec(
        "UMW, heuristic and back-pressure on identical arrivals; the only back-pressure runs",
        min_passes=5, horizon=2_000, config="twinpath_compare.json",
        policies=("umw", "umw-heuristic", "bp"), rho_star=Fraction(1)),
    "capacity_oracle": Spec(
        "exact LP capacity oracle on builtins and seeded random graphs; the only LP-dominated one",
        min_passes=2, horizon=3_000),
}


@dataclass
class PassResult:
    """One pass. Times leave out the calibration kernels that bracket each
    operation (see calibrate.py)."""

    host_s: float = 0.0          # every operation, unscaled
    oracle_s: float = 0.0        # oracle operations, each scaled by its bracket
    oracle: list[tuple[str, float]] = field(default_factory=list)  # (instance, scaled s)
    sim_op_s: float = 0.0        # simulation operations with digests and checks, unscaled
    sim_s: float = 0.0           # simulation calls only, unscaled
    sim_ops: list[tuple[float, float]] = field(default_factory=list)  # (host s, loop kernel s)
    slots: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def pass_seed(seed: int, k: int) -> int:
    return seed * 100_003 + k


def run_digest(report) -> str:
    """SHA-256 (first 16 hex digits) of the CSV bytes plus SUMMARY_KEYS of the summary."""
    h = hashlib.sha256()
    for row in report.csv_rows():
        h.update((",".join(row) + "\n").encode())
    summary = report.summary()
    h.update(json.dumps({k: summary[k] for k in SUMMARY_KEYS}, sort_keys=True).encode())
    return h.hexdigest()[:16]


class Workload:
    """Set-up state of one workload plus its pass runner.

    A pass solves every oracle instance, then makes the simulation runs.
    ``capacity_oracle`` solves the same instance set in every pass; its
    spot simulations, like the simulator workloads' runs, take a fresh
    seed per pass.
    """

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        self.spec = spec = SPECS[name]
        self.horizon = spec.horizon
        self.pins: dict = PINNED.get(name, {}) if seed == DEFAULT_SEED else {}
        if name == "capacity_oracle":
            core = core_instances(root)
            self.instances = core + random_instances(seed)
            self.base_configs = [
                SimulationConfig(topology=inst.name, horizon=spec.horizon,
                                 arrival=ArrivalProcess("binomial", 4),
                                 load_factor=0.9 * float(inst.rho_star))
                for inst in core[:3]
            ]
        else:
            cfg = engine.load_config(root / "configs" / spec.config)
            if spec.load is not None:
                cfg = replace(cfg, load_factor=spec.load)
            if spec.diagnostics:
                cfg = replace(cfg, metrics=replace(cfg.metrics, diagnostics=True))
            g, aset, classes = replace(cfg, load_factor=1.0).resolve()
            self.instances = [OracleInstance(cfg.topology, g, aset, tuple(classes), spec.rho_star)]
            self.base_configs = [cfg]

    def sim_configs(self, k: int, horizon: int | None = None) -> list[SimulationConfig]:
        return [replace(c, seed=pass_seed(self.seed, k), horizon=horizon or self.horizon)
                for c in self.base_configs]

    def warmup(self) -> PassResult:
        """Untimed: one oracle solve and one run, so lazy set-up is not timed.
        The run is the long verdict run when the spec asks for one."""
        res = PassResult()
        self._oracle_op(self.instances[0], res)
        horizon = self.spec.verdict_horizon or WARMUP_HORIZON
        cfg = self.sim_configs(WARMUP_PASS, horizon)[0]
        self._sim_op(cfg, self.pins.get("warmup"), res, self.spec.verdict_horizon is not None)
        return res

    def run_pass(self, k: int) -> PassResult:
        res = PassResult()
        passes = self.pins.get("passes", [])
        pins = passes[k] if k < len(passes) else None
        for inst in self.instances:
            self._oracle_op(inst, res)
        for cfg in self.sim_configs(k):
            self._sim_op(cfg, pins, res, self.spec.verdict_horizon is None)
        return res

    # -- operations --------------------------------------------------------

    def _fail(self, res: PassResult, op: str, why: str) -> None:
        res.failures.append(f"{self.name} {op}: {why}")

    def _oracle_op(self, inst: OracleInstance, res: PassResult) -> None:
        op = f"oracle:{inst.name}"
        res.attempted += 1
        classes = list(inst.classes)

        def solve():
            cert = capacity.max_scaling(inst.graph, inst.aset, classes)
            return cert, capacity.verify_certificate(cert, inst.graph, inst.aset, classes)
        try:
            (cert, ok), host_s, kernel_s = calibrate.bracket(calibrate.fraction_kernel, solve)
        except Exception:  # one failed operation must not end the run
            self._fail(res, op, traceback.format_exc())
            return
        scaled_s = host_s * calibrate.FRACTION_NOMINAL_S / kernel_s
        res.oracle.append((inst.name, scaled_s))
        res.oracle_s += scaled_s
        res.host_s += host_s
        rho = str(cert.rho_star)
        res.digests[op] = rho
        expected = str(inst.rho_star) if inst.rho_star is not None else self.pins.get("oracle", {}).get(op)
        if not ok:
            self._fail(res, op, "certificate does not verify")
        elif cert.rho_star <= 0:
            self._fail(res, op, f"rho* {rho} is not positive")
        elif expected is not None and rho != expected:
            self._fail(res, op, f"rho* {rho}, expected {expected}")

    def _sim_op(self, cfg: SimulationConfig, pins, res: PassResult, check_verdict: bool) -> None:
        policies = self.spec.policies or (cfg.policy,)
        res.attempted += len(policies)

        def simulate():
            t0 = time.perf_counter()
            if self.spec.policies:
                reports = engine.compare(cfg, list(policies))
            else:
                reports = {cfg.policy: engine.run(cfg)}
            run_s = time.perf_counter() - t0
            return reports, run_s, {p: run_digest(rep) for p, rep in reports.items()}
        try:
            (reports, run_s, digests), host_s, kernel_s = calibrate.bracket(calibrate.loop_kernel, simulate)
        except Exception:  # one failed operation must not end the run
            for policy in policies:
                self._fail(res, f"sim:{cfg.topology}:{policy}", traceback.format_exc())
            return
        res.sim_ops.append((host_s, kernel_s))
        res.sim_s += run_s
        res.sim_op_s += host_s
        res.host_s += host_s
        res.slots += cfg.horizon * len(reports)
        arrivals = {p: rep.arrivals_per_class.tolist() for p, rep in reports.items()}
        for policy, rep in reports.items():
            op = f"sim:{cfg.topology}:{policy}"
            digest = digests[policy]
            res.digests[op] = digest
            verdict = rep.verdict()
            if any(rep.violations.values()):
                self._fail(res, op, f"violations {rep.violations}")
            elif check_verdict and self.spec.verdict and verdict != self.spec.verdict:
                self._fail(res, op, f"verdict {verdict}, expected {self.spec.verdict}")
            elif arrivals[policy] != next(iter(arrivals.values())):
                self._fail(res, op, "policies saw different arrivals")
            elif pins is not None and pins.get(op) != digest:
                self._fail(res, op, f"digest {digest}, pinned {pins.get(op)}")
