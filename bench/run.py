"""umwsim benchmark: run one workload, check its outputs, report its metrics.

    python3 bench/run.py --workload grid_broadcast --seed 1 --seconds 20 --trace 0

Runs one workload from the source tree this file sits in (``src/umwsim``),
checks every output, and prints as its last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from the outside-in tracer, plus the tracing
overhead. The line before it is a JSON record of the machine and of the
samples behind the metrics. See README.md in this directory.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here, before umwsim is imported

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid_broadcast", "grid_overload", "mixed_kinds", "twinpath_compare",
                  "capacity_oracle")
SETUP_PROBES = 4          # fresh interpreters timed for setup_s, besides this process
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10          # the tail is the highest sample with this many beyond it


def tail(values):
    """(value, percentile, n): the highest order statistic with at least
    TAIL_BEYOND samples above it. With too few samples for that, the
    maximum, at percentile 100."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    idx = n - TAIL_BEYOND - 1
    return s[idx], 100.0 * (idx + 1) / n, n


def machine_record() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Scaled set-up time of fresh interpreters, each importing umwsim from scratch."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def oracle_samples(passes) -> list[float]:
    """One scaled time per oracle instance: the median of its solves, which
    drops a solve the host state flipped in the middle of.

    Every pass solves the same instances, so the sample count, and hence
    the tail's percentile, does not depend on how many passes ran."""
    per_instance: dict[str, list[float]] = {}
    for res in passes:
        for name, secs in res.oracle:
            per_instance.setdefault(name, []).append(secs)
    return [median(v) for v in per_instance.values()]


def run_passes(wl, seconds: float, tracer=None):
    """At least min_passes passes, then more while another one is expected
    to end within `seconds`.

    With a tracer, every pass runs twice on the same inputs, untraced and
    then traced, and the two must produce identical outputs."""
    plain, traced, layer_stats = [], [], []
    steps = []
    start = time.perf_counter()
    k = 0
    while k < wl.spec.min_passes or time.perf_counter() - start + median(steps) <= seconds:
        step_start = time.perf_counter()
        plain.append(wl.run_pass(k))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(wl.run_pass(k))
            finally:
                tracer.uninstall()
            layer_stats.append(tracer.pass_stats())
            for op, digest in plain[-1].digests.items():
                if traced[-1].digests.get(op) != digest:
                    traced[-1].failures.append(f"{wl.name} {op}: traced output differs")
        steps.append(time.perf_counter() - step_start)
        k += 1
    return plain, traced, layer_stats


def end_to_end_metrics(passes, setup_samples) -> dict:
    """Scaled host times (see calibrate.py). Simulation time is scaled by
    the run's average slowdown, which fits the run's mean, so slots_per_s
    and wall_s are means over passes; oracle solves are scaled one by one."""
    loop_scale = sim_scale(passes)
    samples = oracle_samples(passes)
    walls = [p.oracle_s + p.sim_op_s * loop_scale for p in passes]
    return {
        "slots_per_s": (sum(p.slots for p in passes) / (loop_scale * sum(p.sim_s for p in passes)), "1/s"),
        "wall_s": (sum(walls) / len(walls), "s"),
        "oracle_ms_p50": (median(samples) * 1000, "ms"),
        "oracle_ms_tail": (tail(samples)[0] * 1000, "ms"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def sim_scale(passes) -> float:
    return calibrate.weighted_scale(calibrate.LOOP_NOMINAL_S, [op for p in passes for op in p.sim_ops])


def host_time(passes) -> float:
    return sum(p.host_s for p in passes)


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def per_layer_metrics(plain, traced, layer_stats) -> dict:
    """Counts from the first traced pass, which repeat exactly for a seed;
    self times as the median over traced passes."""
    out = {}
    for name, value in layer_stats[0].items():
        if name.endswith(".self_s"):
            value = median([s[name] for s in layer_stats])
        out[name] = (value, layer_unit(name))
    overhead = host_time(traced) / host_time(plain) - 1
    out["trace_overhead_frac"] = (overhead, "frac")
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "umwsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no umwsim source tree at {SRC} (with configs/ beside it)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import umwsim
    if Path(umwsim.__file__).resolve().parent != (SRC / "umwsim").resolve():
        print(f"error: imported umwsim from {umwsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import Workload

    wl = Workload(args.workload, args.seed, ROOT)
    setup_here = (time.perf_counter() - T0) * calibrate.loop_scale_now()
    if args.setup_probe:
        print(setup_here)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "machine": machine_record()}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        warm = wl.warmup()
        plain, traced, layer_stats = run_passes(wl, args.seconds, tracer)
        all_passes = [warm] + plain + traced
        metrics = per_layer_metrics(plain, traced, layer_stats)
        record["unhooked"] = tracer.unhooked
    else:
        setup_samples = [setup_here] + setup_probe_times(args.workload, args.seed)
        warm = wl.warmup()
        plain, _, _ = run_passes(wl, args.seconds)
        all_passes = [warm] + plain
        metrics = end_to_end_metrics(plain, setup_samples)
        samples = oracle_samples(plain)
        record.update(setup_samples_s=setup_samples, oracle_instances=len(samples),
                      oracle_tail_percentile=tail(samples)[1], sim_scale=sim_scale(plain),
                      host_pass_s=host_time(plain) / len(plain))

    failures = [f for p in all_passes for f in p.failures]
    for f in failures:
        print(f, file=sys.stderr)
    attempted = sum(p.attempted for p in all_passes)
    record["passes"] = len(plain)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
