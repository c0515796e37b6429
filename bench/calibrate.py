"""Reference kernels that put host time on a steady scale.

The host this benchmark was built on shares its cores with other tenants.
For stretches of a quarter second to several minutes, code runs slower:
interpreted integer and container code about 1.45x, ``Fraction``
arithmetic about 1.72x. A run can fall wholly inside such a stretch, so no
statistic over one run's samples removes it.

Two fixed kernels slow down like the code they stand for: the integer
loop tracks the simulator (within 3% across the two host states), the
``Fraction`` loop tracks the exact LP oracle (within 1%). Every timed
operation is bracketed by its kernel, measured just before and after it.

An oracle solve takes tens of milliseconds, so the host state rarely flips
inside one: each solve is scaled by nominal / its own bracket. A
simulation run takes up to a second and the state can flip inside it, so
one bracket says little about it; simulation time is scaled by nominal /
the run's bracket times averaged with the simulations' host times as
weights, which tracks the run's average slowdown.

The nominal times are the kernels' times on the machine README.md
describes, when no other tenant was busy, so a scaled time reads as host
seconds there. The kernels live in the benchmark and never change with the
program, so a faster program still reads faster.
"""
from __future__ import annotations

import time
from fractions import Fraction

# Kernel times on the machine README.md describes, when no other tenant was busy.
LOOP_NOMINAL_S = 1.97e-3
FRACTION_NOMINAL_S = 2.47e-3


def loop_kernel() -> int:
    x = 0
    for i in range(30_000):
        x += i * i % 7
    return x


def fraction_kernel() -> Fraction:
    x = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(1, 400):
        acc += x * Fraction(i, i + 7) - Fraction(1, i + 1)
    return acc


def _timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def bracket(kernel, fn):
    """(fn(), its host seconds, mean kernel seconds just before and after it)."""
    before = _timed(kernel)
    t0 = time.perf_counter()
    out = fn()
    host_s = time.perf_counter() - t0
    return out, host_s, (before + _timed(kernel)) / 2


def weighted_scale(nominal_s: float, ops: list[tuple[float, float]]) -> float:
    """nominal / the bracket times of (host seconds, kernel seconds) pairs,
    averaged with the host seconds as weights."""
    total = sum(host for host, _ in ops)
    return nominal_s * total / sum(host * kernel for host, kernel in ops)


def loop_scale_now() -> float:
    """Loop scale from the median of three kernel runs, for one-off timings."""
    times = sorted(_timed(loop_kernel) for _ in range(3))
    return LOOP_NOMINAL_S / times[1]
