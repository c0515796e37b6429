"""The engine's virtual-queue diagnostics against the per-slot reference.

Both checkers see the same (A, mu, q_after, total_external) sequence, the
engine's with A as a deposit, and must end with the same
skorokhod/sandwich/loading counts. The sequences plant corrupted q_after
values, so most counts are nonzero and every check is exercised on both
its passing and its failing side.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import SlotDiagnosticState
from umwsim.engine import BLOCK, _DiagnosticState

ARRIVALS = ("bernoulli", "binomial", "poisson")


def _slots(rng, m, horizon, kind, corrupt_p):
    """(amax_bound, slot inputs): class arrivals routed over random edge
    subsets, the true Lindley state, and q_after corrupted with
    probability corrupt_p per slot."""
    n_classes = int(rng.integers(1, 4))
    trials = int(rng.integers(1, 4))
    amax_bound = {"bernoulli": float(n_classes), "binomial": float(trials * n_classes),
                  "poisson": math.inf}[kind]
    rate = rng.uniform(0.2, 0.9)
    if kind == "bernoulli":
        counts = rng.random((horizon, n_classes)) < rate
    elif kind == "binomial":
        counts = rng.binomial(trials, rate / trials, (horizon, n_classes))
    else:
        counts = rng.poisson(rate, (horizon, n_classes))
    counts = counts.astype(np.int64)
    routes = rng.random((horizon, n_classes, m)) < 0.5
    arrivals = (counts[:, :, None] * routes).sum(axis=1)
    service = (rng.random((horizon, m)) < 0.6).astype(np.int64)
    corrupt = rng.random(horizon) < corrupt_p
    q = np.zeros(m, dtype=np.int64)
    out = []
    for t in range(horizon):
        A, mu = arrivals[t], service[t]
        q = np.maximum(q + A - mu, 0)
        reported = q.copy()
        if corrupt[t]:
            e = int(rng.integers(m))
            mode = int(rng.integers(4))
            if mode == 0:
                reported[e] += int(rng.integers(1, 6))
            elif mode == 1:
                reported[e] -= int(rng.integers(1, 6))
            elif mode == 2:
                reported //= 2
            else:
                reported[:] = 0
        out.append((A, mu, reported, int(counts[t].sum())))
    return amax_bound, out


def _counts(make, m, amax_bound, horizon, slots, sparse=False):
    """The checker's counts. With sparse, each slot's arrivals come as the
    deposit lindley_update takes: every edge with arrivals at count 1,
    then for each a > 1 the edges with a arrivals at count a - 1, so the
    pairs overlap and each edge's counts sum to its arrivals."""
    checker = make(m, amax_bound, horizon)
    # The checker must copy what it is given: feed q_after and a dense A
    # through one reused buffer each, which the next slot overwrites.
    A_live = np.zeros(m, dtype=np.int64)
    q_live = np.zeros(m, dtype=np.int64)
    for A, mu, reported, total_external in slots:
        A_live[:] = A
        q_live[:] = reported
        if sparse:
            arrivals = [(np.flatnonzero(A).tolist(), 1)]
            arrivals += [(np.flatnonzero(A == a).tolist(), a - 1) for a in set(A.tolist()) - {0, 1}]
        else:
            arrivals = A_live
        checker.step(arrivals, mu, q_live, total_external)
    return checker.violations


def _reference(m, amax_bound, horizon):
    return SlotDiagnosticState(m, amax_bound)


def _assert_same(seed, m, horizon, kind, corrupt_p):
    rng = np.random.default_rng(seed)
    amax_bound, slots = _slots(rng, m, horizon, kind, corrupt_p)
    expected = _counts(_reference, m, amax_bound, horizon, slots)
    assert _counts(_DiagnosticState, m, amax_bound, horizon, slots, sparse=True) == expected
    return expected


@pytest.mark.parametrize("kind", ARRIVALS)
@pytest.mark.parametrize("horizon", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 37])
def test_block_horizons_match_reference(horizon, kind):
    totals = dict(skorokhod=0, sandwich=0, loading=0)
    for i, m in enumerate((1, 2, 5)):
        got = _assert_same(1000 * horizon + 10 * ARRIVALS.index(kind) + i, m, horizon, kind, 0.3)
        for key in totals:
            totals[key] += got[key]
    if horizon > 1:
        assert totals["skorokhod"] > 0 and totals["sandwich"] > 0


def test_random_sequences_match_reference():
    rng = np.random.default_rng(8)
    nonzero = dict(skorokhod=0, sandwich=0, loading=0)
    for trial in range(120):
        m = int(rng.integers(1, 7))
        horizon = int(rng.integers(1, 901))
        kind = ARRIVALS[trial % 3]
        corrupt_p = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
        got = _assert_same(trial, m, horizon, kind, corrupt_p)
        for key in nonzero:
            nonzero[key] += got[key] > 0
    # Most trials fail some check, and every check fails in many trials.
    assert min(nonzero.values()) >= 20


def test_clean_sequences_count_nothing():
    for kind in ARRIVALS:
        assert _assert_same(5, 3, 2 * BLOCK + 9, kind, 0.0) == dict(skorokhod=0, sandwich=0, loading=0)
