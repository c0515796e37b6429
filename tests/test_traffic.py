import math
import re
from fractions import Fraction

import numpy as np
import pytest

from umwsim.errors import ConfigError
from umwsim.traffic import (
    ArrivalProcess,
    TrafficClass,
    _is_int,
    arrival_table,
    effective_amax,
    sweep_subseed,
    validate_classes,
)


def _cls(cid=0, kind="unicast", source=0, dests=(1,), rate=0.5):
    return TrafficClass(cid, kind, source, frozenset(dests), rate)


def test_zero_rate_never_arrives():
    table = arrival_table([_cls(rate=0.0)], ArrivalProcess("bernoulli"), 5000, 1)
    assert table.sum() == 0


def test_bernoulli_rate_one_always_arrives():
    table = arrival_table([_cls(rate=1.0)], ArrivalProcess("bernoulli"), 5000, 1)
    assert (table == 1).all()


def test_bernoulli_rate_above_one_rejected():
    with pytest.raises(ConfigError):
        arrival_table([_cls(rate=1.5)], ArrivalProcess("bernoulli"), 10, 1)


def test_binomial_rate_beyond_trials_rejected():
    with pytest.raises(ConfigError):
        arrival_table([_cls(rate=3.0)], ArrivalProcess("binomial", trials=2), 10, 1)


@pytest.mark.parametrize(
    "process,rate",
    [
        (ArrivalProcess("bernoulli"), 0.37),
        (ArrivalProcess("binomial", trials=4), 1.3),
        (ArrivalProcess("poisson"), 2.1),
    ],
)
def test_empirical_mean_within_one_percent(process, rate):
    table = arrival_table([_cls(rate=rate)], process, 10**6, 12345)
    assert abs(table.mean() - rate) / rate < 0.01


def test_effective_amax():
    bern = [_cls(0), _cls(1, dests=(2,), source=1)]
    assert effective_amax(bern, ArrivalProcess("bernoulli")) == 2
    assert effective_amax([_cls(0)], ArrivalProcess("binomial", trials=4)) == 4
    assert effective_amax([_cls(0)], ArrivalProcess("poisson")) == math.inf


def test_reproducibility_bit_for_bit():
    classes = [_cls(0, rate=0.4), _cls(1, source=1, dests=(0,), rate=0.7)]
    p = ArrivalProcess("binomial", trials=3)
    t1 = arrival_table(classes, p, 2000, 9)
    t2 = arrival_table(classes, p, 2000, 9)
    assert np.array_equal(t1, t2)
    t3 = arrival_table(classes, p, 2000, 10)
    assert not np.array_equal(t1, t3)


def test_cross_class_streams_differ():
    classes = [_cls(0, rate=0.5), _cls(1, source=1, dests=(0,), rate=0.5)]
    table = arrival_table(classes, ArrivalProcess("bernoulli"), 500, 3)
    assert not np.array_equal(table[:, 0], table[:, 1])


def test_sweep_subseed_deterministic():
    assert sweep_subseed(5, 0) == sweep_subseed(5, 0)
    assert sweep_subseed(5, 0) != sweep_subseed(5, 1)
    assert sweep_subseed(5, 0) != sweep_subseed(6, 0)


def test_class_shape_validation():
    with pytest.raises(ConfigError):
        TrafficClass(0, "unicast", 0, frozenset({1, 2}), 1.0)
    with pytest.raises(ConfigError):
        TrafficClass(0, "unicast", 0, frozenset(), 1.0)
    with pytest.raises(ConfigError):
        TrafficClass(0, "warpcast", 0, frozenset({1}), 1.0)
    with pytest.raises(ConfigError):
        TrafficClass(0, "unicast", 0, frozenset({1}), -0.5)


@pytest.mark.parametrize("kwargs, message", [
    (dict(dests=(2.7,)), "destinations[0] must be an integer, got 2.7"),
    (dict(cid=0.0), "id must be an integer, got 0.0"),
    (dict(cid=True), "id must be an integer, got True"),
    (dict(source=1.0), "source must be an integer, got 1.0"),
    (dict(source=False), "source must be an integer, got False"),
], ids=["float_destination", "float_id", "bool_id", "float_source", "bool_source"])
def test_class_built_in_python_checks_its_integers(kwargs, message):
    # A float destination used to be truncated: 2.7 routed to node 2.
    with pytest.raises(ConfigError, match=re.escape(message)):
        _cls(**kwargs)


def test_arrival_trials_must_be_an_integer():
    # trials=2.5 used to pass its check, and a run with it completed.
    for bad in (2.5, True, "2"):
        with pytest.raises(ConfigError, match="trials must be an integer"):
            ArrivalProcess("binomial", trials=bad)
    with pytest.raises(ConfigError, match="trials"):
        ArrivalProcess("binomial", trials=0)


@pytest.mark.parametrize("kind", ["bernoulli", "binomial", "poisson"])
@pytest.mark.parametrize("trials", [0, -7])
def test_arrival_trials_below_one_rejected_for_every_kind(kind, trials):
    # Only binomial reads trials, but a bernoulli process with trials -7
    # used to run and echo -7 in its summary.
    with pytest.raises(ConfigError, match=re.escape(f"trials must be an integer >= 1, got {trials}")):
        ArrivalProcess(kind, trials=trials)


def test_integer_rate_reads_as_float():
    assert type(_cls(rate=1).rate) is float


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_rejected(rate):
    with pytest.raises(ConfigError, match="rate must be finite"):
        _cls(rate=rate)
    with pytest.raises(ConfigError, match="rate must be finite"):
        _cls(rate=1.0).scaled(rate)


def test_validate_classes_against_graph():
    ok = [
        TrafficClass(0, "broadcast", 0, frozenset({0, 1, 2}), 1.0),
        TrafficClass(1, "multicast", 0, frozenset({1, 2}), 1.0),
    ]
    validate_classes(ok, 3)
    with pytest.raises(ConfigError):
        validate_classes([TrafficClass(0, "broadcast", 0, frozenset({0, 1}), 1.0)], 3)
    with pytest.raises(ConfigError):
        validate_classes([TrafficClass(0, "multicast", 0, frozenset({1, 2, 0}), 1.0)], 3)
    with pytest.raises(ConfigError):
        validate_classes([TrafficClass(0, "multicast", 0, frozenset({1}), 1.0)], 3)
    with pytest.raises(ConfigError):
        validate_classes([TrafficClass(0, "unicast", 5, frozenset({1}), 1.0)], 3)
    with pytest.raises(ConfigError):
        validate_classes([_cls(0), _cls(0)], 3)


def test_scaled():
    cls = _cls(rate=2.0)
    assert cls.scaled(0.45).rate == 0.9
    assert cls.scaled(0.45).destinations == cls.destinations


class _Int(int):
    pass


@pytest.mark.parametrize("value, expected", [
    (1, True),
    (-7, True),
    (True, False),   # JSON true and false are not numbers
    (False, False),
    (np.int64(1), True),
    (1.0, False),
    (Fraction(1), False),
    (_Int(1), True),
], ids=["int", "negative_int", "true", "false", "np_int64", "float", "fraction", "int_subclass"])
def test_is_int_truth_table(value, expected):
    assert _is_int(value) is expected
