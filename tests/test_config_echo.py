"""Config echo pins: the exact JSON a summary's ``config`` block holds.

The golden hashes in test_golden.py leave the echo out, so these pins are
what holds it still. Each case pins ``json.dumps(cfg.echo(), sort_keys=True)``
and checks that the echo parses back to the same config.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from umwsim.engine import config_from_dict, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Every setting away from its default, classes included, with destinations
# listed out of order (the echo sorts them).
EVERY_OPTION = {
    "topology": "line3", "horizon": 77, "seed": 5, "policy": "umw-heuristic",
    "arrival": {"kind": "binomial", "trials": 3}, "load_factor": 0.25, "steiner_mode": "approx",
    "metrics": {"diagnostics": True},
    "classes": [
        {"id": 4, "kind": "multicast", "source": 0, "destinations": [2, 1], "rate": 0.5},
        {"id": 1, "kind": "unicast", "source": 2, "destinations": [0], "rate": 0.125},
    ],
}

_DEFAULT_METRICS = '"metrics": {"diagnostics": false}'

ECHOES = {
    "grid3x3_broadcast": (
        '{"arrival": {"kind": "binomial", "trials": 4}, "horizon": 30000, "load_factor": 0.36, '
        + _DEFAULT_METRICS
        + ', "policy": "umw", "seed": 42, "steiner_mode": "exact", "topology": "grid3x3_broadcast"}'
    ),
    "mixed_kinds": (
        '{"arrival": {"kind": "binomial", "trials": 2}, "classes": ['
        '{"destinations": [3], "id": 0, "kind": "unicast", "rate": 0.4, "source": 0}, '
        '{"destinations": [0, 1, 2, 3, 4, 5, 6, 7], "id": 1, "kind": "broadcast", "rate": 0.15, "source": 6}, '
        '{"destinations": [0, 7], "id": 2, "kind": "multicast", "rate": 0.25, "source": 4}, '
        '{"destinations": [5, 6], "id": 3, "kind": "anycast", "rate": 0.25, "source": 2}], '
        '"horizon": 10000, "load_factor": 1.0, '
        + _DEFAULT_METRICS
        + ', "policy": "umw", "seed": 10, "steiner_mode": "exact", "topology": "twinpath_unicast"}'
    ),
    "twinpath_compare": (
        '{"arrival": {"kind": "poisson", "trials": 1}, "horizon": 20000, "load_factor": 0.5, '
        + _DEFAULT_METRICS
        + ', "policy": "umw", "seed": 1, "steiner_mode": "exact", "topology": "twinpath_unicast"}'
    ),
    "every_option": (
        '{"arrival": {"kind": "binomial", "trials": 3}, "classes": ['
        '{"destinations": [1, 2], "id": 4, "kind": "multicast", "rate": 0.5, "source": 0}, '
        '{"destinations": [0], "id": 1, "kind": "unicast", "rate": 0.125, "source": 2}], '
        '"horizon": 77, "load_factor": 0.25, "metrics": {"diagnostics": true}, '
        '"policy": "umw-heuristic", "seed": 5, "steiner_mode": "approx", "topology": "line3"}'
    ),
}


def _config(name):
    if name == "every_option":
        return config_from_dict(EVERY_OPTION)
    return load_config(CONFIGS / f"{name}.json")


@pytest.mark.parametrize("name", sorted(ECHOES))
def test_echo_pinned_and_round_trips(name):
    cfg = _config(name)
    assert json.dumps(cfg.echo(), sort_keys=True) == ECHOES[name]
    assert config_from_dict(cfg.echo()) == cfg
