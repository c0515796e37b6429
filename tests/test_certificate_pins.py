"""Certificate pins: SHA-256 of the capacity certificates of fixed instances.

Each case hashes ``CapacityCertificate.to_json_dict()`` of one exact
capacity program: the flow split and the activation mixture the simplex
lands on, not only rho*. Two optimal vertices with the same rho* hash
differently, so a change to the LP solver that keeps rho* but moves its
pivot sequence fails here. The instances are the five core testbeds of
the benchmark's oracle workload, rebuilt here so the tests do not import
``bench/``, plus seeded random graphs carrying the four class kinds of
acceptance criterion 9. When a change is meant to alter a certificate,
regenerate the pins with ``python tests/test_certificate_pins.py`` and
say why in the change log.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_connected_graph
from umwsim.capacity import max_scaling, verify_certificate
from umwsim.engine import load_config
from umwsim.topology import Graph, builtin_topology, enumerate_matchings
from umwsim.traffic import TrafficClass

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RANDOM_SEEDS = (1, 2, 3, 4, 5, 6)


def _undirected_grid3x3() -> Graph:
    edges = []
    for v in range(9):
        if v % 3 < 2:
            edges.append((v, v + 1))
        if v < 6:
            edges.append((v, v + 3))
    return Graph(9, tuple(edges))


def _random_instance(seed: int):
    """A connected graph of at most 8 edges under primary interference, with
    the unicast/broadcast/multicast/anycast classes of criterion 9 at
    unequal rates (so the rate rows carry fractions)."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, max_edges=8)
    n = g.node_count
    classes = [
        TrafficClass(0, "unicast", 0, frozenset({int(rng.integers(1, n))}), 1.0),
        TrafficClass(1, "broadcast", 0, frozenset(range(n)), 0.5),
    ]
    if n >= 4:
        dests = frozenset(int(x) for x in rng.choice(np.arange(1, n), size=2, replace=False))
        classes.append(TrafficClass(2, "multicast", 0, dests, 0.25))
        classes.append(TrafficClass(3, "anycast", 0, dests, 0.75))
    return g, enumerate_matchings(g), classes


def _instances() -> dict:
    cases = {name: builtin_topology(name)
             for name in ("line3", "twinpath_unicast", "grid3x3_broadcast")}
    cases["mixed_kinds"] = load_config(CONFIGS / "mixed_kinds.json").resolve()
    g = _undirected_grid3x3()
    bc = TrafficClass(0, "broadcast", 0, frozenset(range(9)), 1.0)
    cases["grid3x3_undirected"] = (g, enumerate_matchings(g), [bc])
    for seed in RANDOM_SEEDS:
        cases[f"random_seed{seed}"] = _random_instance(seed)
    return cases


def certificate_digest(cert) -> str:
    return hashlib.sha256(json.dumps(cert.to_json_dict(), sort_keys=True).encode()).hexdigest()


PINS = {
    "grid3x3_broadcast": "3dd2ea3ec4aafedd513195cd52ff19a88133a1ac0279c7f164803477e758f29d",  # rho* = 2/5
    "grid3x3_undirected": "dedb5401836a3b0efd827359259f12a0ce5102aac69c7d8f22e69bc8e76f3f2e",  # rho* = 1/2
    "line3": "ce43677b3efddee864a981d3bda0519444a8a78d68986a1afb4abd4294a4e431",  # rho* = 1
    "mixed_kinds": "4b71cba30b7ab0ff412474d28d437b04116c2cf7f8a2b73668ca28775f7f65eb",  # rho* = 45035996273704960/23869078025063629
    "random_seed1": "03342bacc55bd79e0a5a7ffd78a2bf2c673199b2ec6ea081dbda47c22927e932",  # rho* = 2/5
    "random_seed2": "fece7273f77b05b64f348d0e3ec421749af0e0f16ea1e5ed78b43a0824dfc91e",  # rho* = 4/15
    "random_seed3": "b3946ae0ef37e21f41c038a3a11c6c290d2b61d01d2d30c96787b3c6e273c214",  # rho* = 1/3
    "random_seed4": "eec70210b0391bd85d3393fcbffe1ea40996ccbfcea430bd8de50740b5f50d45",  # rho* = 10/33
    "random_seed5": "1f663eca123471fe3e60b6c04ea9b50930387d1e3da86ff27bc11ad4ff648fe7",  # rho* = 4/11
    "random_seed6": "9ebe0e5c577bb6603e8249863b505bb145c90924e7d649f168c10dbb08cd79a8",  # rho* = 2/5
    "twinpath_unicast": "94577306f361ecee15bf644189d5c4ee28e6c01924a68f7153189b20ec22a07a",  # rho* = 1
}


@pytest.mark.parametrize("name", sorted(_instances()))
def test_certificate_pin(name):
    g, aset, classes = _instances()[name]
    cert = max_scaling(g, aset, classes)
    assert verify_certificate(cert, g, aset, classes)
    assert certificate_digest(cert) == PINS[name]


if __name__ == "__main__":
    for name, (g, aset, classes) in sorted(_instances().items()):
        cert = max_scaling(g, aset, classes)
        print(f'    "{name}": "{certificate_digest(cert)}",  # rho* = {cert.rho_star}')
    sys.exit(0)
