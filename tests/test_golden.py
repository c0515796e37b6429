"""Golden-output gate: SHA-256 of short fixed runs.

Each case hashes the exact CSV bytes of a run plus its summary JSON. The
summary's config echo and its cache statistics are left out, so options
and cache reports may change without moving a hash; everything the run
computes is covered. A refactor or speedup must leave every hash here
unchanged. When a change is meant to alter outputs, regenerate the pins
with ``python tests/test_golden.py`` and say why in the change log.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from umwsim.engine import SimulationConfig, load_config, run
from umwsim.traffic import ArrivalProcess, TrafficClass

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNHASHED_SUMMARY_KEYS = ("config", "route_cache")

BUILTINS = {
    "line3": dict(load_factor=0.9, arrival=ArrivalProcess("bernoulli"), seed=3),
    "grid3x3_broadcast": dict(load_factor=0.36, arrival=ArrivalProcess("binomial", 4), seed=5),
    "twinpath_unicast": dict(load_factor=0.5, arrival=ArrivalProcess("poisson"), seed=7),
}

# A directed file topology on which the cheapest in-arcs of a broadcast
# route often form a cycle (1->2->1, 2->3->2, 1->2->3->1), so its runs take
# both the arborescence solver's first-pass return and its contraction.
DIRECTED_NET = {
    "nodes": 4,
    "edges": [[0, 1], [1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [0, 3]],
    "directed": True,
    "activation": {"kind": "primary_interference"},
}

# The undirected 3x3 grid under primary interference, as in the CI file
# topology smoke. Back-pressure runs on it with its classes listed out of
# id order, so the pin covers a non-wired activation set and the class-id
# tie-break of its forwarding decisions.
GRID_NET = {
    "nodes": 9,
    "edges": [[0, 1], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4], [3, 6], [4, 5], [4, 7], [5, 8], [6, 7], [7, 8]],
    "activation": {"kind": "primary_interference"},
}


def _cases(tmp_dir: Path) -> dict[str, SimulationConfig]:
    cases = {}
    net = tmp_dir / "directed_net.json"
    net.write_text(json.dumps(DIRECTED_NET))
    broadcast = (TrafficClass(0, "broadcast", 0, frozenset(range(4)), 1.0),)
    grid = tmp_dir / "grid_net.json"
    grid.write_text(json.dumps(GRID_NET))
    unicast = (TrafficClass(5, "unicast", 0, frozenset({8}), 1.0),
               TrafficClass(2, "unicast", 2, frozenset({6}), 1.0))
    cases["grid_undirected-bp"] = SimulationConfig(
        topology=str(grid), horizon=2000, seed=1, policy="bp", load_factor=0.4, classes=unicast)
    for policy in ("umw", "umw-heuristic"):
        cases[f"directed_cycles-{policy}"] = SimulationConfig(
            topology=str(net), horizon=2000, seed=1, policy=policy, load_factor=0.3, classes=broadcast)
    for name, kw in BUILTINS.items():
        for policy in ("umw", "umw-heuristic"):
            cases[f"{name}-{policy}"] = SimulationConfig(topology=name, horizon=2000, policy=policy, **kw)
    cases["twinpath_unicast-bp"] = dataclasses.replace(cases["twinpath_unicast-umw"], policy="bp")
    mixed = load_config(CONFIGS / "mixed_kinds.json", horizon=1500, seed=11)
    mixed = dataclasses.replace(mixed, metrics=dataclasses.replace(mixed.metrics, diagnostics=True))
    cases["mixed_kinds-diagnostics"] = mixed
    cases["mixed_kinds-approx"] = dataclasses.replace(mixed, steiner_mode="approx")
    return cases


def output_digest(report, tmp_dir: Path) -> str:
    csv_path = tmp_dir / "run.csv"
    report.write_csv(csv_path)
    summary = {k: v for k, v in report.summary().items() if k not in UNHASHED_SUMMARY_KEYS}
    h = hashlib.sha256(csv_path.read_bytes())
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


GOLDEN = {
    "directed_cycles-umw": "8e225ad0b918f2d39a2b02bd4ee940a9318e8a5b53bbc79d678b723aabbcf668",
    "directed_cycles-umw-heuristic": "19f08575ddfb70a07415c66a37b6405e5e8958298b8c410ed501a7c3fd51164b",
    "grid3x3_broadcast-umw": "347995e2a6fe91e67fd4ac0459b5d2b95a7ca36189484105b88e88d35483b583",
    "grid3x3_broadcast-umw-heuristic": "5d60830a0e4e7eecf8d6fe28dc1197a36bc0a076a4cec137514e725e74eefc5c",
    "grid_undirected-bp": "732a0e989e0467ebde8bc215ebf05d64e0fccd113ae1dd50532594488ac09461",
    "line3-umw": "53524d8151423575db0f7defc1c84b7dded5c668fb4f4d46cb6078f615f97858",
    "line3-umw-heuristic": "c4ef4a882c2e7edf34fb50d9a32b844cea5029dcf51e50871326572fa6e59cb3",
    "mixed_kinds-approx": "8a0cad8ed72b2e8e5b2b86e8bafbd5c99f8b7e321a38d8ff8a302a7281d84b2d",
    "mixed_kinds-diagnostics": "8470b96592a3e644445587b4c16eac605d4be4a88e67754c5df5e5c09c6ab16a",
    "twinpath_unicast-bp": "f77881088853374a21fcee800696f7a1f7c3925e3a8372d400ad5c8002d7b22f",
    "twinpath_unicast-umw": "d5efdf1ce85a184f48de3c3d7782044963b9e37453ead31e75eaff1630ede464",
    "twinpath_unicast-umw-heuristic": "9b34fb592838a3dacc1a36a451dca651f08b83be7cf0c2d9a36468988f146993",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    assert output_digest(run(_cases(tmp_path)[name]), tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in sorted(_cases(Path(tmp)).items()):
            print(f'    "{name}": "{output_digest(run(cfg), Path(tmp))}",')
    sys.exit(0)
