"""Capacity-oracle instances: a fixed core set plus seeded random graphs.

Self-contained on purpose: the test helpers are not imported, so changing
them cannot change the benchmark's inputs. Every random choice comes from
a generator seeded by the workload seed, so a seed names the same
instances on every machine and every commit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from umwsim import engine, topology
from umwsim.topology import ActivationSet, Graph
from umwsim.traffic import TrafficClass

# (nodes, edges) of the random graphs, RANDOM_PER_SIZE of each. Sizes stop
# at 8 edges so that one pass over every instance takes a few seconds and a
# run repeats it several times; the 12-edge undirected grid of the core set
# stays the heaviest instance. (At 11-12 random edges one instance alone
# takes 2-3 s.)
RANDOM_SIZES = ((4, 5), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8))
RANDOM_PER_SIZE = 6
# The instances of one size are evenly spaced quantiles, by spanning-tree
# count, of DRAWS_PER_INSTANCE * RANDOM_PER_SIZE draws. The broadcast
# class's route catalogue is every spanning tree, so this count drives the
# LP's size; fixed quantiles keep one seed's set about as hard as another's
# while still spanning easy and hard graphs.
DRAWS_PER_INSTANCE = 9


@dataclass(frozen=True)
class OracleInstance:
    name: str
    graph: Graph
    aset: ActivationSet
    classes: tuple[TrafficClass, ...]
    rho_star: Fraction | None = None   # exact optimum when known for every seed


def _undirected_grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges))


def core_instances(root: Path) -> list[OracleInstance]:
    """The three builtins, the mixed-kinds classes, and the undirected 3x3
    grid broadcast under primary interference."""
    out = []
    for name, rho in (("line3", Fraction(1)), ("twinpath_unicast", Fraction(1)),
                      ("grid3x3_broadcast", Fraction(2, 5))):
        g, aset, classes = topology.builtin_topology(name)
        out.append(OracleInstance(name, g, aset, tuple(classes), rho))
    g, aset, classes = engine.load_config(root / "configs" / "mixed_kinds.json").resolve()
    out.append(OracleInstance("mixed_kinds", g, aset, tuple(classes),
                              Fraction("45035996273704960/23869078025063629")))
    g = _undirected_grid(3, 3)
    bc = TrafficClass(0, "broadcast", 0, frozenset(range(9)), 1.0)
    out.append(OracleInstance("grid3x3_undirected", g, topology.enumerate_matchings(g), (bc,),
                              Fraction(1, 2)))
    return out


def random_connected_graph(rng: np.random.Generator, n: int, m: int) -> Graph:
    """Connected undirected graph on n nodes with exactly m edges."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    present = set(edges)
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    picks = rng.permutation(len(spare))[: m - len(edges)]
    edges += [spare[i] for i in picks]
    order = rng.permutation(len(edges))
    return Graph(n, tuple(edges[i] for i in order))


def hop_distances(g: Graph, source: int) -> list[int]:
    """Breadth-first hop count from source to every node of a connected graph."""
    dist = [-1] * g.node_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for _, v in g.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def four_kind_classes(g: Graph) -> tuple[TrafficClass, ...]:
    """One unicast, broadcast, multicast and anycast class from node 0, as in
    acceptance criterion 9. The destinations are the nodes farthest from
    node 0 (ties to the higher id), so the classes follow from the graph
    and the seed's only say is the graph itself."""
    dist = hop_distances(g, 0)
    far = sorted(range(1, g.node_count), key=lambda v: (dist[v], v), reverse=True)
    pair = frozenset(far[:2])
    return (
        TrafficClass(0, "unicast", 0, frozenset(far[:1]), 1.0),
        TrafficClass(1, "broadcast", 0, frozenset(range(g.node_count)), 0.5),
        TrafficClass(2, "multicast", 0, pair, 0.5),
        TrafficClass(3, "anycast", 0, pair, 0.5),
    )


def spanning_tree_count(g: Graph) -> int:
    """Kirchhoff's matrix-tree theorem on the undirected graph."""
    lap = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return int(round(np.linalg.det(lap[1:, 1:])))


def random_instances(seed: int) -> list[OracleInstance]:
    """RANDOM_PER_SIZE instances per entry of RANDOM_SIZES, under primary
    interference, each carrying the four-kind class mix."""
    rng = np.random.default_rng(seed)
    out = []
    for n, m in RANDOM_SIZES:
        draws = [random_connected_graph(rng, n, m) for _ in range(DRAWS_PER_INSTANCE * RANDOM_PER_SIZE)]
        draws.sort(key=spanning_tree_count)
        for j in range(RANDOM_PER_SIZE):
            g = draws[(2 * j + 1) * len(draws) // (2 * RANDOM_PER_SIZE)]
            out.append(OracleInstance(f"random_{n}x{m}_{j}", g, topology.enumerate_matchings(g),
                                      four_kind_classes(g)))
    return out
