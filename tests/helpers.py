"""Shared test utilities: random graph generation and brute-force oracles.

The brute-force routines here (and the subset enumeration in
umwsim.capacity) are the independent references the solvers are checked
against; they never call the code paths under test.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from umwsim.topology import Graph


def random_connected_graph(rng: np.random.Generator, max_edges: int = 12) -> Graph:
    """Random connected undirected graph with at most max_edges edges."""
    n = int(rng.integers(2, 8))
    edges: list[tuple[int, int]] = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v))
        seen.add((u, v))
    extra = int(rng.integers(0, max_edges - len(edges) + 1))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in seen
    ]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra])
    order = rng.permutation(len(edges))
    return Graph(n, tuple(edges[i] for i in order))


def random_rooted_digraph(rng: np.random.Generator, max_edges: int = 12) -> tuple[Graph, int]:
    """Random digraph in which every node is reachable from node 0."""
    n = int(rng.integers(2, 7))
    arcs: list[tuple[int, int]] = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        arcs.append((u, v))
        seen.add((u, v))
    candidates = [
        (u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in seen
    ]
    rng.shuffle(candidates)
    extra = int(rng.integers(0, max(max_edges - len(arcs), 0) + 1))
    arcs.extend(candidates[:extra])
    order = rng.permutation(len(arcs))
    return Graph(n, tuple(arcs[i] for i in order), directed=True), 0


def random_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    """Small integer weights including zeros, to exercise tie-breaking."""
    return rng.integers(0, 11, size=m).astype(np.int64)


def is_matching(g: Graph, edge_ids) -> bool:
    nodes: set[int] = set()
    for e in edge_ids:
        u, v = g.edges[e]
        if u in nodes or v in nodes:
            return False
        nodes.update((u, v))
    return True


def all_matchings(g: Graph) -> list[frozenset[int]]:
    """Every matching of the graph, including non-maximal and empty ones."""
    out = []
    for r in range(g.m + 1):
        for combo in itertools.combinations(range(g.m), r):
            if is_matching(g, combo):
                out.append(frozenset(combo))
    return out


def brute_force_max_weight(g: Graph, w) -> float:
    return max(sum(w[e] for e in s) for s in all_matchings(g))


def bfs_depths(g: Graph, tree) -> dict[int, int]:
    """Recompute tree-edge depths by BFS from the root, independent of the
    depths stored on the tree."""
    by_tail: dict[int, list[tuple[int, int]]] = {}
    for te in tree.edges:
        by_tail.setdefault(te.parent, []).append((te.edge_id, te.child))
    depths: dict[int, int] = {}
    frontier = [(tree.root, 0)]
    while frontier:
        node, d = frontier.pop()
        for eid, child in by_tail.get(node, ()):
            depths[eid] = d
            frontier.append((child, d + 1))
    return depths


def _dot(row, x) -> Fraction:
    return sum((a * v for a, v in zip(row, x)), Fraction(0))


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gauss-Jordan over Fractions; None when the system is singular."""
    k = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col] / aug[col][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][k] / aug[i][i] for i in range(k)]


def _lp_vertices(n: int, a_ub, b_ub, a_eq, b_eq) -> list[list[Fraction]]:
    """Every vertex of {x >= 0 : a_ub x <= b_ub, a_eq x = b_eq}, by solving each
    choice of n constraints as equalities and keeping the feasible points."""
    ub = [([Fraction(v) for v in r], Fraction(b)) for r, b in zip(a_ub, b_ub)]
    eq = [([Fraction(v) for v in r], Fraction(b)) for r, b in zip(a_eq, b_eq)]
    bounds = [([Fraction(int(i == j)) for i in range(n)], Fraction(0)) for j in range(n)]
    found = []
    for chosen in itertools.combinations(ub + eq + bounds, n):
        x = _solve_square([r for r, _ in chosen], [b for _, b in chosen])
        if x is None or any(v < 0 for v in x):
            continue
        if all(_dot(r, x) <= b for r, b in ub) and all(_dot(r, x) == b for r, b in eq):
            found.append(x)
    return found


def brute_force_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> tuple[str, Fraction | None]:
    """(status, optimal value) of max c.x over {x >= 0 : a_ub x <= b_ub, a_eq x = b_eq}.

    The region is pointed (x >= 0), so it is empty exactly when it has no
    vertex; and a nonempty region is unbounded in c exactly when some vertex
    of the normalised recession cone {d >= 0 : a_ub d <= 0, a_eq d = 0,
    sum d = 1} has c.d > 0. Otherwise the optimum sits at a vertex.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    verts = _lp_vertices(n, a_ub, b_ub, a_eq, b_eq)
    if not verts:
        return "infeasible", None
    rays = _lp_vertices(n, a_ub, [0] * len(a_ub), [*a_eq, [1] * n], [0] * len(a_eq) + [1])
    if any(_dot(c, ray) > 0 for ray in rays):
        return "unbounded", None
    return "optimal", max(_dot(c, x) for x in verts)
