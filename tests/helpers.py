"""Shared test utilities: random graph generation and brute-force oracles.

The brute-force routines here are the independent references the solvers
are checked against; they never call the code paths under test.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from umwsim import capacity, engine, policy, simplex
from umwsim.capacity import CapacityCertificate
from umwsim.errors import CapExceededError, DisconnectedError, TopologyError
from umwsim.activation import ActivationVector, max_weight_activation
from umwsim.physical_net import Packet
from umwsim.policy import BPState, MaxWeightState, require_unicast, solve_route
from umwsim.routing import RouteTree, orient_tree
from umwsim.topology import ActivationSet, Graph
from umwsim.traffic import TrafficClass, arrival_table, effective_amax

# What one slot of a policy hands back: (class id, sojourn) per packet
# fully delivered in the slot, the total queue and the total virtual queue.
SlotOutcome = tuple[list[tuple[int, int]], int, int]


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


def flow(kind: str, source: int, destinations) -> TrafficClass:
    """Class 0 at rate 1: the class argument of `umwsim.policy.solve_route`
    for a route between bare endpoints."""
    return TrafficClass(0, kind, source, frozenset(destinations), 1.0)


def node_mask(nodes) -> int:
    """The bitmask with bit v set for each node v, as `Packet.reached` holds
    the nodes a packet has been delivered to."""
    return sum(1 << v for v in set(nodes))


def contraction_arborescence(g: Graph, w, root: int) -> list[int]:
    """Minimum-weight arborescence (recursive cycle contraction).

    Reference for `umwsim.routing._min_arborescence`: the contraction-only
    solver it replaced, which contracts whenever the cheapest in-arcs
    form a cycle and otherwise returns them.

    Arc selection is ordered by (weight, edge id), which fixes a
    deterministic optimum when weights tie.
    """
    arcs = [(w[e], e, u, v) for e, (u, v) in enumerate(g.edges)]
    n = g.node_count

    def solve(node_ids: list[int], arcs_in: list[tuple], root_id: int) -> list[int]:
        best: dict[int, tuple] = {}
        for arc in arcs_in:
            cost, eid, u, v = arc
            if v == root_id or u == v:
                continue
            cur = best.get(v)
            if cur is None or (cost, eid) < (cur[0], cur[1]):
                best[v] = arc
        for v in node_ids:
            if v != root_id and v not in best:
                raise DisconnectedError(f"node {v} has no incoming arc from root {root_id}")
        # Look for a cycle among the selected arcs.
        cycle = None
        color = {v: 0 for v in node_ids}
        for start in node_ids:
            if color[start] or start == root_id:
                continue
            path = []
            v = start
            while v != root_id and color[v] == 0:
                color[v] = 1
                path.append(v)
                v = best[v][2]
            if v != root_id and color[v] == 1:
                cycle = path[path.index(v):]
                break
            for x in path:
                color[x] = 2
        if cycle is None:
            return [best[v][1] for v in node_ids if v != root_id]

        cycle_set = set(cycle)
        super_id = max(node_ids) + 1
        cycle_cost = {v: best[v][0] for v in cycle}
        new_nodes = [v for v in node_ids if v not in cycle_set] + [super_id]
        new_arcs = []
        entering: dict[int, tuple] = {}
        for arc in arcs_in:
            cost, eid, u, v = arc
            nu = super_id if u in cycle_set else u
            nv = super_id if v in cycle_set else v
            if nu == nv:
                continue
            if nv == super_id:
                new_arcs.append((cost - cycle_cost[v], eid, nu, nv))
                entering[eid] = arc
            else:
                new_arcs.append((cost, eid, nu, nv))
        chosen = solve(new_nodes, new_arcs, root_id if root_id not in cycle_set else super_id)
        chosen_set = set(chosen)
        # Expand: the one chosen arc entering the supernode displaces the
        # cycle arc of the node it lands on; all other cycle arcs stay.
        landed = None
        for eid in chosen:
            if eid in entering:
                landed = entering[eid][3]
                break
        result = list(chosen_set)
        for v in cycle:
            if v != landed:
                result.append(best[v][1])
        return result

    if n == 1:
        return []
    return solve(list(range(n)), arcs, root)


def full_shortest_labels(g: Graph, w, source: int, allowed: frozenset[int] | None = None) -> dict:
    """Reference for `umwsim.routing._shortest_labels`: the same Dijkstra
    labels (cost, hops, edge-id sequence), run until the heap is empty
    instead of stopping once its targets are labelled."""
    labels: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    heap = [(0, 0, (), source)]
    while heap:
        cost, hops, seq, v = heapq.heappop(heap)
        if v in labels:
            continue
        labels[v] = (cost, hops, seq)
        for eid, u in g.adjacency[v]:
            if u not in labels and (allowed is None or eid in allowed):
                heapq.heappush(heap, (cost + w[eid], hops + 1, seq + (eid,), u))
    return labels


def pruned_sp_tree(g: Graph, w, root: int, edge_ids: set[int], keep: set[int]) -> set[int]:
    """Reference for `umwsim.routing._subgraph_sp_tree`: the full
    shortest-path tree of the edge-induced subgraph, then leaf branches that
    serve no kept node dropped until none is left."""
    labels = full_shortest_labels(g, w, root, frozenset(edge_ids))
    if not keep <= set(labels):
        raise TopologyError("kept nodes not reachable inside subgraph")
    tree = {e for _, _, seq in labels.values() for e in seq}
    while True:
        incident: dict[int, list[int]] = {}
        for e in tree:
            for node in g.edges[e]:
                incident.setdefault(node, []).append(e)
        leaves = [es[0] for node, es in incident.items()
                  if len(es) == 1 and node not in keep and node != root]
        if not leaves:
            return tree
        tree.difference_update(leaves)


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


# The subset scan tests 2^m edge subsets, so it refuses larger graphs.
SUBSET_SCAN_EDGE_CAP = 12


def subset_scan(g: Graph, root: int, cover: frozenset[int], leaves_in: frozenset[int]) -> list[RouteTree]:
    """All edge subsets that form a root-oriented tree covering `cover`
    with every leaf in `leaves_in`. Exhaustive over 2^m subsets."""
    m = g.m
    n = g.node_count
    out: list[RouteTree] = []
    for bits in range(1 << m):
        edge_ids = [e for e in range(m) if bits >> e & 1]
        k = len(edge_ids)
        if k > n - 1:
            continue
        nodes: set[int] = set()
        for e in edge_ids:
            nodes.update(g.edges[e])
        if k and len(nodes) != k + 1:
            continue
        if not cover <= (nodes | {root}):
            continue
        if edge_ids and root not in nodes:
            continue
        try:
            tree = orient_tree(g, edge_ids, root, cover)
        except TopologyError:
            continue
        leaf_ok = all(
            te.child in leaves_in or te.child in tree.children_of
            for te in tree.edges
        )
        if leaf_ok:
            out.append(tree)
    return out


def subset_scan_routes(g: Graph, cls: TrafficClass, edge_cap: int = SUBSET_SCAN_EDGE_CAP) -> list[RouteTree]:
    """Reference route catalogue for `umwsim.capacity.enumerate_routes`: the
    same classes, pair cap (`capacity.PATHS_PER_PAIR_CAP`, read per call)
    and order, found by testing every one of the 2^m edge subsets instead of
    growing trees. It refuses graphs of more than
    `edge_cap` edges; the graphs it takes have fewer than 2^12 edge subsets,
    so none reaches the route cap."""
    if g.m > edge_cap:
        raise CapExceededError("route enumeration edges", g.m, edge_cap)
    s = cls.source
    if cls.kind == "broadcast":
        nodes = frozenset(range(g.node_count))
        return subset_scan(g, s, nodes, nodes)
    if cls.kind == "multicast":
        cover = frozenset(cls.destinations | {s})
        return subset_scan(g, s, cls.destinations, cover)
    routes: list[RouteTree] = []
    for t in sorted(cls.destinations):
        pair = subset_scan(g, s, frozenset({t}), frozenset({t}))
        if len(pair) > capacity.PATHS_PER_PAIR_CAP:
            raise CapExceededError(f"paths {s}->{t}", len(pair), capacity.PATHS_PER_PAIR_CAP)
        routes.extend(pair)
    return routes


def row_scaled_certificate(g: Graph, aset: ActivationSet, classes: list[TrafficClass]) -> CapacityCertificate:
    """Reference for `umwsim.capacity.max_scaling`: the same catalogue and
    columns, but the objective is rho itself and the rows, not rho's column,
    are scaled to ints. Every equality row (each class row, -rate * rho +
    its routes = 0, and the mixture row) is multiplied by the same D, the
    lcm of the rate denominators. A row's scale weighs its artificial in
    phase 1, so one shared scale keeps the pivots of the rational program;
    a class row scaled by its own rate's denominator alone would not."""
    active = [c for c in classes if c.rate > 0]
    masks = [(c.id, bits) for c in active for _, group in capacity._route_masks(g, c) for bits in group]
    members = capacity._activation_members(aset)
    nvars = 1 + len(masks) + len(members)
    rates = tuple((c.id, Fraction(c.rate)) for c in active)
    scale = math.lcm(*(rate.denominator for _, rate in rates))
    a_eq = []
    for cid, rate in rates:
        row = [0] * nvars
        row[0] = -int(rate * scale)
        for j, (route_cid, _) in enumerate(masks, start=1):
            row[j] = scale * (route_cid == cid)
        a_eq.append(row)
    a_eq.append([0] * (1 + len(masks)) + [scale] * len(members))
    a_ub = [[0] * nvars for _ in range(g.m)]
    for j, (_, bits) in enumerate(masks, start=1):
        for e in range(g.m):
            a_ub[e][j] = bits >> e & 1
    for j, member in enumerate(members, start=1 + len(masks)):
        for e in member:
            a_ub[e][j] = -1
    status, value, x = simplex.solve_lp([1] + [0] * (nvars - 1), a_ub, [0] * g.m,
                                        a_eq, [0] * len(active) + [scale])
    assert status == simplex.OPTIMAL, status
    flows = tuple((cid, tuple(e for e in range(g.m) if bits >> e & 1), x[j])
                  for j, (cid, bits) in enumerate(masks, start=1) if x[j] > 0)
    mix = tuple((tuple(sorted(member)), x[j])
                for j, member in enumerate(members, start=1 + len(masks)) if x[j] > 0)
    return CapacityCertificate(rho_star=value, rates=rates, flows=flows, activation_mix=mix)


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


def certificate_from_json_dict(doc: dict) -> CapacityCertificate:
    """The certificate that `CapacityCertificate.to_json_dict` wrote, read
    back from its exact fields."""
    return CapacityCertificate(
        rho_star=Fraction(doc["rho_star_exact"]),
        rates=tuple((int(r["class"]), Fraction(r["rate_exact"])) for r in doc["rates"]),
        flows=tuple(
            (int(f["class"]), tuple(int(e) for e in f["edges"]), Fraction(f["rate_exact"]))
            for f in doc["flows"]
        ),
        activation_mix=tuple(
            (tuple(int(e) for e in a["edges"]), Fraction(a["prob_exact"]))
            for a in doc["activation_mix"]
        ),
    )


def solve_on_tableau_path(monkeypatch, path: str | None, fn, *args):
    """fn(*args) with `umwsim.simplex` held to one tableau path; returns its
    result, the last tableau's (basis, det, entries as Python ints) and the
    path each of that tableau's pivots ran on ("array" or "rows").

    path "array" starts every tableau whose entries fit on the int64 array,
    however small; "rows" keeps every tableau on Python-int rows (the int64
    bound is 0); None leaves the module's settings as they are.
    """
    tabs = []

    class Recording(simplex._Tableau):
        def __init__(self, *init_args):
            super().__init__(*init_args)
            self.pivots: list[str] = []
            tabs.append(self)

        def pivot(self, r: int, c: int) -> None:
            super().pivot(r, c)
            self.pivots.append("rows" if self.t is None else "array")

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_Tableau", Recording)
        if path == "array":
            mp.setattr(simplex, "ARRAY_MIN_ENTRIES", 0)
        elif path == "rows":
            mp.setattr(simplex, "INT64_BOUND", 0)
        out = fn(*args)
    tab = tabs[-1]
    entries = tab.rows if tab.t is None else tab.t.tolist()
    return out, (tab.basis, tab.det, entries), tab.pivots


class AssociatedQueues:
    """Companion recursion qhat <- (qhat - mu)^+ + A.

    Differs from the Lindley queue only in when arrivals are counted;
    per slot it stays within [q, q + A_max] of the Lindley state, which
    is the sandwich property the diagnostics verify.
    """

    def __init__(self, m: int):
        self.qhat = np.zeros(m, dtype=np.int64)

    def update(self, A: np.ndarray, mu: np.ndarray) -> None:
        np.subtract(self.qhat, mu, out=self.qhat)
        np.maximum(self.qhat, 0, out=self.qhat)
        np.add(self.qhat, A, out=self.qhat)


def skorokhod_value(arrivals: np.ndarray, service: np.ndarray, e: int, t: int) -> int:
    """Queue value at slot t recomputed from raw history, one window at a time.

    Evaluates (sup over window lengths tau=1..t of arrivals-minus-service on
    the window [t - tau, t))^+ directly; the brute-force reference for
    `umwsim.virtual_net.reflected_walk` and the Lindley state.
    """
    if t > len(arrivals):
        raise ValueError(f"history has {len(arrivals)} slots, asked for t={t}")
    best = 0
    acc = 0
    for tau in range(1, t + 1):
        acc += int(arrivals[t - tau, e]) - int(service[t - tau, e])
        if acc > best:
            best = acc
    return best


def loading_slack(arrivals: np.ndarray, service: np.ndarray, e: int, t0: int, t: int) -> int:
    """Window arrivals minus window allocated service on [t0, t)."""
    if not (0 <= t0 < t <= len(arrivals)):
        raise ValueError(f"bad window [{t0}, {t}) for history of {len(arrivals)} slots")
    return int(arrivals[t0:t, e].sum() - service[t0:t, e].sum())


class SlotDiagnosticState:
    """Reference for `umwsim.engine._DiagnosticState`: the same three
    queue-identity checks, re-evaluated one slot at a time.

    Maintains the cumulative arrivals-minus-service vector and its running
    minimum (the running-sup form of the windowed-load expression), the
    companion queue recursion, and running maxima, without ever reading the
    Lindley state it is checking. Failed checks count into its own
    ``violations`` under "skorokhod", "sandwich" and "loading".
    """

    def __init__(self, m: int, amax_bound: float):
        self.G = np.zeros(m, dtype=np.int64)
        self.run_min = np.zeros(m, dtype=np.int64)
        self.assoc = AssociatedQueues(m)
        self.amax_bound = amax_bound
        self.observed_amax = 0
        self.run_max_vq = 0
        self.violations = {"skorokhod": 0, "sandwich": 0, "loading": 0}

    def step(self, A: np.ndarray, mu: np.ndarray, q_after: np.ndarray, total_external: int) -> None:
        self.observed_amax = max(self.observed_amax, total_external)
        np.minimum(self.run_min, self.G, out=self.run_min)
        self.G += A
        self.G -= mu
        expected = np.maximum(self.G - self.run_min, 0)
        if not np.array_equal(expected, q_after):
            self.violations["skorokhod"] += 1
        self.assoc.update(A, mu)
        amax = self.amax_bound if math.isfinite(self.amax_bound) else self.observed_amax
        if np.any(self.assoc.qhat < q_after) or np.any(self.assoc.qhat > q_after + amax):
            self.violations["sandwich"] += 1
        # Largest windowed load ending now, per edge, must stay below the
        # running peak queue.
        peak = max(self.run_max_vq, int(q_after.max()) if len(q_after) else 0)
        self.run_max_vq = peak
        if np.any(expected > peak):
            self.violations["loading"] += 1


class TreeWalkNetwork:
    """Reference for `umwsim.physical_net.PhysicalNetwork`: the same per-edge
    ENTO buffers and delivery bookkeeping, working out each hop from the
    route's TreeEdge records and counting each edge's waiting copies in a
    numpy ``lengths`` array. It keeps its own record of each packet's
    delivered nodes (``delivered``, a set per uid) and completion slot
    (``completed_at``, per uid), so it never reads or writes the packet's
    own delivery state. Its admit and forward take the slot of the call,
    which PhysicalNetwork's do not, only for that completion record."""

    def __init__(self, g: Graph):
        self.graph = g
        # Heap entries are (hops, arrival_slot, uid, packet); the leading
        # triple is the ENTO priority and is unique per entry via uid.
        self.buffers: list[list[tuple[int, int, int, Packet]]] = [[] for _ in range(g.m)]
        self.lengths = np.zeros(g.m, dtype=np.int64)
        self.total_copies = 0
        self.delivered: dict[int, set[int]] = {}
        self.completed_at: dict[int, int] = {}

    def _deliver(self, packet: Packet, node: int, slot: int, completed: list[Packet]) -> None:
        delivered = self.delivered.setdefault(packet.uid, set())
        if node in delivered:
            raise RuntimeError(f"packet {packet.uid} delivered twice to node {node}")
        delivered.add(node)
        if delivered == packet.route.covered:
            self.completed_at[packet.uid] = slot
            completed.append(packet)

    def admit(self, packet: Packet, slot: int) -> list[Packet]:
        """Insert fresh copies (priority 0) into every root edge of the route;
        returns [packet] if the packet completes on admission, else [].

        If the source itself is a required destination it is served
        immediately; a route with no edges therefore completes on admission.
        """
        completed: list[Packet] = []
        if packet.route.root in packet.route.covered:
            self._deliver(packet, packet.route.root, slot, completed)
        for te in packet.route.children_of.get(packet.route.root, ()):
            heapq.heappush(self.buffers[te.edge_id], (0, packet.arrival_slot, packet.uid, packet))
            self.lengths[te.edge_id] += 1
            self.total_copies += 1
        return completed

    def forward(self, active: frozenset[int], slot: int) -> list[Packet]:
        """One slot of ENTO forwarding over the active edges; returns the
        packets it completes, each once, in the order they complete.

        Transmissions are simultaneous: every active nonempty edge pops its
        top copy first, and only then are the crossed copies duplicated
        into child buffers, so a copy cannot traverse two edges in one slot.
        """
        crossed: list[tuple[int, int, int, int, Packet]] = []
        for e in sorted(active):
            buf = self.buffers[e]
            if buf:
                hops, arr, uid, packet = heapq.heappop(buf)
                self.lengths[e] -= 1
                self.total_copies -= 1
                crossed.append((e, hops, arr, uid, packet))
        completed: list[Packet] = []
        for e, hops, arr, uid, packet in crossed:
            tree = packet.route
            child = next((te.child for te in tree.edges if te.edge_id == e), None)
            if child is None:
                raise RuntimeError(f"edge {e} is not on packet {uid}'s route")
            if child in tree.covered:
                # a tree reaches each node once; _deliver enforces that
                self._deliver(packet, child, slot, completed)
            for te in tree.children_of.get(child, ()):
                heapq.heappush(self.buffers[te.edge_id], (hops + 1, arr, uid, packet))
                self.lengths[te.edge_id] += 1
                self.total_copies += 1
        return completed


class BPPacket(NamedTuple):
    uid: int
    class_id: int
    arrival_slot: int


class Forward(NamedTuple):
    edge_id: int
    from_node: int
    to_node: int
    class_id: int


class ReferenceBPState:
    """Reference for `umwsim.policy.BPState`: classical back-pressure with
    its slot split over `absorb_arrivals`, `decide` and `apply`. Packets
    carry a uid, plans carry their edge id, backlogs are keyed by
    (node, class id), and the tie-break compares
    (-differential, class id, direction) tuples."""

    def __init__(self, g: Graph, aset: ActivationSet, classes: list[TrafficClass]):
        require_unicast(classes)
        self.graph = g
        self.aset = aset
        self.classes = list(classes)
        self.dest = {cls.id: cls.destination for cls in classes}
        self.queues: dict[tuple[int, int], deque[BPPacket]] = {
            (u, cls.id): deque() for u in range(g.node_count) for cls in classes
        }
        self.total_packets = 0
        self._uid = 0
        # Packets carry no route tree and copies no hop layers, so neither
        # check applies to back-pressure; both read 0.
        self.violations = {"delivery": 0, "layer_identity": 0}

    def step(self, slot: int, arrivals: dict[int, int]) -> SlotOutcome:
        """One slot: enqueue the arrivals, then forward along the best differentials."""
        done = self.absorb_arrivals(arrivals, slot)
        _, forwards = self.decide()
        done += self.apply(forwards, slot)
        return [(pkt.class_id, slot - pkt.arrival_slot) for pkt in done], self.total_packets, 0

    def backlog(self, node: int, class_id: int) -> int:
        # The destination absorbs instantly, so its backlog reads as zero.
        if node == self.dest[class_id]:
            return 0
        return len(self.queues[(node, class_id)])

    def absorb_arrivals(self, arrivals: dict[int, int], slot: int) -> list[BPPacket]:
        """Enqueue new packets at their sources (destination arrivals exit at once)."""
        done: list[BPPacket] = []
        for cls in self.classes:
            for _ in range(arrivals.get(cls.id, 0)):
                pkt = BPPacket(self._uid, cls.id, slot)
                self._uid += 1
                if cls.source == self.dest[cls.id]:
                    done.append(pkt)
                    continue
                self.queues[(cls.source, cls.id)].append(pkt)
                self.total_packets += 1
        return done

    def decide(self) -> tuple[ActivationVector, list[Forward]]:
        """Max-weight activation over backlog differentials plus, per active
        edge with positive weight, the commodity and direction to forward.

        Each edge's weight is the best positive differential over classes
        and (for undirected graphs) both directions; ties prefer the lower
        class id and then the forward (u->v) direction.
        """
        g = self.graph
        weights = [0] * g.m
        plans: list[Forward | None] = [None] * g.m
        for e, (u, v) in enumerate(g.edges):
            best = None
            for cls in self.classes:
                cid = cls.id
                diff = self.backlog(u, cid) - self.backlog(v, cid)
                if diff > 0 and (best is None or (-diff, cid, 0) < best[0]):
                    best = ((-diff, cid, 0), Forward(e, u, v, cid))
                if not g.directed:
                    rdiff = -diff
                    if rdiff > 0 and (best is None or (-rdiff, cid, 1) < best[0]):
                        best = ((-rdiff, cid, 1), Forward(e, v, u, cid))
            if best is not None:
                weights[e] = -best[0][0]
                plans[e] = best[1]
        activation = max_weight_activation(self.aset, weights)
        forwards = [plans[e] for e in sorted(activation.active) if plans[e] is not None and weights[e] > 0]
        return activation, forwards

    def apply(self, forwards: list[Forward], slot: int) -> list[BPPacket]:
        """Move one FIFO packet per planned edge; returns packets that reached
        their destination this slot."""
        delivered: list[BPPacket] = []
        for fwd in forwards:
            q = self.queues[(fwd.from_node, fwd.class_id)]
            if not q:
                continue  # drained by an earlier edge this slot
            pkt = q.popleft()
            self.total_packets -= 1
            if fwd.to_node == self.dest[fwd.class_id]:
                delivered.append(pkt)
            else:
                self.queues[(fwd.to_node, fwd.class_id)].append(pkt)
                self.total_packets += 1
        return delivered


def reference_csv_rows(report):
    """Reference for `umwsim.engine.MetricsReport.csv_rows`: every cell
    read from the recorded arrays as a numpy scalar, one slot at a time."""
    header = ["slot", "policy", "total_q", "total_vq"]
    header += [f"throughput_c{cid}" for cid in report.class_ids]
    header += ["mean_sojourn"]
    yield header
    policy = report.config.policy
    for t in range(len(report.total_q)):
        row = [str(t), policy, str(int(report.total_q[t])), str(int(report.total_vq[t]))]
        row += [f"{report.deliveries[t, j] / (t + 1):.12g}" for j in range(len(report.class_ids))]
        soj = report.mean_sojourn_running[t]
        row += ["nan" if math.isnan(soj) else f"{soj:.12g}"]
        yield row


# ---------------------------------------------------------------------------
# The slot loop one slot at a time: the reference for the policies'
# run_block and for engine.run's block recording.

def one_slot(state, t: int, arrivals: dict[int, int]) -> SlotOutcome:
    """Slot t of state (a MaxWeightState or BPState) as a one-row block:
    arrivals maps class id to its count, a class with no arrivals may be
    absent."""
    row = [arrivals.get(cls.id, 0) for cls in state.classes]
    total_q, total_vq, done = state.run_block(t, [row])
    return [(cid, sojourn) for _, cid, sojourn in done], total_q[0], total_vq[0]


def max_weight_slot(state: MaxWeightState, t: int, arrivals: dict[int, int]) -> SlotOutcome:
    """Reference for one slot of `umwsim.policy.MaxWeightState.run_block`:
    a slot as its own call, the packets admitted in the order arrivals
    lists the classes, and a slot without arrivals passed as {}."""
    net, vq = state.net, state.vq
    weights = state.weights()
    key = tuple(weights)
    entry = state.memo.get(key)
    if entry is None:
        entry = state.memo[key] = [max_weight_activation(state.aset, weights), {}, None]
        state.order.append(key)
        if len(state.order) > policy.ROUTE_MEMO_CAP:
            del state.memo[state.order.popleft()]
    act, known, _ = entry
    class_of = {cls.id: cls for cls in state.classes}
    if arrivals:
        routes: dict[int, RouteTree] = {}
        completed: list[Packet] = []
        for cid, count in arrivals.items():
            if count <= 0:
                continue
            tree = known.get(cid)
            if tree is None:
                tree = known[cid] = solve_route(state.graph, weights, class_of[cid],
                                                state.steiner_mode, state.trees)
                state.misses += 1
            else:
                state.hits += 1
            routes[cid] = tree
            for _ in range(count):
                completed += net.admit(Packet(state.uid, cid, t, tree))
                state.uid += 1
        completed += net.forward(act)
        deposit = [(tree.edge_ids, arrivals[cid]) for cid, tree in routes.items()]
    else:
        completed = net.forward(act)
        deposit = ()
    for pkt in completed:
        if pkt.reached != node_mask(pkt.route.covered):
            state.violations["delivery"] += 1
    vq.lindley_update(deposit, act.edge_ids)
    if state.diag is not None:
        state.diag.step(deposit, act.service, vq.q, sum(arrivals.values()))
    total_q = net.total_copies
    if t in state.checkpoints and int(net.layer_counters().sum()) != total_q:
        state.violations["layer_identity"] += 1
    return [(pkt.class_id, t - pkt.arrival_slot) for pkt in completed], total_q, vq.total


def bp_slot(state: BPState, slot: int, arrivals: dict[int, int]) -> SlotOutcome:
    """Reference for one slot of `umwsim.policy.BPState.run_block`."""
    done: list[tuple[int, int]] = []
    for cls in state.classes:
        n = arrivals.get(cls.id, 0)
        if cls.source == cls.destination:
            done += [(cls.id, 0)] * n
        else:
            state.queues[cls.id][cls.source].extend([policy.BPPacket(cls.id, slot)] * n)
            state.total_packets += n
    for fwd in state.decide():
        queues = state.queues[fwd.class_id]
        if not queues[fwd.from_node]:
            continue
        pkt = queues[fwd.from_node].popleft()
        if fwd.to_node == state.dest[fwd.class_id]:
            done.append((pkt.class_id, slot - pkt.arrival_slot))
            state.total_packets -= 1
        else:
            queues[fwd.to_node].append(pkt)
    return done, state.total_packets, 0


def slot_by_slot_run(config: engine.SimulationConfig) -> engine.MetricsReport:
    """Reference for `umwsim.engine.run`: one policy call per slot, and the
    deliveries, running mean sojourn and eq17 checks kept slot by slot in
    Python numbers."""
    g, aset, classes = config.resolve()
    T = config.horizon
    table = arrival_table(classes, config.arrival, T, config.seed)
    checkpoints = frozenset(range(engine.CHECK_EVERY - 1, T, engine.CHECK_EVERY)) | {T - 1}
    diag = None
    if config.policy == "bp":
        state, slot = BPState(g, aset, classes), bp_slot
    else:
        if config.metrics.diagnostics:
            diag = engine._DiagnosticState(g.m, effective_amax(classes, config.arrival), T)
        state = MaxWeightState(g, aset, classes, config.policy, config.steiner_mode, checkpoints, diag)
        slot = max_weight_slot
    class_ids = [c.id for c in classes]
    full_deliveries = [0] * len(classes)
    class_arrivals = [0] * len(classes)
    sojourn_sum, sojourn_n, eq17 = 0.0, 0, 0
    total_q, total_vq, deliveries, sojourn = [], [], [], []
    for t, row in enumerate(table.tolist()):
        arrivals = {cid: n for cid, n in zip(class_ids, row) if n}
        completed, q, vq = slot(state, t, arrivals)
        for cid, wait in completed:
            full_deliveries[class_ids.index(cid)] += 1
            sojourn_sum += wait
            sojourn_n += 1
        class_arrivals = [a + n for a, n in zip(class_arrivals, row)]
        if t in checkpoints:
            eq17 += sum(d < a - q for d, a in zip(full_deliveries, class_arrivals))
        total_q.append(q)
        total_vq.append(vq)
        deliveries.append(list(full_deliveries))
        sojourn.append(sojourn_sum / sojourn_n if sojourn_n else math.nan)
    return engine.MetricsReport(
        config=config,
        class_ids=class_ids,
        total_q=np.array(total_q, dtype=np.int64),
        total_vq=np.array(total_vq, dtype=np.int64),
        deliveries=np.array(deliveries, dtype=np.int64).reshape(T, len(classes)),
        mean_sojourn_running=np.array(sojourn, dtype=np.float64),
        arrivals_per_class=np.array(class_arrivals, dtype=np.int64),
        violations={"eq17": eq17, **state.violations, **(diag.violations if diag else {})},
        route_cache=state.route_stats(),
    )
